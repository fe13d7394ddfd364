package randgen

import (
	"fmt"
	"math/bits"
	"testing"
)

// The draw-identity contract (DESIGN.md §9, "draw kernel"): every routine
// of this package consumes the same generator words in the same order, and
// maps them to the same values, as the straightforward implementation
// below — the code this package shipped before the shuffle kept its state
// in registers. Goldens, benchmark workloads and cached estimates all
// depend on it.

// refMul64 is the portable 128-bit product the reference bounded draw
// used before math/bits.Mul64.
func refMul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// refIntn is the reference bounded draw over an arbitrary word source:
// Lemire's method with the rejection threshold computed lazily.
func refIntn(next func() uint64, n int) int {
	un := uint64(n)
	x := next()
	hi, lo := refMul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = next()
			hi, lo = refMul64(x, un)
		}
	}
	return int(hi)
}

// refShuffle is the reference Fisher–Yates loop: one refIntn per position.
func refShuffle[T any](r *Rand, x []T) {
	for i := len(x) - 1; i > 0; i-- {
		j := refIntn(r.Uint64, i+1)
		x[i], x[j] = x[j], x[i]
	}
}

// TestKnownAnswers pins the stream directly, with vectors recorded from
// the reference implementation: raw words, bounded draws over small,
// large and non-power-of-two ranges, one permutation, and the word that
// follows it (so the number of words a permutation consumes is pinned
// too).
func TestKnownAnswers(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 20, 1000, 1 << 40, 1<<62 + 12345}
	for _, c := range []struct {
		seed  uint64
		words [4]uint64
		intn  [8]int
		perm  [20]float64
		next  uint64
	}{
		{
			seed:  1,
			words: [4]uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7},
			intn:  [8]int{0, 0, 0, 2, 17, 551, 1025374243800, 4414389636805568594},
			perm:  [20]float64{9, 19, 17, 14, 4, 2, 16, 8, 3, 6, 11, 5, 13, 0, 7, 1, 15, 10, 12, 18},
			next:  0xe1995e69b98a91ec,
		},
		{
			seed:  0xdeadbeefcafef00d,
			words: [4]uint64{0x9e32cfb5bb93eebb, 0x16006bd9d4ac0014, 0x8ada5d6d34b6538e, 0x7c327ca32346a238},
			intn:  [8]int{0, 1, 2, 5, 10, 773, 594894069535, 3833159667968840241},
			perm:  [20]float64{19, 13, 17, 2, 9, 11, 1, 10, 14, 12, 8, 5, 18, 4, 7, 6, 16, 15, 3, 0},
			next:  0x3a5df396edc947cd,
		},
	} {
		r := New(c.seed)
		for i, want := range c.words {
			if got := r.Uint64(); got != want {
				t.Errorf("seed %#x: word %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
		for i, want := range c.intn {
			if got := r.Intn(bounds[i]); got != want {
				t.Errorf("seed %#x: Intn(%d) = %d, want %d", c.seed, bounds[i], got, want)
			}
		}
		var src, dst [20]float64
		for i := range src {
			src[i] = float64(i)
		}
		r.PermuteInto(dst[:], src[:])
		if dst != c.perm {
			t.Errorf("seed %#x: PermuteInto = %v, want %v", c.seed, dst, c.perm)
		}
		if got := r.Uint64(); got != c.next {
			t.Errorf("seed %#x: word after the permutation = %#x, want %#x", c.seed, got, c.next)
		}
	}
}

// TestShuffleMatchesReference: every shuffling entry point against the
// reference loop from the same seed, for every length 0..64 and 1000
// seeds, comparing the permutation and the generator state left behind.
func TestShuffleMatchesReference(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	var src, want, got [64]float64
	var wantI, gotI [64]int
	for i := range src {
		src[i] = float64(i)
	}
	for l := 0; l <= 64; l++ {
		for seed := 0; seed < seeds; seed++ {
			ref, r := New(uint64(seed)), New(uint64(seed))
			name := fmt.Sprintf("l=%d seed=%d", l, seed)

			copy(want[:l], src[:l])
			refShuffle(ref, want[:l])
			r.PermuteInto(got[:l], src[:l])
			if got != want || *r != *ref {
				t.Fatalf("%s: PermuteInto %v, reference %v (state %v vs %v)", name, got[:l], want[:l], r.s, ref.s)
			}

			refShuffle(ref, want[:l])
			r.Shuffle(got[:l])
			if got != want || *r != *ref {
				t.Fatalf("%s: Shuffle %v, reference %v (state %v vs %v)", name, got[:l], want[:l], r.s, ref.s)
			}

			for i := 0; i < l; i++ {
				wantI[i], gotI[i] = i, i
			}
			refShuffle(ref, wantI[:l])
			r.ShuffleInts(gotI[:l])
			if gotI != wantI || *r != *ref {
				t.Fatalf("%s: ShuffleInts %v, reference %v (state %v vs %v)", name, gotI[:l], wantI[:l], r.s, ref.s)
			}

			if l > 0 {
				k := l / 2
				wantS := make([]int, k)
				idx := make([]int, l)
				for i := range idx {
					idx[i] = i
				}
				for i := 0; i < k; i++ {
					j := i + refIntn(ref.Uint64, l-i)
					idx[i], idx[j] = idx[j], idx[i]
					wantS[i] = idx[i]
				}
				gotS := r.SampleWithoutReplacement(l, k)
				if fmt.Sprint(gotS) != fmt.Sprint(wantS) || *r != *ref {
					t.Fatalf("%s: SampleWithoutReplacement %v, reference %v", name, gotS, wantS)
				}
			}
		}
	}
}

// emitting returns a generator state whose next output word is x. The
// xoshiro256** scrambler rotl(s1·5, 7)·9 is a bijection of s1, so it can
// be run backwards; the other three state words are arbitrary (non-zero).
func emitting(x uint64) state {
	const inv5, inv9 = 0xcccccccccccccccd, 0x8e38e38e38e38e39 // 5⁻¹, 9⁻¹ mod 2⁶⁴
	return state{s0: 0x1234567, s1: bits.RotateLeft64(x*inv9, -7) * inv5, s2: 0x89abcdef, s3: 0xfedcba98}
}

// TestRejectionBranch reaches the Lemire rejection branch, which at the
// sizes this repository shuffles is taken with probability below 2⁻⁵⁹ per
// draw, so no seeded test gets there. The words that must be redrawn are
// those with x·n mod 2⁶⁴ < 2⁶⁴ mod n; x = 0 is one for every n that is
// not a power of two, and the multiples of ⌈2⁶⁴/n⌉ sit right at the
// boundary. Each crafted word is fed to Intn and to the shuffle kernel as
// the first word of a crafted state, and the value, the permutation and
// the state afterwards are compared with the reference.
func TestRejectionBranch(t *testing.T) {
	redrawn := 0
	for _, n := range []uint64{1, 2, 3, 5, 6, 7, 8, 20, 50, 64, 1000, 1 << 20, 1<<20 + 1, 1<<62 + 12345, 1<<63 - 1} {
		thresh := -n % n
		step := ^uint64(0)/n + 1
		words := []uint64{0, 1, 2, 1 << 63, ^uint64(0), step - 1}
		for k := uint64(1); k < 8 && k < n; k++ {
			words = append(words, k*step-1, k*step, k*step+1)
		}
		for _, x := range words {
			start := emitting(x)
			if w, _ := start.next(); w != x {
				t.Fatalf("emitting(%#x) emits %#x", x, w)
			}
			_, lo := refMul64(x, n)
			mustRedraw := lo < thresh
			if x == 0 && mustRedraw != (n&(n-1) != 0) {
				t.Errorf("n=%d: the zero word is redrawn = %v", n, mustRedraw)
			}
			if mustRedraw {
				redrawn++
			}

			ref, r := &Rand{s: start}, &Rand{s: start}
			want, got := refIntn(ref.Uint64, int(n)), r.Intn(int(n))
			if got != want || *r != *ref {
				t.Errorf("Intn(%d) on first word %#x = %d, reference %d (state %v vs %v)", n, x, got, want, r.s, ref.s)
			}
			_, one := start.next()
			if consumedOne := ref.s == one; consumedOne == mustRedraw {
				t.Errorf("Intn(%d) on first word %#x: redrawn = %v, want %v", n, x, !consumedOne, mustRedraw)
			}

			// The same word as the first draw of a shuffle of n elements.
			if n > 64 {
				continue
			}
			ref, r = &Rand{s: start}, &Rand{s: start}
			var wantP, gotP [64]float64
			for i := range wantP {
				wantP[i], gotP[i] = float64(i), float64(i)
			}
			refShuffle(ref, wantP[:n])
			r.Shuffle(gotP[:n])
			if gotP != wantP || *r != *ref {
				t.Errorf("Shuffle of %d on first word %#x = %v, reference %v", n, x, gotP[:n], wantP[:n])
			}
		}
	}
	if redrawn == 0 {
		t.Fatal("no crafted word was redrawn: the rejection branch went untested")
	}
}

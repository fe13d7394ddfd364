// Package randgen provides the deterministic pseudo-random machinery used
// throughout the IM-GRN system: an xoshiro256** generator seeded via
// SplitMix64, Gaussian and uniform variates, and Fisher–Yates permutation
// sampling (the randomization technique behind the paper's edge-probability
// measure, Definition 2).
//
// Every consumer of randomness in this repository threads an explicit *Rand
// so that data generation, Monte Carlo estimation, and pivot selection are
// all reproducible from a single seed, which in turn makes the experiment
// harness deterministic.
package randgen

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator (xoshiro256**).
// It is NOT safe for concurrent use; derive per-goroutine generators with
// Split.
type Rand struct {
	s state
	// cached second Gaussian from the polar Box–Muller transform
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from seed via SplitMix64, so that nearby
// seeds still produce well-separated state.
func New(seed uint64) *Rand {
	var r Rand
	r.Reseed(seed)
	return &r
}

// Reseed resets r in place to the exact state New(seed) would return,
// including the cached Box–Muller Gaussian. It lets hot loops that need a
// fresh deterministic stream per work unit (e.g. per-candidate refinement
// scorers) reuse one generator instead of allocating a new one each time.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	var s [4]uint64
	for i := range s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = state{s[0], s[1], s[2], s[3]}
	r.gauss = 0
	r.hasGauss = false
}

// Split derives an independent generator from r, advancing r. It is the
// mechanism for handing deterministic sub-streams to parallel workers.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SeedFrom deterministically derives a child seed from base and a sequence
// of work-unit coordinates (a data source ID, a column pair, ...). Unlike
// Split it is stateless: the same coordinates always yield the same seed,
// so parallel query workers can seed their generators per work unit rather
// than per goroutine, making results independent of the goroutine
// schedule. Each coordinate is folded in with a SplitMix64 finalization
// round, so nearby coordinates produce well-separated seeds.
func SeedFrom(base uint64, coords ...uint64) uint64 {
	z := base
	for _, c := range coords {
		z += 0x9e3779b97f4a7c15 + c
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// state is the xoshiro256** state as a four-field struct rather than an
// array: the compiler keeps such a struct in registers when it is a local
// variable, which is what lets the shuffle loops below run a whole
// permutation without touching the generator in memory.
type state struct{ s0, s1, s2, s3 uint64 }

// next returns the next output word and the successor state.
func (s state) next() (uint64, state) {
	w := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return w, s
}

// redraw is the rejection branch of Lemire's nearly-divisionless bounded
// draw. A word w maps onto [0, n) as the high half of the 128-bit product
// w·n; the words whose low half falls under 2^64 mod n would bias the
// result and are drawn again. Callers compute the first product inline and
// come here only when its low half is below n — at shuffle sizes once in
// 2^59 draws — which keeps the modulo and the loop out of their hot path.
// redraw returns the accepted high half, (hi, lo) itself when it already
// clears the threshold, and the state after any words it consumed.
func (s state) redraw(hi, lo, n uint64) (uint64, state) {
	for thresh := -n % n; lo < thresh; {
		var w uint64
		w, s = s.next()
		hi, lo = bits.Mul64(w, n)
	}
	return hi, s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	var w uint64
	w, r.s = r.s.next()
	return w
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded sampling keeps it branch-light.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("randgen: Intn with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		hi, r.s = r.s.redraw(hi, lo, un)
	}
	return int(hi)
}

// UniformIn returns a uniform float64 in [lo, hi).
func (r *Rand) UniformIn(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntIn returns a uniform int in [lo, hi] inclusive. It panics if hi < lo.
func (r *Rand) IntIn(lo, hi int) int {
	if hi < lo {
		panic("randgen: IntIn with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// NormFloat64 returns a standard-normal variate via the polar Box–Muller
// transform (Marsaglia). Consecutive values come in cached pairs.
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.gauss = v * f
		r.hasGauss = true
		return u * f
	}
}

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Shuffle permutes x in place with the Fisher–Yates algorithm.
func (r *Rand) Shuffle(x []float64) { shuffle(r, x) }

// ShuffleInts permutes x in place with the Fisher–Yates algorithm.
func (r *Rand) ShuffleInts(x []int) { shuffle(r, x) }

// shuffle is the Fisher–Yates kernel: one bounded draw per position from
// the top down, the draw being Intn's written out so that the generator
// state stays in a local (in registers) for the whole permutation. It
// consumes exactly the words len(x)-1 successive Intn calls would and
// picks the same indices.
func shuffle[T any](r *Rand, x []T) {
	s := r.s
	for i := len(x) - 1; i > 0; i-- {
		n := uint64(i) + 1
		var w uint64
		w, s = s.next()
		j, lo := bits.Mul64(w, n)
		if lo < n {
			j, s = s.redraw(j, lo, n)
		}
		x[i], x[j] = x[j], x[i]
	}
	r.s = s
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// PermuteInto writes a fresh uniform random permutation of src into dst,
// the randomized vector X^R of Definition 2. dst and src must have equal
// length; dst is fully overwritten. No allocation occurs, which matters in
// the Monte Carlo hot loop.
func (r *Rand) PermuteInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("randgen: PermuteInto length mismatch")
	}
	copy(dst, src)
	r.Shuffle(dst)
}

// SampleWithoutReplacement returns k distinct uniform indices from [0, n).
// It panics if k > n. The result is in selection order (itself uniform).
func (r *Rand) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("randgen: sample size exceeds population")
	}
	// Partial Fisher–Yates over an index table.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = idx[i]
	}
	return out
}

// Package bitvec implements the fixed-size bit-vector signatures of
// Section 5.1: each embedded point carries a gene-ID signature V_f and a
// data-source signature V_d produced by hashing into B bits; index node
// entries hold the bit-OR of their children's signatures so that a bit-AND
// against the query signature can disqualify whole subtrees. The package
// also provides the inverted bit-vector file IF mapping each gene name to
// the signature of the data sources containing it.
package bitvec

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/imgrn/imgrn/internal/gene"
)

// DefaultBits is the default signature width B.
const DefaultBits = 256

// Vector is a fixed-width bit vector.
type Vector struct {
	words []uint64
	size  int
}

// New returns an all-zero vector of b bits (b must be positive).
func New(b int) *Vector {
	if b <= 0 {
		panic("bitvec: non-positive size")
	}
	return &Vector{words: make([]uint64, (b+63)/64), size: b}
}

// Len returns the width B in bits.
func (v *Vector) Len() int { return v.size }

// Set turns bit i on.
func (v *Vector) Set(i int) {
	if i < 0 || i >= v.size {
		panic(fmt.Sprintf("bitvec: Set(%d) out of range [0,%d)", i, v.size))
	}
	v.words[i/64] |= 1 << uint(i%64)
}

// Clear turns bit i off.
func (v *Vector) Clear(i int) {
	if i < 0 || i >= v.size {
		panic(fmt.Sprintf("bitvec: Clear(%d) out of range [0,%d)", i, v.size))
	}
	v.words[i/64] &^= 1 << uint(i%64)
}

// Test reports whether bit i is on.
func (v *Vector) Test(i int) bool {
	if i < 0 || i >= v.size {
		panic(fmt.Sprintf("bitvec: Test(%d) out of range [0,%d)", i, v.size))
	}
	return v.words[i/64]&(1<<uint(i%64)) != 0
}

// OrInPlace sets v |= o. Widths must match.
func (v *Vector) OrInPlace(o *Vector) {
	if v.size != o.size {
		panic("bitvec: OrInPlace width mismatch")
	}
	for i, w := range o.words {
		v.words[i] |= w
	}
}

// AndInPlace sets v = v ∧ o: the progressive intersection of IF entries
// (a source must appear under every query gene).
func (v *Vector) AndInPlace(o *Vector) {
	if v.size != o.size {
		panic("bitvec: AndInPlace width mismatch")
	}
	for i, w := range o.words {
		v.words[i] &= w
	}
}

// Intersects reports whether v AND o is non-zero — the signature test of
// Fig. 4 (e.g. qV_f(s) ∧ V_f(E_a) ≠ 0).
func (v *Vector) Intersects(o *Vector) bool {
	if v.size != o.size {
		panic("bitvec: Intersects width mismatch")
	}
	for i, w := range o.words {
		if v.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectsAll reports whether the AND of v with every vector in os is
// non-zero, the four-way test qV_d(s) ∧ V_d(E_a) ∧ qV_d(t) ∧ V_d(E_b) ≠ 0.
func (v *Vector) IntersectsAll(os ...*Vector) bool {
	for _, o := range os {
		if o.size != v.size {
			panic("bitvec: IntersectsAll width mismatch")
		}
	}
	// Word-wise: the AND of all operands is non-zero iff some word of it is.
	for i, w := range v.words {
		for _, o := range os {
			if w &= o.words[i]; w == 0 {
				break
			}
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy of v.
func (v *Vector) Clone() *Vector {
	c := New(v.size)
	copy(c.words, v.words)
	return c
}

// Reset clears all bits.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Words exposes the raw words for serialization; callers must not mutate.
func (v *Vector) Words() []uint64 { return v.words }

// FromWords reconstructs a vector of b bits from serialized words.
func FromWords(b int, words []uint64) (*Vector, error) {
	v := New(b)
	if len(words) != len(v.words) {
		return nil, fmt.Errorf("bitvec: got %d words for %d bits", len(words), b)
	}
	copy(v.words, words)
	return v, nil
}

// splitmix64 finalizer, used as the hash family H(·) for both signatures.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Salts separating the gene hash H_f from the source hash H_d.
const (
	geneSalt   = 0x8f1bbcdc5f3c1d2b
	sourceSalt = 0x2545f4914f6cdd1d
)

// HashGene returns H_f(g) in [0, b).
func HashGene(g gene.ID, b int) int {
	return int(mix(uint64(uint32(g))^geneSalt) % uint64(b))
}

// HashSource returns H_d(i) in [0, b).
func HashSource(source int, b int) int {
	return int(mix(uint64(source)^sourceSalt) % uint64(b))
}

// GeneSignature returns V_f over the given genes: one hashed bit per gene.
func GeneSignature(b int, genes ...gene.ID) *Vector {
	v := New(b)
	for _, g := range genes {
		v.Set(HashGene(g, b))
	}
	return v
}

// SourceSignature returns V_d over the given data source IDs.
func SourceSignature(b int, sources ...int) *Vector {
	v := New(b)
	for _, s := range sources {
		v.Set(HashSource(s, b))
	}
	return v
}

// InvertedFile is the inverted bit-vector file IF of Section 5.1: for each
// gene name g, IF[g] is the bit-OR of the source-ID signatures of every
// matrix containing g. It answers "which data sources may contain gene g"
// with one-sided error (false positives only).
//
// Each set bit of IF[g] carries the number of recorded sources of g that
// hash to it, so removing a source clears exactly the bits no remaining
// source of g sets, without rescanning the database.
type InvertedFile struct {
	bits    int
	entries map[gene.ID]*invEntry
}

// invEntry is one gene's signature and, ascending by bit, the number of
// recorded sources behind each set bit.
type invEntry struct {
	sig    *Vector
	counts []bitCount
}

type bitCount struct{ bit, n int32 }

func cmpBit(c bitCount, bit int32) int { return int(c.bit - bit) }

// NewInvertedFile returns an empty inverted file with b-bit signatures.
func NewInvertedFile(b int) *InvertedFile {
	return &InvertedFile{bits: b, entries: make(map[gene.ID]*invEntry)}
}

// Bits returns the signature width.
func (f *InvertedFile) Bits() int { return f.bits }

// Add records that data source `source` contains gene g.
func (f *InvertedFile) Add(g gene.ID, source int) {
	e, ok := f.entries[g]
	if !ok {
		e = &invEntry{sig: New(f.bits)}
		f.entries[g] = e
	}
	bit := int32(HashSource(source, f.bits))
	if k, found := slices.BinarySearchFunc(e.counts, bit, cmpBit); found {
		e.counts[k].n++
	} else {
		e.counts = slices.Insert(e.counts, k, bitCount{bit: bit, n: 1})
		e.sig.Set(int(bit))
	}
}

// Remove withdraws an earlier Add(g, source), which the caller must have
// made (the counts cannot tell two sources of one bit apart): the bit of
// source in IF[g] clears when no other recorded source of g sets it, and g
// is forgotten with its last source.
func (f *InvertedFile) Remove(g gene.ID, source int) {
	e, ok := f.entries[g]
	if !ok {
		return
	}
	bit := int32(HashSource(source, f.bits))
	k, found := slices.BinarySearchFunc(e.counts, bit, cmpBit)
	if !found {
		return
	}
	if e.counts[k].n--; e.counts[k].n > 0 {
		return
	}
	e.counts = slices.Delete(e.counts, k, k+1)
	e.sig.Clear(int(bit))
	if len(e.counts) == 0 {
		delete(f.entries, g)
	}
}

// Sources returns the source signature IF[g]; an all-zero vector when g is
// unknown (no source can contain it).
func (f *InvertedFile) Sources(g gene.ID) *Vector {
	if e, ok := f.entries[g]; ok {
		return e.sig
	}
	return New(f.bits)
}

// Genes returns the number of distinct genes recorded.
func (f *InvertedFile) Genes() int { return len(f.entries) }

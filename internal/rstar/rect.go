// Package rstar implements an R*-tree (Beckmann et al., SIGMOD 1990) over
// points of arbitrary dimensionality — the multidimensional index of
// Section 5.1. It supports R* insertion with forced reinsertion, the R*
// split heuristics, sort-tile-recursive bulk loading, range search, and a
// read-only node API that the IM-GRN query processor uses for its pairwise
// priority-queue traversal. Nodes can be mapped onto simulated disk pages
// for the I/O accounting of the evaluation.
package rstar

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned minimum bounding rectangle in k dimensions.
type Rect struct {
	Min, Max []float64
}

// NewRect returns a degenerate rectangle covering the single point p.
func NewRect(p []float64) Rect {
	min := make([]float64, len(p))
	max := make([]float64, len(p))
	copy(min, p)
	copy(max, p)
	return Rect{Min: min, Max: max}
}

// EmptyRect returns the identity for Union in k dims (inverted bounds).
func EmptyRect(k int) Rect {
	min := make([]float64, k)
	max := make([]float64, k)
	for i := 0; i < k; i++ {
		min[i] = math.Inf(1)
		max[i] = math.Inf(-1)
	}
	return Rect{Min: min, Max: max}
}

// Dims returns the dimensionality.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy.
func (r Rect) Clone() Rect {
	return Rect{Min: append([]float64(nil), r.Min...), Max: append([]float64(nil), r.Max...)}
}

// ExpandRect grows r in place to cover o.
func (r *Rect) ExpandRect(o Rect) {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
}

// ExpandPoint grows r in place to cover point p.
func (r *Rect) ExpandPoint(p []float64) {
	for i := range r.Min {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
}

// Union returns the smallest rectangle covering both a and b.
func Union(a, b Rect) Rect {
	u := a.Clone()
	u.ExpandRect(b)
	return u
}

// Area returns the k-dimensional volume of r (0 for degenerate rects).
func (r Rect) Area() float64 {
	area := 1.0
	for i := range r.Min {
		side := r.Max[i] - r.Min[i]
		if side < 0 {
			return 0
		}
		area *= side
	}
	return area
}

// Margin returns the sum of edge lengths (the R* split axis criterion).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		if side := r.Max[i] - r.Min[i]; side > 0 {
			m += side
		}
	}
	return m
}

// Enlargement returns the area growth needed for r to cover o.
func (r Rect) Enlargement(o Rect) float64 {
	return Union(r, o).Area() - r.Area()
}

// OverlapArea returns the volume of the intersection of a and b.
func OverlapArea(a, b Rect) float64 {
	area := 1.0
	for i := range a.Min {
		lo := max(a.Min[i], b.Min[i])
		hi := min(a.Max[i], b.Max[i])
		if hi <= lo {
			return 0
		}
		area *= hi - lo
	}
	return area
}

// zeroOverlap reports, with comparisons only, that OverlapArea(a, b) is 0:
// some axis has min(Max) <= max(Min). It tests the last axis first, the
// gene-ID axis of the IM-GRN index, which separates most entry pairs.
func zeroOverlap(a, b Rect) bool {
	for i := len(a.Min) - 1; i >= 0; i-- {
		if min(a.Max[i], b.Max[i]) <= max(a.Min[i], b.Min[i]) {
			return true
		}
	}
	return false
}

// Intersects reports whether a and b share any point.
func (a Rect) Intersects(b Rect) bool {
	for i := range a.Min {
		if a.Min[i] > b.Max[i] || b.Min[i] > a.Max[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether p lies within r (inclusive).
func (r Rect) ContainsPoint(p []float64) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies entirely within r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Center writes the rectangle center into dst and returns it.
func (r Rect) Center(dst []float64) []float64 {
	dst = dst[:len(r.Min)]
	for i := range r.Min {
		dst[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return dst
}

// CenterDistance2 returns the squared distance between the centers of a
// and b (used by forced reinsertion ordering).
func CenterDistance2(a, b Rect) float64 {
	var s float64
	for i := range a.Min {
		d := (a.Min[i]+a.Max[i])/2 - (b.Min[i]+b.Max[i])/2
		s += d * d
	}
	return s
}

func (r Rect) String() string {
	return fmt.Sprintf("Rect{%v..%v}", r.Min, r.Max)
}

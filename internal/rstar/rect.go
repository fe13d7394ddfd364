// Package rstar implements the R-tree over points of arbitrary
// dimensionality that serves as the multidimensional index of Section 5.1.
// It keeps its entries in one key order — the primary-axis coordinate,
// then the item reference — which a gene-primary sort-tile-recursive bulk
// load lays out and insertion and deletion preserve, and it offers range
// search and a read-only
// node API that the IM-GRN query processor uses for its pairwise
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

// ExpandRect grows r in place to cover o and reports whether r changed.
func (r *Rect) ExpandRect(o Rect) bool {
	grew := false
	for i := range r.Min {
		if o.Min[i] < r.Min[i] {
			r.Min[i], grew = o.Min[i], true
		}
		if o.Max[i] > r.Max[i] {
			r.Max[i], grew = o.Max[i], true
		}
	}
	return grew
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

// Center writes the rectangle center into dst and returns it.
func (r Rect) Center(dst []float64) []float64 {
	dst = dst[:len(r.Min)]
	for i := range r.Min {
		dst[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return dst
}

// onBoundary reports whether r, a rectangle inside b, reaches one of b's
// faces: only then can b shrink when r is taken out of it.
func (r Rect) onBoundary(b Rect) bool {
	for i := range r.Min {
		if r.Min[i] == b.Min[i] || r.Max[i] == b.Max[i] {
			return true
		}
	}
	return false
}

func (r Rect) equal(o Rect) bool {
	for i := range r.Min {
		if r.Min[i] != o.Min[i] || r.Max[i] != o.Max[i] {
			return false
		}
	}
	return true
}

func (r Rect) String() string {
	return fmt.Sprintf("Rect{%v..%v}", r.Min, r.Max)
}

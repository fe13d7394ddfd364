package rstar

import (
	"math"
	"testing"
)

func rect(min, max []float64) Rect { return Rect{Min: min, Max: max} }

func TestNewRectDegenerate(t *testing.T) {
	r := NewRect([]float64{1, 2})
	if !r.equal(Rect{Min: []float64{1, 2}, Max: []float64{1, 2}}) {
		t.Errorf("point rect = %v", r)
	}
	if !r.ContainsPoint([]float64{1, 2}) {
		t.Error("point rect should contain its point")
	}
}

func TestEmptyRectIsUnionIdentity(t *testing.T) {
	u := EmptyRect(2)
	r := rect([]float64{1, 2}, []float64{3, 4})
	if !u.ExpandRect(r) || !u.equal(r) {
		t.Fatalf("empty rect expanded by %v = %v", r, u)
	}
	if u.ExpandRect(r) {
		t.Error("expanding by a covered rect reported a change")
	}
}

func TestExpand(t *testing.T) {
	r := NewRect([]float64{0, 0})
	r.ExpandPoint([]float64{2, -1})
	if r.Min[1] != -1 || r.Max[0] != 2 {
		t.Errorf("after expand: %v", r)
	}
	r.ExpandRect(rect([]float64{-5, 0}, []float64{0, 5}))
	if r.Min[0] != -5 || r.Max[1] != 5 {
		t.Errorf("after expand rect: %v", r)
	}
}

func TestIntersectsAndContains(t *testing.T) {
	a := rect([]float64{0, 0}, []float64{2, 2})
	b := rect([]float64{2, 2}, []float64{3, 3}) // touching corner
	if !a.Intersects(b) {
		t.Error("touching rects should intersect (closed rects)")
	}
	if a.Intersects(rect([]float64{2.5, 0}, []float64{3, 2})) {
		t.Error("disjoint rects intersect")
	}
	if !a.ContainsPoint([]float64{2, 0}) {
		t.Error("boundary points are inside")
	}
	if a.ContainsPoint([]float64{2.0001, 0}) {
		t.Error("outside point reported inside")
	}
}

func TestCenterDistance(t *testing.T) {
	a := rect([]float64{0, 0}, []float64{2, 2})
	b := rect([]float64{4, 0}, []float64{6, 2})
	ca, cb := a.Center(make([]float64, 2)), b.Center(make([]float64, 2))
	if ca[0] != 1 || ca[1] != 1 {
		t.Errorf("Center = %v", ca)
	}
	if d := cb[0] - ca[0]; d != 4 || cb[1] != ca[1] {
		t.Errorf("centers %v and %v, want 4 apart on the first axis", ca, cb)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := rect([]float64{0, 0}, []float64{1, 1})
	c := a.Clone()
	c.Min[0] = -9
	if a.Min[0] == -9 {
		t.Error("Clone aliases storage")
	}
}

func TestNegativeSideArea(t *testing.T) {
	// The inverted (empty) rect has negative sides: it holds no point and
	// meets no rect.
	e := EmptyRect(2)
	if !math.IsInf(e.Min[0], 1) || !math.IsInf(e.Max[0], -1) {
		t.Error("empty rect bounds should be +inf..-inf")
	}
	if e.ContainsPoint([]float64{0, 0}) || e.Intersects(rect([]float64{-1, -1}, []float64{1, 1})) {
		t.Error("empty rect holds a point or meets a rect")
	}
}

func TestOnBoundary(t *testing.T) {
	b := rect([]float64{0, 0}, []float64{4, 4})
	if rect([]float64{1, 1}, []float64{3, 3}).onBoundary(b) {
		t.Error("interior rect reported on the boundary")
	}
	for _, r := range []Rect{
		rect([]float64{0, 1}, []float64{1, 2}),
		rect([]float64{1, 1}, []float64{4, 2}),
		rect([]float64{2, 4}, []float64{2, 4}),
	} {
		if !r.onBoundary(b) {
			t.Errorf("%v touches a face of %v", r, b)
		}
	}
}

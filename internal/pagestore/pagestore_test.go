package pagestore

import (
	"strings"
	"testing"
)

func TestAllocate(t *testing.T) {
	a := New(4096, 0)
	id1, pages1 := a.Allocate(1)
	if pages1 != 1 {
		t.Errorf("1 byte should take 1 page, got %d", pages1)
	}
	id2, pages2 := a.Allocate(4097)
	if pages2 != 2 {
		t.Errorf("4097 bytes should take 2 pages, got %d", pages2)
	}
	if id2 != id1+PageID(pages1) {
		t.Errorf("allocations should be contiguous: %d then %d", id1, id2)
	}
	id3, pages3 := a.Allocate(0)
	if pages3 != 1 {
		t.Errorf("zero bytes still reserves one page, got %d", pages3)
	}
	if id3 != id2+2 {
		t.Errorf("id3 = %d", id3)
	}
}

func TestDefaultPageSize(t *testing.T) {
	a := New(0, 0)
	if a.PageSize() != DefaultPageSize {
		t.Errorf("PageSize = %d", a.PageSize())
	}
}

func TestUnbufferedTouchCountsEverything(t *testing.T) {
	a := New(4096, 0)
	id, _ := a.Allocate(1)
	r := a.NewReader()
	r.Touch(id)
	r.Touch(id)
	r.Touch(id)
	if got := r.Stats().Accesses; got != 3 {
		t.Errorf("Accesses = %d, want 3", got)
	}
	if got := r.Stats().Hits; got != 0 {
		t.Errorf("Hits = %d, want 0", got)
	}
}

func TestBufferedTouchAbsorbsRepeats(t *testing.T) {
	a := New(4096, 8)
	id, _ := a.Allocate(1)
	r := a.NewReader()
	r.Touch(id)
	r.Touch(id)
	r.Touch(id)
	s := r.Stats()
	if s.Accesses != 1 || s.Hits != 2 {
		t.Errorf("stats = %+v, want 1 access 2 hits", s)
	}
}

func TestTouchRange(t *testing.T) {
	a := New(4096, 0)
	id, pages := a.Allocate(3 * 4096)
	r := a.NewReader()
	r.TouchRange(id, pages)
	if got := r.Stats().Accesses; got != 3 {
		t.Errorf("Accesses = %d, want 3", got)
	}
}

func TestChargeBytes(t *testing.T) {
	a := New(1024, 0)
	id, _ := a.Allocate(5000)
	r := a.NewReader()
	r.ChargeBytes(id, 2500)
	if got := r.Stats().Accesses; got != 3 {
		t.Errorf("Accesses = %d, want 3 (2500B over 1KiB pages)", got)
	}
	r.ChargeBytes(id, 0)
	if got := r.Stats().Accesses; got != 4 {
		t.Errorf("zero bytes should still touch one page, got %d", got)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Accesses: 5, Hits: 2}
	if got := s.String(); !strings.Contains(got, "accesses=5") || !strings.Contains(got, "hits=2") {
		t.Errorf("String = %q", got)
	}
}

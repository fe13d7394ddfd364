package pagestore

import (
	"math/rand"
	"sync"
	"testing"
)

func TestReaderCountsIndependently(t *testing.T) {
	acc := New(128, 4)
	id, _ := acc.Allocate(10 * 128)

	r1 := acc.NewReader()
	r2 := acc.NewReader()
	r1.Touch(id)
	r1.Touch(id + 1)
	r2.Touch(id)

	if got := r1.Stats().Accesses; got != 2 {
		t.Fatalf("r1 accesses = %d, want 2", got)
	}
	if got := r2.Stats().Accesses; got != 1 {
		t.Fatalf("r2 accesses = %d, want 1", got)
	}
}

// pageModel is the reference page counter: the pages one reader touched,
// with repeats.
type pageModel struct {
	touches  uint64
	distinct map[PageID]bool
}

func (m *pageModel) touch(id PageID) {
	m.touches++
	m.distinct[id] = true
}

// want is the Stats a reader holding m's touches must report.
func (m *pageModel) want(buffered bool) Stats {
	if !buffered {
		return Stats{Accesses: m.touches}
	}
	d := uint64(len(m.distinct))
	return Stats{Accesses: d, Hits: m.touches - d}
}

// TestReaderCountsDistinctPages checks readers against the map model on
// seeded random traces of Touch, TouchRange and ChargeBytes spread over a
// root reader and its SubReaders, nested ones included (a SubReader of a
// SubReader): a buffered reader's Accesses is the number of distinct pages
// it touched and Hits the rest of its touches; an unbuffered reader's
// Accesses is every touch. Each SubReader starts empty (a page its parent
// touched is an access again), and AddStats merges the units' counters
// into the root in order. Page IDs mix a dense low range with sparse IDs
// up to 1<<20 and a cluster just below it, so the bitset window grows
// upward, downward and across word boundaries.
func TestReaderCountsDistinctPages(t *testing.T) {
	const pageSize = 64
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		for _, bufferPages := range []int{0, 4} {
			buffered := bufferPages > 0
			root := New(pageSize, bufferPages).NewReader()
			readers := []*Reader{root}
			models := []*pageModel{{distinct: map[PageID]bool{}}}
			for op := rng.Intn(120); op > 0; op-- {
				if rng.Intn(8) == 0 {
					parent := readers[rng.Intn(len(readers))]
					readers = append(readers, parent.SubReader())
					models = append(models, &pageModel{distinct: map[PageID]bool{}})
				}
				k := rng.Intn(len(readers))
				r, m := readers[k], models[k]
				var id PageID
				switch rng.Intn(4) {
				case 0, 1:
					id = PageID(1 + rng.Intn(24))
				case 2:
					id = PageID(1<<20 - 70 + rng.Intn(80))
				case 3:
					id = PageID(1 + rng.Intn(1<<20))
				}
				switch rng.Intn(3) {
				case 0:
					r.Touch(id)
					m.touch(id)
				case 1:
					pages := rng.Intn(4)
					r.TouchRange(id, pages)
					for p := 0; p < pages; p++ {
						m.touch(id + PageID(p))
					}
				case 2:
					n := rng.Intn(4 * pageSize)
					r.ChargeBytes(id, n)
					for p := 0; p < max(1, (n+pageSize-1)/pageSize); p++ {
						m.touch(id + PageID(p))
					}
				}
			}
			total := models[0].want(buffered)
			for k, r := range readers {
				want := models[k].want(buffered)
				if got := r.Stats(); got != want {
					t.Fatalf("trial %d buffered=%v reader %d: %v, want %v", trial, buffered, k, got, want)
				}
				if k > 0 {
					total.Accesses += want.Accesses
					total.Hits += want.Hits
				}
			}
			for _, r := range readers[1:] {
				root.AddStats(r.Stats())
			}
			if got := root.Stats(); got != total {
				t.Fatalf("trial %d buffered=%v merged: %v, want %v", trial, buffered, got, total)
			}
		}
	}
}

func TestReaderChargeBytes(t *testing.T) {
	r := New(100, 0).NewReader()
	r.ChargeBytes(1, 250) // 3 pages
	r.ChargeBytes(10, 0)  // minimum 1 page
	if got := r.Stats().Accesses; got != 4 {
		t.Fatalf("accesses = %d, want 4", got)
	}
	if r.PageSize() != 100 {
		t.Fatalf("page size = %d, want 100", r.PageSize())
	}
}

func TestSubReaderMergesBack(t *testing.T) {
	root := New(128, 4).NewReader()
	root.Touch(1)

	var wg sync.WaitGroup
	subs := make([]*Reader, 8)
	for i := range subs {
		subs[i] = root.SubReader()
		wg.Add(1)
		go func(r *Reader, base PageID) {
			defer wg.Done()
			// Second touch of the same page is a buffer hit.
			r.Touch(base)
			r.Touch(base)
		}(subs[i], PageID(100+i))
	}
	wg.Wait()
	for _, s := range subs {
		root.AddStats(s.Stats())
	}
	st := root.Stats()
	if st.Accesses != 1+8 {
		t.Fatalf("accesses = %d, want 9", st.Accesses)
	}
	if st.Hits != 8 {
		t.Fatalf("hits = %d, want 8", st.Hits)
	}
}

func TestSubReaderBufferIsCold(t *testing.T) {
	root := New(128, 4).NewReader()
	root.Touch(42) // now hot in root's buffer
	sub := root.SubReader()
	sub.Touch(42)
	if got := sub.Stats().Accesses; got != 1 {
		t.Fatalf("sub reader inherited a warm buffer: accesses = %d, want 1", got)
	}
	if got := sub.Stats().Hits; got != 0 {
		t.Fatalf("sub reader hits = %d, want 0", got)
	}
}

func TestUnbufferedReaderNeverHits(t *testing.T) {
	r := New(64, 0).NewReader()
	for i := 0; i < 5; i++ {
		r.Touch(3)
	}
	st := r.Stats()
	if st.Accesses != 5 || st.Hits != 0 {
		t.Fatalf("stats = %v, want 5 accesses, 0 hits", st)
	}
}

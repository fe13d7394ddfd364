package pagestore

import "fmt"

// Store is a byte-addressable simulated disk layered over an Accountant:
// page IDs come from the accountant's single allocation namespace (so
// index nodes and heap data never share a page), and every read both
// moves real bytes and charges page accesses to the caller's Reader. The
// matrix column heap reads its vectors from here during query refinement,
// making the reported I/O cost correspond to genuine data movement.
//
// Not safe for concurrent use with Append.
type Store struct {
	acc  *Accountant
	runs map[PageID][]byte // run base page ID → run contents
}

// NewStore returns an empty store allocating from acc (required).
func NewStore(acc *Accountant) *Store {
	if acc == nil {
		panic("pagestore: NewStore requires an accountant")
	}
	return &Store{acc: acc, runs: make(map[PageID][]byte)}
}

// Append stores data in a freshly allocated page run and returns its base
// PageID. The bytes are copied.
func (s *Store) Append(data []byte) PageID {
	id, _ := s.acc.Allocate(len(data))
	buf := make([]byte, len(data))
	copy(buf, data)
	s.runs[id] = buf
	return id
}

// ViewTo returns length bytes starting at byte offset off within the run
// based at id, charging one touch per page they span to r. The result is
// a read-only window into the run, valid for as long as the run is
// (callers must not write through it). Runs are immutable once appended,
// so concurrent ViewTo calls with distinct Readers are safe as long as no
// Append runs concurrently.
func (s *Store) ViewTo(r *Reader, id PageID, off, length int) ([]byte, error) {
	run, ok := s.runs[id]
	if !ok {
		return nil, fmt.Errorf("pagestore: no run at page %d", id)
	}
	if off < 0 || length < 0 || off+length > len(run) {
		return nil, fmt.Errorf("pagestore: read [%d,%d) out of run of %d bytes", off, off+length, len(run))
	}
	ps := r.PageSize()
	firstPage := off / ps
	lastPage := firstPage
	if length > 0 {
		lastPage = (off + length - 1) / ps
	}
	for p := firstPage; p <= lastPage; p++ {
		r.Touch(id + PageID(p))
	}
	return run[off : off+length : off+length], nil
}

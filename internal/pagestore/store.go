package pagestore

import "fmt"

// Store is a byte-addressable simulated disk layered over an Accountant:
// page IDs come from the accountant's single allocation namespace (so
// index nodes and heap data never collide in the buffer pool), and every
// read both moves real bytes and charges page accesses. The matrix column
// heap reads its vectors from here during query refinement, making the
// reported I/O cost correspond to genuine data movement.
//
// Not safe for concurrent use.
type Store struct {
	acc  *Accountant
	runs map[PageID][]byte // run base page ID → run contents
}

// NewStore returns an empty store charging to acc (required).
func NewStore(acc *Accountant) *Store {
	if acc == nil {
		panic("pagestore: NewStore requires an accountant")
	}
	return &Store{acc: acc, runs: make(map[PageID][]byte)}
}

// PageSize returns the accountant's page size.
func (s *Store) PageSize() int { return s.acc.PageSize() }

// Append stores data in a freshly allocated page run and returns its base
// PageID. The bytes are copied.
func (s *Store) Append(data []byte) PageID {
	id, _ := s.acc.Allocate(len(data))
	buf := make([]byte, len(data))
	copy(buf, data)
	s.runs[id] = buf
	return id
}

// RunLength returns the byte length of the run at id, or -1 if unknown.
func (s *Store) RunLength(id PageID) int {
	if run, ok := s.runs[id]; ok {
		return len(run)
	}
	return -1
}

// ReadAt copies length bytes starting at byte offset off within the run
// based at id into dst, charging one access per touched page against the
// store's own accountant. Query paths that need per-query accounting use
// ReadAtTo with a Reader instead.
func (s *Store) ReadAt(id PageID, off, length int, dst []byte) error {
	return s.ReadAtTo(s.acc, id, off, length, dst)
}

// ReadAtTo is ReadAt with the page charges billed to an explicit Toucher
// (typically a per-query Reader). The run contents themselves are
// immutable once appended, so concurrent ReadAtTo calls with distinct
// Touchers are safe as long as no Append runs concurrently.
func (s *Store) ReadAtTo(to Toucher, id PageID, off, length int, dst []byte) error {
	if len(dst) < length {
		return fmt.Errorf("pagestore: destination smaller than read length")
	}
	src, err := s.ViewTo(to, id, off, length)
	if err != nil {
		return err
	}
	copy(dst, src)
	return nil
}

// ViewTo charges the same page touches as ReadAtTo and returns the bytes in
// place instead of copying them: a read-only window into the run, valid for
// as long as the run is (callers must not write through it). Decoders that
// consume the bytes once use it to skip the staging buffer.
func (s *Store) ViewTo(to Toucher, id PageID, off, length int) ([]byte, error) {
	run, ok := s.runs[id]
	if !ok {
		return nil, fmt.Errorf("pagestore: no run at page %d", id)
	}
	if off < 0 || length < 0 || off+length > len(run) {
		return nil, fmt.Errorf("pagestore: read [%d,%d) out of run of %d bytes", off, off+length, len(run))
	}
	ps := to.PageSize()
	firstPage := off / ps
	lastPage := firstPage
	if length > 0 {
		lastPage = (off + length - 1) / ps
	}
	for p := firstPage; p <= lastPage; p++ {
		to.Touch(id + PageID(p))
	}
	return run[off : off+length : off+length], nil
}

// Runs returns the number of stored runs.
func (s *Store) Runs() int { return len(s.runs) }

// Package pagestore simulates the disk layer of the paper's evaluation:
// fixed-size pages, an allocator that lays objects (index nodes, matrix
// column ranges) out over page ranges, and per-query readers that count
// page accesses — the I/O-cost metric of Section 6.
//
// The Accountant only allocates: it owns the page size and the page-ID
// namespace. Every query draws a private Reader from it, and the Reader
// is the one page counter. A buffered reader counts the distinct pages it
// touched as accesses and every repeat touch as a buffer hit, the way a
// buffer pool large enough for one query's working set absorbs repeats.
// An unbuffered reader counts every touch as an access. Those per-query
// numbers surface as Stats.IOCost/IOHits in query results and feed the
// imgrn_reader_* metric families (DESIGN.md §8).
package pagestore

import "fmt"

// PageID identifies one fixed-size page.
type PageID uint64

// DefaultPageSize is the classic 4 KiB database page.
const DefaultPageSize = 4096

// Stats is one reader's I/O accounting.
type Stats struct {
	// Accesses is the number of page accesses that went to "disk": the
	// distinct pages touched, or every touch when unbuffered.
	Accesses uint64
	// Hits counts repeat touches absorbed by the buffer.
	Hits uint64
}

// Accountant allocates pages and hands out per-query Readers. The zero
// value is not usable; call New. Not safe for concurrent use.
type Accountant struct {
	pageSize int
	next     PageID
	buffered bool
}

// New returns an accountant with the given page size. A positive
// bufferPages makes its readers absorb repeat touches of a page as buffer
// hits; 0 makes every touch an access.
func New(pageSize, bufferPages int) *Accountant {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Accountant{pageSize: pageSize, next: 1, buffered: bufferPages > 0}
}

// PageSize returns the configured page size in bytes.
func (a *Accountant) PageSize() int { return a.pageSize }

// Allocate reserves a contiguous run of pages able to hold n bytes and
// returns its first PageID along with the page count (at least 1).
func (a *Accountant) Allocate(n int) (PageID, int) {
	pages := (n + a.pageSize - 1) / a.pageSize
	if pages < 1 {
		pages = 1
	}
	id := a.next
	a.next += PageID(pages)
	return id, pages
}

// NewReader returns a per-query reader with private counters and, when
// buffered, an empty set of touched pages. Concurrent queries each hold
// their own Reader, so they account I/O independently, and a fresh Reader
// reports the paper's per-query I/O cost (Section 6.1).
func (a *Accountant) NewReader() *Reader {
	return newReader(a.pageSize, a.buffered)
}

// Reader is one query's I/O accounting view. It is intentionally cheap and
// unsynchronized: a Reader must not be shared across goroutines. Parallel
// workers within one query derive a SubReader each and merge the counters
// back with AddStats once the fan-out has been gathered.
//
// A buffered reader keeps the pages it touched as a bitset over a window
// of page IDs, grown on demand: the Accountant hands out IDs densely from
// 1, so a query's pages fall in a short range, and a SubReader, which
// reads one candidate's heap pages, holds a word or two.
type Reader struct {
	pageSize int
	stats    Stats
	buffered bool
	seen     []uint64 // bit id%64 of seen[id/64-base]: page id was touched
	base     uint64
}

func newReader(pageSize int, buffered bool) *Reader {
	return &Reader{pageSize: pageSize, buffered: buffered}
}

// PageSize returns the page size inherited from the accountant.
func (r *Reader) PageSize() int { return r.pageSize }

// Touch records one access of page id against this reader.
func (r *Reader) Touch(id PageID) {
	if r.buffered {
		w, bit := uint64(id)>>6, uint64(1)<<(id&63)
		if w-r.base >= uint64(len(r.seen)) { // below base too: the difference wraps
			r.grow(w)
		}
		p := &r.seen[w-r.base]
		if *p&bit != 0 {
			r.stats.Hits++
			return
		}
		*p |= bit
	}
	r.stats.Accesses++
}

// grow widens the bitset window to cover word w, at least doubling it so
// that a run of touches past either end reallocates O(log n) times.
func (r *Reader) grow(w uint64) {
	if len(r.seen) == 0 {
		r.base = w
	}
	lo, hi := min(r.base, w), max(r.base+uint64(len(r.seen)), w+1)
	if n := 2 * uint64(len(r.seen)); hi-lo < n {
		if w < r.base {
			lo = hi - min(n, hi) // extend downward, not below word 0
		} else {
			hi = lo + n
		}
	}
	seen := make([]uint64, hi-lo)
	copy(seen[r.base-lo:], r.seen)
	r.seen, r.base = seen, lo
}

// TouchRange records an access of each page in [id, id+pages).
func (r *Reader) TouchRange(id PageID, pages int) {
	for k := 0; k < pages; k++ {
		r.Touch(id + PageID(k))
	}
}

// ChargeBytes charges the accesses required to read n bytes starting at
// the beginning of the object rooted at id.
func (r *Reader) ChargeBytes(id PageID, n int) {
	pages := (n + r.pageSize - 1) / r.pageSize
	if pages < 1 {
		pages = 1
	}
	r.TouchRange(id, pages)
}

// Stats returns a snapshot of the reader's counters.
func (r *Reader) Stats() Stats { return r.stats }

// SubReader derives a reader with the same page size and buffering but
// zero counters and no touched pages, for use by one parallel worker
// unit. Each unit's counters are a pure function of the work unit itself,
// so merged totals are independent of the goroutine schedule.
func (r *Reader) SubReader() *Reader {
	return newReader(r.pageSize, r.buffered)
}

// AddStats merges the counters of a finished SubReader (or any Stats
// snapshot) into this reader.
func (r *Reader) AddStats(s Stats) {
	r.stats.Accesses += s.Accesses
	r.stats.Hits += s.Hits
}

// String renders the stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d hits=%d", s.Accesses, s.Hits)
}

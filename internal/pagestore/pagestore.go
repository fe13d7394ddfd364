// Package pagestore simulates the disk layer of the paper's evaluation:
// fixed-size pages, an allocator that lays objects (index nodes, matrix
// column ranges) out over page ranges, and an accountant that counts page
// accesses — the I/O-cost metric of Section 6 — optionally through an LRU
// buffer pool so that repeated touches of a hot page are absorbed the way a
// DBMS buffer manager would absorb them.
//
// Queries draw private Readers from a shared Accountant: each reader
// carries its own counters (and a cold buffer of the accountant's
// capacity), so concurrent queries report independent I/O statistics.
// Those per-query numbers surface as Stats.IOCost/IOHits in query
// results and feed the imgrn_reader_* metric families (DESIGN.md §8).
package pagestore

import "fmt"

// PageID identifies one fixed-size page.
type PageID uint64

// DefaultPageSize is the classic 4 KiB database page.
const DefaultPageSize = 4096

// Stats aggregates I/O accounting.
type Stats struct {
	// Accesses is the number of page accesses that went to "disk"
	// (buffer-pool misses, or every touch when no buffer is configured).
	Accesses uint64
	// Hits counts touches absorbed by the buffer pool.
	Hits uint64
	// Allocated is the total number of pages handed out.
	Allocated uint64
}

// Accountant allocates pages and tracks page accesses, optionally through
// an LRU buffer pool. The zero value is not usable; call New.
// Not safe for concurrent use.
type Accountant struct {
	pageSize int
	next     PageID
	stats    Stats
	lru      *lruCache // nil means unbuffered: every touch is an access
}

// New returns an accountant with the given page size and buffer pool
// capacity in pages (0 disables buffering).
func New(pageSize, bufferPages int) *Accountant {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	a := &Accountant{pageSize: pageSize, next: 1}
	if bufferPages > 0 {
		a.lru = newLRU(bufferPages)
	}
	return a
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
	a.stats.Allocated += uint64(pages)
	return id, pages
}

// Touch records one access of page id.
func (a *Accountant) Touch(id PageID) {
	if a.lru != nil && a.lru.touch(id) {
		a.stats.Hits++
		return
	}
	a.stats.Accesses++
}

// TouchRange records an access of each page in [id, id+pages).
func (a *Accountant) TouchRange(id PageID, pages int) {
	for k := 0; k < pages; k++ {
		a.Touch(id + PageID(k))
	}
}

// ChargeBytes charges the accesses required to read n bytes starting at
// the beginning of the object rooted at id.
func (a *Accountant) ChargeBytes(id PageID, n int) {
	pages := (n + a.pageSize - 1) / a.pageSize
	if pages < 1 {
		pages = 1
	}
	a.TouchRange(id, pages)
}

// Stats returns a snapshot of the counters.
func (a *Accountant) Stats() Stats { return a.stats }

// Toucher counts page accesses. Both *Accountant and *Reader implement it,
// so charged read paths (Store.ReadAtTo, rstar.TouchNode) can bill either
// the global accountant or a per-query reader.
type Toucher interface {
	Touch(id PageID)
	TouchRange(id PageID, pages int)
	PageSize() int
}

// NewReader returns a per-query view of the accountant: a Reader with
// private access/hit counters and a private buffer pool of the same
// capacity as the accountant's. Concurrent queries each hold their own
// Reader, so they account I/O independently instead of sharing one mutable
// counter. A fresh Reader starts with a cold buffer, which preserves the
// paper's per-query I/O-cost metric (Section 6.1): it reports exactly what
// Touch-after-ResetStats reported when queries were serialized.
func (a *Accountant) NewReader() *Reader {
	r := &Reader{pageSize: a.pageSize}
	if a.lru != nil {
		r.bufferPages = a.lru.capacity
		r.lru = newLRU(a.lru.capacity)
	}
	return r
}

// Reader is one query's I/O accounting view. It is intentionally cheap and
// unsynchronized: a Reader must not be shared across goroutines. Parallel
// workers within one query derive a SubReader each and merge the counters
// back with AddStats once the fan-out has been gathered.
type Reader struct {
	pageSize    int
	bufferPages int
	stats       Stats
	lru         *lruCache // nil means unbuffered
}

// PageSize returns the page size inherited from the accountant.
func (r *Reader) PageSize() int { return r.pageSize }

// Touch records one access of page id against this reader.
func (r *Reader) Touch(id PageID) {
	if r.lru != nil && r.lru.touch(id) {
		r.stats.Hits++
		return
	}
	r.stats.Accesses++
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

// SubReader derives a reader with the same page size and buffer capacity
// but fresh (zero) counters and a cold private buffer, for use by one
// parallel worker unit. Each unit's counters are a pure function of the
// work unit itself, so merged totals are independent of the goroutine
// schedule.
func (r *Reader) SubReader() *Reader {
	s := &Reader{pageSize: r.pageSize, bufferPages: r.bufferPages}
	if r.bufferPages > 0 {
		s.lru = newLRU(r.bufferPages)
	}
	return s
}

// AddStats merges the counters of a finished SubReader (or any Stats
// snapshot) into this reader.
func (r *Reader) AddStats(s Stats) {
	r.stats.Accesses += s.Accesses
	r.stats.Hits += s.Hits
	r.stats.Allocated += s.Allocated
}

// ResetStats zeroes the access/hit counters (allocation count is kept) and
// drops the buffer contents, so per-query I/O can be measured from a cold
// buffer as the paper does.
func (a *Accountant) ResetStats() {
	a.stats.Accesses = 0
	a.stats.Hits = 0
	if a.lru != nil {
		a.lru.reset()
	}
}

// String renders the stats for reports.
func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d hits=%d allocated=%d", s.Accesses, s.Hits, s.Allocated)
}

// lruCache is a minimal intrusive LRU set of PageIDs.
type lruCache struct {
	capacity int
	nodes    map[PageID]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
}

type lruNode struct {
	id         PageID
	prev, next *lruNode
}

// newLRU returns an empty cache. The map grows with use instead of being
// sized to capacity: every query (and every parallel work unit) opens a
// cold reader, and most touch a small fraction of the buffer's capacity.
func newLRU(capacity int) *lruCache {
	return &lruCache{capacity: capacity, nodes: make(map[PageID]*lruNode)}
}

// touch returns true when id was already cached (a buffer hit); otherwise
// it inserts id, evicting the LRU entry if full, and returns false.
func (c *lruCache) touch(id PageID) bool {
	if n, ok := c.nodes[id]; ok {
		c.moveToFront(n)
		return true
	}
	n := &lruNode{id: id}
	c.nodes[id] = n
	c.pushFront(n)
	if len(c.nodes) > c.capacity {
		evict := c.tail
		c.unlink(evict)
		delete(c.nodes, evict.id)
	}
	return false
}

func (c *lruCache) reset() {
	clear(c.nodes)
	c.head, c.tail = nil, nil
}

func (c *lruCache) pushFront(n *lruNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *lruCache) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *lruCache) moveToFront(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

package core

import "github.com/imgrn/imgrn/internal/rstar"

// levelQueue is the traversal priority queue: one FIFO per key, popped
// lowest key first. The key is the node level, so deeper pairs pop first
// (depth-first descent), and within a level pairs pop in insertion order.
// That total (key, insertion sequence) order fixes the pop sequence, on
// which NodePairsVisited and the page-touch order rest. Keys are tree
// levels, so a pop scans a handful of buckets. The buckets live in the
// pooled query scratch and are reused across queries.
type levelQueue struct {
	buckets []levelBucket // by key
	low     int           // no bucket below low holds a pair
	n       int
}

// levelBucket is one key's FIFO: the pairs items[head:] wait.
type levelBucket struct {
	items []nodePair
	head  int
}

// reset empties the queue, dropping references a cancelled descent left
// behind.
func (q *levelQueue) reset() {
	for k := range q.buckets {
		b := &q.buckets[k]
		clear(b.items)
		b.items, b.head = b.items[:0], 0
	}
	q.low, q.n = 0, 0
}

func (q *levelQueue) len() int { return q.n }

// push appends v to the FIFO of key, which must not be negative.
func (q *levelQueue) push(key int, v nodePair) {
	for len(q.buckets) <= key {
		q.buckets = append(q.buckets, levelBucket{})
	}
	b := &q.buckets[key]
	b.items = append(b.items, v)
	q.low = min(q.low, key)
	q.n++
}

// pop removes the oldest pair of the lowest non-empty key; the queue must
// not be empty.
func (q *levelQueue) pop() (key int, v nodePair) {
	for q.buckets[q.low].head == len(q.buckets[q.low].items) {
		q.low++
	}
	b := &q.buckets[q.low]
	v = b.items[b.head]
	b.items[b.head] = nodePair{} // the pooled slice must not pin tree nodes
	if b.head++; b.head == len(b.items) {
		b.items, b.head = b.items[:0], 0
	}
	q.n--
	return q.low, v
}

// nodePair is a pair of same-level index nodes that may contain an
// interacting (query gene, neighbor gene) pair.
type nodePair struct{ a, b *rstar.Node }

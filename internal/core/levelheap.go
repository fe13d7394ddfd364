package core

import "github.com/imgrn/imgrn/internal/rstar"

// levelHeap is the traversal priority queue: a slice-backed binary min-heap
// ordered by (key, insertion sequence). The key is the node level, so
// deeper pairs pop first (depth-first descent); the sequence number makes
// the order total, so the pop sequence is the same for any correct heap —
// in particular the one container/heap produced. The backing slice lives in
// the pooled query scratch and is reused across queries.
type levelHeap struct {
	items []heapItem
	seq   int
}

type heapItem struct {
	key, seq int
	val      nodePair
}

func (h *levelHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// reset empties the heap, dropping references a cancelled descent left
// behind.
func (h *levelHeap) reset() {
	clear(h.items)
	h.items = h.items[:0]
	h.seq = 0
}

func (h *levelHeap) len() int { return len(h.items) }

func (h *levelHeap) push(key int, v nodePair) {
	h.items = append(h.items, heapItem{key: key, seq: h.seq, val: v})
	h.seq++
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *levelHeap) pop() (key int, v nodePair) {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = heapItem{} // the pooled slice must not pin tree nodes
	h.items = h.items[:n]
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && h.less(l, min) {
			min = l
		}
		if r := 2*i + 2; r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
	return top.key, top.val
}

// nodePair is a pair of same-level index nodes that may contain an
// interacting (query gene, neighbor gene) pair.
type nodePair struct{ a, b *rstar.Node }

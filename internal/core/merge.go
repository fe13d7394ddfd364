package core

import "sort"

// K-way answer merging (DESIGN.md §11.4).
//
// Each shard of the scatter-gather path returns its answers sorted by
// Source ascending (placement partitions the sources, but the merge does
// not rely on that: duplicates are kept in run order). The gather step
// used to append every run into one slice and re-sort it from scratch; a
// loser-tree merge does the same job in one O(total · log k) streaming
// pass, emitting answers in final order as soon as every run's head is
// known — which is what lets a downstream consumer (e.g. a top-k floor)
// observe answers incrementally instead of after the full sort.

// MergeScatterStats folds the per-shard stats of one scatter into the
// aggregate query stats. Counters and I/O sum; stage durations sum too,
// so like the Workers>1 refinement sub-stages they are aggregate
// across-shard time and may exceed the query's wall-clock Total. Shared
// by the in-process coordinator and the networked cluster coordinator so
// both report the same aggregate shape.
func MergeScatterStats(st *Stats, shards []Stats) {
	answers := 0
	for _, s := range shards {
		st.Traversal += s.Traversal
		st.Refinement += s.Refinement
		st.MarkovPrune += s.MarkovPrune
		st.MonteCarlo += s.MonteCarlo
		st.IOCost += s.IOCost
		st.IOHits += s.IOHits
		st.NodePairsVisited += s.NodePairsVisited
		st.NodePairsPruned += s.NodePairsPruned
		st.PointPairsChecked += s.PointPairsChecked
		st.PointPairsPruned += s.PointPairsPruned
		st.CandidateGenes += s.CandidateGenes
		st.CandidateMatrices += s.CandidateMatrices
		st.MatricesPrunedL5 += s.MatricesPrunedL5
		st.CacheHits += s.CacheHits
		st.CacheMisses += s.CacheMisses
		st.Draws += s.Draws
		answers += s.Answers
	}
	// The merge may have trimmed (top-k): report what the shards produced;
	// the caller's answer slice is authoritative for the final count.
	st.Answers = answers
}

// RankAnswers orders answers by probability descending, ties toward
// smaller source IDs — the canonical top-k ranking, shared by the public
// facade and the sharded coordinator.
func RankAnswers(answers []Answer) {
	sort.SliceStable(answers, func(i, j int) bool {
		if answers[i].Prob != answers[j].Prob {
			return answers[i].Prob > answers[j].Prob
		}
		return answers[i].Source < answers[j].Source
	})
}

// MergeAnswerRuns merges runs — each already sorted by Source ascending —
// into a single Source-ascending slice. Answers with equal Source are
// emitted in run order (lower run index first), so the result is exactly
// what appending all runs and stable-sorting by Source would produce.
func MergeAnswerRuns(runs [][]Answer) []Answer {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if total == 0 {
		return nil
	}
	out := make([]Answer, 0, total)
	MergeAnswerRunsFunc(runs, func(a Answer) bool {
		out = append(out, a)
		return true
	})
	return out
}

// MergeAnswerRunsFunc streams the merge of MergeAnswerRuns: yield receives
// the answers in merged order and may return false to stop early (e.g.
// once a top-k consumer's floor proves the tail irrelevant).
func MergeAnswerRunsFunc(runs [][]Answer, yield func(Answer) bool) {
	switch len(runs) {
	case 0:
		return
	case 1:
		for _, a := range runs[0] {
			if !yield(a) {
				return
			}
		}
		return
	}
	m := newAnswerMerger(runs)
	for {
		w := m.tree[0]
		if m.pos[w] >= len(m.runs[w]) {
			return // the overall winner is exhausted: all runs are drained
		}
		a := m.runs[w][m.pos[w]]
		m.pos[w]++
		if !yield(a) {
			return
		}
		m.replay(w)
	}
}

// answerMerger is a loser tree over k runs, laid out as an implicit
// complete binary tree of 2k slots: internal nodes 1..k-1 each hold the
// losing run of the match between their subtrees' winners, node 0 holds
// the overall winner, and leaf slot k+r stands for run r (the run's
// current head is runs[r][pos[r]]). Advancing the winner and replaying
// its leaf-to-root path costs O(log k) comparisons per emitted answer.
type answerMerger struct {
	runs [][]Answer
	pos  []int
	tree []int // [0] = winner run; [1..k-1] = loser runs
	k    int
}

func newAnswerMerger(runs [][]Answer) *answerMerger {
	k := len(runs)
	m := &answerMerger{runs: runs, pos: make([]int, k), tree: make([]int, k), k: k}
	m.tree[0] = m.build(1)
	return m
}

// build runs the initial tournament below node, storing losers and
// returning the subtree's winning run.
func (m *answerMerger) build(node int) int {
	if node >= m.k {
		return node - m.k // leaf slot → run index
	}
	l := m.build(2 * node)
	r := m.build(2*node + 1)
	if m.beats(l, r) {
		m.tree[node] = r
		return l
	}
	m.tree[node] = l
	return r
}

// replay re-runs the matches on run r's leaf-to-root path after its head
// advanced: at each node the current winner plays the stored loser, the
// loser of that match stays in the node, and the winner moves up.
func (m *answerMerger) replay(r int) {
	winner := r
	for node := (r + m.k) / 2; node >= 1; node /= 2 {
		if m.beats(m.tree[node], winner) {
			winner, m.tree[node] = m.tree[node], winner
		}
	}
	m.tree[0] = winner
}

// beats reports whether run a's head precedes run b's head in the merged
// order: smaller Source first, ties toward the lower run index (the
// stable append-order tie-break). An exhausted run loses to everything.
func (m *answerMerger) beats(a, b int) bool {
	if m.pos[a] >= len(m.runs[a]) || m.pos[b] >= len(m.runs[b]) {
		return m.pos[b] >= len(m.runs[b]) && m.pos[a] < len(m.runs[a])
	}
	x, y := &m.runs[a][m.pos[a]], &m.runs[b][m.pos[b]]
	if x.Source != y.Source {
		return x.Source < y.Source
	}
	return a < b
}

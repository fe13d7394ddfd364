package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// TopKSink is a bounded top-k answer merge shared by the concurrent
// producers of one sharded query (DESIGN.md §10). Each shard streams its
// verified answers into the sink; the sink keeps only the best k by
// (probability descending, source ascending) and publishes a monotone
// "floor" — the largest effective α under which no top-k answer can be
// lost. Refinement loops consult the floor to tighten their Lemma-5 and
// running-product cutoffs mid-query: once k answers with probability ≥ θ
// exist, any candidate whose upper bound falls below θ can never displace
// them, so a shard whose best remaining upper bound is under the floor
// terminates early (the cross-shard Markov-bound early-termination rule).
//
// The floor is the largest float64 strictly below the current k-th
// probability, so a candidate tied with the k-th answer still verifies
// (probability comparisons in refinement are strict, and ties break toward
// smaller source IDs in the final ranking). Safe for concurrent use.
type TopKSink struct {
	k     int
	alpha float64       // the query's base α; the floor never drops below it
	floor atomic.Uint64 // math.Float64bits of the current effective α

	mu      sync.Mutex
	answers []Answer // sorted by (Prob desc, Source asc), len <= k

	// onAccept, when set, observes every answer that enters the top-k set
	// at the moment of insertion (it may later be displaced). A shard
	// server uses it to stream accepted answers to the remote coordinator
	// so the cross-shard floor can propagate mid-query. Called with the sink
	// lock held: the callback must not call back into the sink.
	onAccept func(Answer)
}

// NewTopKSink returns a sink keeping the best k answers, with the query's
// base α as the initial floor. k must be positive.
func NewTopKSink(k int, alpha float64) *TopKSink {
	s := &TopKSink{k: k, alpha: alpha}
	s.floor.Store(math.Float64bits(alpha))
	return s
}

// K returns the sink's capacity.
func (s *TopKSink) K() int { return s.k }

// Alpha returns the query's base α the sink was built with.
func (s *TopKSink) Alpha() float64 { return s.alpha }

// SetOnAccept installs the accepted-answer observer. Must be called
// before the sink is shared with producers; the callback runs with the
// sink lock held and must not call back into the sink.
func (s *TopKSink) SetOnAccept(fn func(Answer)) { s.onAccept = fn }

// RaiseFloor lifts the effective α to at least f. It is how a remote
// coordinator propagates the global cross-shard floor into a shard
// server's local sink: pruning against a floor above the local k-th
// probability is safe because any candidate it suppresses could not have
// entered the global top k either. Monotone — a floor below the current
// one (or below the base α) is a no-op.
func (s *TopKSink) RaiseFloor(f float64) {
	for {
		cur := s.floor.Load()
		if math.Float64frombits(cur) >= f {
			return
		}
		if s.floor.CompareAndSwap(cur, math.Float64bits(f)) {
			return
		}
	}
}

// Floor returns the current effective α: the base α until k answers have
// arrived, then the predecessor of the k-th probability. Monotone
// non-decreasing over the sink's lifetime.
func (s *TopKSink) Floor() float64 {
	return math.Float64frombits(s.floor.Load())
}

// Offer merges one answer into the top-k set, raising the floor when the
// set is full. An answer ranked below the k-th cannot enter the top k and
// is ignored. So is a repeat of an answer the sink already holds (same
// source and probability): a replayed offer never counts twice, and a
// repeat of a displaced answer still ranks below the k-th.
func (s *TopKSink) Offer(a Answer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.answers), func(i int) bool {
		if s.answers[i].Prob != a.Prob {
			return s.answers[i].Prob < a.Prob
		}
		return s.answers[i].Source > a.Source
	})
	if i >= s.k || (i > 0 && s.answers[i-1].Source == a.Source && s.answers[i-1].Prob == a.Prob) {
		return
	}
	s.answers = append(s.answers, Answer{})
	copy(s.answers[i+1:], s.answers[i:])
	s.answers[i] = a
	if s.onAccept != nil {
		s.onAccept(a)
	}
	if len(s.answers) > s.k {
		s.answers = s.answers[:s.k]
	}
	if len(s.answers) == s.k {
		kth := s.answers[s.k-1].Prob
		// The largest α that still lets a kth-tied candidate pass the
		// strict prob > α refinement cutoffs.
		f := math.Nextafter(kth, 0)
		if f > s.alpha {
			s.floor.Store(math.Float64bits(f))
		}
	}
}

// Results returns the merged top-k answers, ranked by probability
// (ties toward smaller source IDs). The returned slice is a copy.
func (s *TopKSink) Results() []Answer {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Answer, len(s.answers))
	copy(out, s.answers)
	return out
}

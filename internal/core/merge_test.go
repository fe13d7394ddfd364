package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

// sortBySourceStable is the merge's reference implementation: append every
// run in order and stable-sort by Source.
func sortBySourceStable(runs [][]Answer) []Answer {
	var all []Answer
	for _, r := range runs {
		all = append(all, r...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Source < all[j].Source })
	return all
}

// TestMergeAnswerRunsEquivalence is the merge's property test: for random
// run sets — including duplicate Sources across runs — the loser-tree
// merge must produce exactly what appending all runs and stable-sorting
// by Source produces. Prob is used as a unique provenance tag so the
// comparison detects any reordering among equal Sources.
func TestMergeAnswerRunsEquivalence(t *testing.T) {
	rng := randgen.New(20260807)
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(7) // 0..6 runs, covering the k=0/1/2 special cases
		runs := make([][]Answer, k)
		tag := 0.0
		for r := range runs {
			n := rng.Intn(9)
			run := make([]Answer, n)
			for i := range run {
				tag++
				run[i] = Answer{Source: rng.Intn(12), Prob: tag}
			}
			sort.SliceStable(run, func(i, j int) bool { return run[i].Source < run[j].Source })
			runs[r] = run
		}
		want := sortBySourceStable(runs)
		got := MergeAnswerRuns(runs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d answers, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Source != want[i].Source || got[i].Prob != want[i].Prob {
				t.Fatalf("trial %d: position %d = (src %d, tag %v), want (src %d, tag %v)",
					trial, i, got[i].Source, got[i].Prob, want[i].Source, want[i].Prob)
			}
		}
	}
}

func TestMergeAnswerRunsFuncEarlyStop(t *testing.T) {
	runs := [][]Answer{
		{{Source: 1}, {Source: 4}},
		{{Source: 2}, {Source: 3}},
	}
	var got []int
	MergeAnswerRunsFunc(runs, func(a Answer) bool {
		got = append(got, a.Source)
		return len(got) < 3
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("early-stopped merge emitted %v, want [1 2 3]", got)
	}
}

func TestRankAnswers(t *testing.T) {
	answers := []Answer{
		{Source: 3, Prob: 0.5},
		{Source: 1, Prob: 0.9},
		{Source: 2, Prob: 0.5},
		{Source: 0, Prob: 0.9},
	}
	RankAnswers(answers)
	want := []Answer{
		{Source: 0, Prob: 0.9},
		{Source: 1, Prob: 0.9},
		{Source: 2, Prob: 0.5},
		{Source: 3, Prob: 0.5},
	}
	for i := range want {
		if answers[i].Source != want[i].Source {
			t.Fatalf("rank[%d] = source %d, want %d", i, answers[i].Source, want[i].Source)
		}
	}
}

// TestTopKSinkIgnoresRepeats: offering an answer again — one the sink
// holds or one it displaced — changes neither the set nor the floor. A
// hedged remote leg replays its accepts, and a counted repeat would raise
// the floor past the true k-th answer.
func TestTopKSinkIgnoresRepeats(t *testing.T) {
	a, b, c := Answer{Source: 1, Prob: 0.9}, Answer{Source: 2, Prob: 0.5}, Answer{Source: 3, Prob: 0.7}
	s := NewTopKSink(2, 0.1)
	s.Offer(a)
	s.Offer(a)
	if got := s.Results(); !reflect.DeepEqual(got, []Answer{a}) || s.Floor() != 0.1 {
		t.Fatalf("after a repeat: %v floor %v, want [a] floor 0.1", got, s.Floor())
	}
	s.Offer(b)
	s.Offer(c) // displaces b
	for _, rep := range []Answer{b, c, a} {
		s.Offer(rep)
	}
	if got := s.Results(); !reflect.DeepEqual(got, []Answer{a, c}) {
		t.Errorf("results %v, want [a c]", got)
	}
	if want := math.Nextafter(0.7, 0); s.Floor() != want {
		t.Errorf("floor %v, want %v", s.Floor(), want)
	}
}

package stats

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
	"github.com/imgrn/imgrn/internal/stats/statstest"
)

// seqStopped reports whether a SeqEdgeHits result is a sequential
// rejection: it stopped short of samples while the full count could still
// pass stop.
func seqStopped(hits, drawn, samples, stop int) bool {
	return drawn < samples && hits+samples-drawn > stop
}

// TestSeqEdgeHitsStopsOnPrefix is the contract of sequential rejection
// (DESIGN.md §9.1) over random standardized vectors, both sidednesses,
// random thresholds and budgets: the draws are a prefix of the
// fixed-sample draws; a completed estimate is the fixed-sample estimate
// bit for bit; a sequential stop falls on a checkpoint where the Chernoff
// test holds; a larger stop count never draws more than a smaller one that
// stopped sequentially, which is what lets the cache reject a probe with
// a cutoff at least as high without a draw; and with no budget the loop is
// EdgeHits, draw for draw.
func TestSeqEdgeHitsStopsOnPrefix(t *testing.T) {
	data := randgen.New(0x5e90)
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	completed, sequential := 0, 0
	for trial := 0; trial < trials; trial++ {
		l := 3 + data.Intn(18)
		xs, xt := stdPair(data, l)
		oneSided := data.Intn(2) == 0
		samples := 1 + data.Intn(1200)
		stop := data.Intn(samples+1) - 1
		delta := math.Pow(10, -1-7*data.Float64())
		seed := uint64(trial) + 1

		est := NewEstimator(seed)
		hits, drawn := est.SeqEdgeHits(xs, xt, samples, oneSided, stop, delta)
		prefix := NewEstimator(seed)
		if drawn > 0 {
			if h, _ := prefix.EdgeHits(xs, xt, drawn, oneSided, -1); h != hits {
				t.Fatalf("trial %d: %d hits in %d draws, %d in the same prefix", trial, hits, drawn, h)
			}
		}
		if *prefix.rng != *est.rng {
			t.Fatalf("trial %d: the loop did not stop on a prefix of the stream", trial)
		}
		exact := NewEstimator(seed)
		eh, ed := exact.EdgeHits(xs, xt, samples, oneSided, stop)
		if h, d := NewEstimator(seed).SeqEdgeHits(xs, xt, samples, oneSided, stop, 0); h != eh || d != ed {
			t.Fatalf("trial %d: with no budget %d hits in %d draws, EdgeHits %d in %d", trial, h, d, eh, ed)
		}
		if drawn > ed {
			t.Fatalf("trial %d: %d draws with the sequential test, %d without", trial, drawn, ed)
		}

		if drawn == samples {
			completed++
			full := refAbsEdgeProbability(randgen.New(seed), xs, xt, samples)
			if oneSided {
				full = refEdgeProbability(randgen.New(seed), xs, xt, samples)
			}
			if got := float64(hits) / float64(samples); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("trial %d: completed estimate %v, fixed-sample %v", trial, got, full)
			}
			continue
		}
		if !seqStopped(hits, drawn, samples, stop) {
			continue // exact curtailment
		}
		sequential++
		if drawn%seqEvery != 0 || !newSeqTest(samples, stop, delta).rejects(hits, drawn) {
			t.Fatalf("trial %d: sequential stop after %d draws with %d hits is not a checkpoint where the test holds", trial, drawn, hits)
		}
		higher := stop + data.Intn(samples-stop)
		if _, d := NewEstimator(seed).SeqEdgeHits(xs, xt, samples, oneSided, higher, delta); d > drawn {
			t.Fatalf("trial %d: stop %d drew %d, stop %d stopped sequentially after %d", trial, higher, d, stop, drawn)
		}
	}
	if completed < trials/10 || sequential < trials/20 {
		t.Fatalf("sweep too weak: %d completed, %d stopped sequentially of %d", completed, sequential, trials)
	}
}

// TestSeqEdgeHitsEarlyRejectionRate is the error rate of sequential
// rejection against exact enumeration (l ≤ 7). Each edge's cutoff sits at
// the grid value k/R at or below its exact probability p, so every
// sequential stop rejects an edge whose p passes: a false alarm, at rate at
// most δ′ by the Chernoff bound and the union bound over checkpoints.
// With a test-only δ′ = 0.05 the count must stay within the shared
// false-alarm budget at that rate; the same sweep at 100·δ′, an over-eager
// stop, must exceed it, so the sweep can see one.
func TestSeqEdgeHitsEarlyRejectionRate(t *testing.T) {
	const delta = 0.05
	data := randgen.New(0x5e91)
	pairs := 1800
	if testing.Short() {
		pairs = 450
	}
	early := statstest.FalseAlarms{Delta: delta}
	planted := statstest.FalseAlarms{Delta: delta}
	for pair := 0; pair < pairs; pair++ {
		xs, xt := stdPair(data, 3+data.Intn(5))
		oneSided := data.Intn(2) == 0
		p := ExactAbsEdgeProbability(xs, xt)
		if oneSided {
			p = ExactEdgeProbability(xs, xt)
		}
		for _, samples := range []int{192, 1024, SampleSize(0.1, 0.05)} {
			k := int(p * float64(samples))
			for k > 0 && float64(k)/float64(samples) > p {
				k--
			}
			for k < samples && float64(k+1)/float64(samples) <= p {
				k++
			}
			if k == 0 {
				continue // a cutoff of 0 rejects nothing
			}
			for rep := uint64(0); rep < 2; rep++ {
				seed := uint64(pair)<<8 | uint64(samples)<<1 | rep
				h, d := NewEstimator(seed).SeqEdgeHits(xs, xt, samples, oneSided, k-1, delta)
				early.Check(!seqStopped(h, d, samples, k-1))
				h, d = NewEstimator(seed).SeqEdgeHits(xs, xt, samples, oneSided, k-1, 100*delta)
				planted.Check(!seqStopped(h, d, samples, k-1))
			}
		}
	}
	early.Verify(t, "edges with p at or above the cutoff rejected sequentially at δ′ = 0.05")
	alarms, checks := planted.Alarms()
	if !planted.Exceeded() {
		t.Errorf("the over-eager stop at 100·δ′ rejected %d of %d, within the budget %.1f: the sweep cannot see it",
			alarms, checks, planted.Budget())
	}
	t.Logf("the over-eager stop at 100·δ′ rejected %d of %d", alarms, checks)
}

// TestSeqBudget: δ′ is seqDelta unless the stated δ is below 2·seqDelta,
// and then δ/2.
func TestSeqBudget(t *testing.T) {
	for _, c := range []struct{ delta, want float64 }{
		{0, seqDelta}, {0.05, seqDelta}, {2e-6, seqDelta}, {1e-6, 5e-7}, {1e-9, 5e-10},
	} {
		if got := SeqBudget(c.delta); got != c.want {
			t.Errorf("SeqBudget(%g) = %g, want %g", c.delta, got, c.want)
		}
	}
}

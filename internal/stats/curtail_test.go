package stats

import (
	"math"
	"testing"

	"github.com/imgrn/imgrn/internal/randgen"
)

// TestEdgeHitsCurtailmentExact is the exactness property of curtailment
// (DESIGN.md §9.1) over random standardized vectors, both sidednesses and
// random thresholds: with reject(p) = p ≤ γ or π·p ≤ α for a running
// product π, the curtailed loop draws a prefix of the fixed-sample draws;
// when it completes its estimate is the fixed-sample estimate bit for bit,
// and when it stops the fixed-sample estimate is rejected too.
func TestEdgeHitsCurtailmentExact(t *testing.T) {
	data := randgen.New(0xc0de)
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	completed, curtailed := 0, 0
	for trial := 0; trial < trials; trial++ {
		l := 3 + data.Intn(18)
		xs, xt := stdPair(data, l)
		oneSided := data.Intn(2) == 0
		samples := 1 + data.Intn(600)
		gamma, alpha, pi := data.Float64(), data.Float64(), 1-data.Float64()
		reject := func(p float64) bool { return p <= gamma || pi*p <= alpha }
		stop := RejectedHits(samples, reject)
		if stop >= 0 && !reject(float64(stop)/float64(samples)) ||
			stop < samples && reject(float64(stop+1)/float64(samples)) {
			t.Fatalf("trial %d: RejectedHits = %d is not the largest rejected count of %d", trial, stop, samples)
		}

		seed := uint64(trial) + 1
		est := NewEstimator(seed)
		hits, drawn := est.EdgeHits(xs, xt, samples, oneSided, stop)

		// The draws are a prefix: the same seed run to exactly `drawn`
		// samples counts the same hits and leaves the same generator state.
		prefix := NewEstimator(seed)
		if drawn > 0 {
			if h, _ := prefix.EdgeHits(xs, xt, drawn, oneSided, -1); h != hits {
				t.Fatalf("trial %d: %d hits in %d curtailed draws, %d in the same prefix", trial, hits, drawn, h)
			}
		}
		if *prefix.rng != *est.rng {
			t.Fatalf("trial %d: the curtailed loop did not stop on a prefix of the stream", trial)
		}

		ref := randgen.New(seed)
		var full float64
		if oneSided {
			full = refEdgeProbability(ref, xs, xt, samples)
		} else {
			full = refAbsEdgeProbability(ref, xs, xt, samples)
		}
		if drawn == samples {
			completed++
			if got := float64(hits) / float64(samples); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("trial %d: completed estimate %v, fixed-sample %v", trial, got, full)
			}
			continue
		}
		curtailed++
		if drawn > samples || drawn%permBlock != 0 {
			t.Fatalf("trial %d: stopped after %d of %d draws, not on a block boundary", trial, drawn, samples)
		}
		bound := float64(hits+samples-drawn) / float64(samples)
		if !reject(full) || !reject(bound) || bound < full {
			t.Fatalf("trial %d (l=%d oneSided=%v γ=%v α=%v π=%v): stopped at %d/%d draws with bound %v, but the fixed-sample estimate %v is not rejected",
				trial, l, oneSided, gamma, alpha, pi, drawn, samples, bound, full)
		}
	}
	if completed < trials/10 || curtailed < trials/10 {
		t.Fatalf("sweep too weak: %d completed, %d curtailed of %d", completed, curtailed, trials)
	}
}

// TestEdgeHitsNoStopIsFixedSample: with stop < 0 the loop is the
// fixed-sample estimator, and a stop at or above samples draws nothing.
func TestEdgeHitsNoStopIsFixedSample(t *testing.T) {
	data := randgen.New(0xc0df)
	for _, samples := range kernelSamples {
		xs, xt := stdPair(data, 9)
		for _, oneSided := range []bool{true, false} {
			hits, drawn := NewEstimator(5).EdgeHits(xs, xt, samples, oneSided, -1)
			want := NewEstimator(5).AbsEdgeProbability(xs, xt, samples)
			if oneSided {
				want = NewEstimator(5).EdgeProbability(xs, xt, samples)
			}
			if drawn != samples || float64(hits)/float64(samples) != want {
				t.Errorf("samples=%d oneSided=%v: %d hits in %d draws, fixed-sample %v", samples, oneSided, hits, drawn, want)
			}
			if _, drawn := NewEstimator(5).EdgeHits(xs, xt, samples, oneSided, samples); drawn != 0 {
				t.Errorf("samples=%d: stop = samples still drew %d", samples, drawn)
			}
		}
	}
}

// Package statstest holds the false-alarm budget that the repository's
// statistical tests share. A test that checks many independent estimates
// against a confidence envelope, or counts rare events of a known
// probability, sees some misses by chance; it should fail only when there
// are more than that probability explains. Every such test uses the same
// budget, so none can be loosened alone.
package statstest

import (
	"math"
	"testing"
)

// FalseAlarms counts checks that each fail by chance with probability at
// most Delta, independently, and the checks that failed.
type FalseAlarms struct {
	Delta          float64
	checks, alarms int
}

// Check records one check and returns ok.
func (f *FalseAlarms) Check(ok bool) bool {
	f.checks++
	if !ok {
		f.alarms++
	}
	return ok
}

// Alarms returns the failed checks and all checks recorded so far.
func (f *FalseAlarms) Alarms() (alarms, checks int) { return f.alarms, f.checks }

// Budget is the most failed checks n checks may show: the binomial mean
// Delta·n plus four of its standard deviations. Where Delta·n is far
// below one it allows none.
func (f *FalseAlarms) Budget() float64 {
	n := float64(f.checks)
	return f.Delta*n + 4*math.Sqrt(f.Delta*(1-f.Delta)*n)
}

// Exceeded reports whether the failed checks are over the budget.
func (f *FalseAlarms) Exceeded() bool { return float64(f.alarms) > f.Budget() }

// Verify fails t when the failed checks exceed the budget, naming what was
// checked, and logs the count otherwise.
func (f *FalseAlarms) Verify(t testing.TB, what string) {
	t.Helper()
	if f.Exceeded() {
		t.Errorf("%s: %d of %d checks failed, more than the budget %.1f at a per-check rate of %g",
			what, f.alarms, f.checks, f.Budget(), f.Delta)
		return
	}
	t.Logf("%s: %d of %d checks failed, budget %.1f at a per-check rate of %g", what, f.alarms, f.checks, f.Budget(), f.Delta)
}

// HoeffdingRadius is the half-width within which the mean of samples
// independent draws, each in a range of the given width, lies around its
// expectation except with probability delta: width·√(ln(2/δ)/(2·samples)).
func HoeffdingRadius(width float64, samples int, delta float64) float64 {
	return width * math.Sqrt(math.Log(2/delta)/(2*float64(samples)))
}

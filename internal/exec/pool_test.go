package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachWorkerContract checks the pool's contract over a grid of
// fan-out shapes: every index runs exactly once, calls sharing a worker
// slot never overlap and slots stay below the budget, and a sequential
// context or a fan-out of at most one unit runs inline in ascending order
// on slot 0.
func TestForEachWorkerContract(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				seen := make([]atomic.Int32, n)
				active := make([]atomic.Int32, workers)
				var mu sync.Mutex
				var order, slots []int
				ec := New(context.Background(), nil, workers)
				err := ec.ForEachWorker(n, func(w, i int) error {
					if w < 0 || w >= workers {
						t.Errorf("worker slot %d outside [0, %d)", w, workers)
						return nil
					}
					if c := active[w].Add(1); c != 1 {
						t.Errorf("worker slot %d: %d concurrent calls", w, c)
					}
					seen[i].Add(1)
					mu.Lock()
					order, slots = append(order, i), append(slots, w)
					mu.Unlock()
					runtime.Gosched()
					active[w].Add(-1)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range seen {
					if got := seen[i].Load(); got != 1 {
						t.Fatalf("index %d visited %d times", i, got)
					}
				}
				if workers > 1 && n > 1 {
					return
				}
				for k, i := range order {
					if i != k || slots[k] != 0 {
						t.Fatalf("inline run: call %d was (w=%d, i=%d), want (0, %d)", k, slots[k], i, k)
					}
				}
			})
		}
	}
}

// TestForEachWorkerSlotExclusive checks the per-worker-slot contract with
// units long enough to overlap: calls sharing a w value never run
// concurrently, so w-indexed scratch needs no locking.
func TestForEachWorkerSlotExclusive(t *testing.T) {
	const workers, n = 4, 200
	var active [workers]atomic.Int32
	ec := New(context.Background(), nil, workers)
	err := ec.ForEachWorker(n, func(w, i int) error {
		if c := active[w].Add(1); c != 1 {
			t.Errorf("worker slot %d: %d concurrent calls", w, c)
		}
		time.Sleep(50 * time.Microsecond)
		active[w].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForEachSmallNStaysSequential checks that a single-unit fan-out under
// a wide budget, and any fan-out under a sequential context, runs inline
// on the calling goroutine in ascending order as worker slot 0.
func TestForEachSmallNStaysSequential(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{8, 1}, {1, 50}} {
		ec := New(context.Background(), nil, c.workers)
		var order []int // unsynchronized on purpose: -race flags any fan-out
		err := ec.ForEachWorker(c.n, func(w, i int) error {
			if w != 0 {
				t.Errorf("inline run used worker slot %d", w)
			}
			order = append(order, i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != c.n {
			t.Fatalf("workers=%d: visited %d of %d indices", c.workers, len(order), c.n)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("order[%d] = %d; inline run must be ascending", i, got)
			}
		}
	}
}

// TestForEachSkewedVisitsEveryIndexOnce runs a fan-out whose unit costs
// are skewed and checks that every index runs exactly once and lands its
// result in its own slot. Run under -race this doubles as the pool's
// data-race check.
func TestForEachSkewedVisitsEveryIndexOnce(t *testing.T) {
	const workers, n = 8, 400
	var seen [n]atomic.Int32
	out := make([]int, n)
	ec := New(context.Background(), nil, workers)
	err := ec.ForEachWorker(n, func(w, i int) error {
		seen[i].Add(1)
		if i%workers == 0 { // skew: one unit in eight is slow
			time.Sleep(100 * time.Microsecond)
		}
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i*i)
		}
	}
}

// TestForEachPanicPropagates checks that a panic in a work unit resurfaces
// in the caller as a *ChunkPanic carrying the original value and the
// worker's stack, whichever goroutine ran the unit.
func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic in work unit did not propagate")
		}
		cp, ok := v.(*ChunkPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *ChunkPanic", v, v)
		}
		if cp.Value != "boom in work unit" {
			t.Fatalf("ChunkPanic.Value = %v", cp.Value)
		}
		if len(cp.Stack) == 0 {
			t.Fatal("ChunkPanic.Stack is empty")
		}
		if cp.Error() == "" {
			t.Fatal("ChunkPanic.Error is empty")
		}
	}()
	// Unit 0 is slow, so unit 1 runs on the other worker.
	ec := New(context.Background(), nil, 2)
	_ = ec.ForEachWorker(4, func(w, i int) error {
		switch i {
		case 0:
			time.Sleep(50 * time.Millisecond)
		case 1:
			panic("boom in work unit")
		}
		return nil
	})
	t.Fatal("ForEachWorker returned instead of panicking")
}

// TestForEachCancelMidFanOut cancels the context while workers are deep in
// a skewed fan-out and checks that the cancellation is honored between
// work units and reported as the context error.
func TestForEachCancelMidFanOut(t *testing.T) {
	const workers, n = 4, 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ec := New(ctx, nil, workers)
	var calls atomic.Int32
	var once sync.Once
	err := ec.ForEachWorker(n, func(w, i int) error {
		c := calls.Add(1)
		if i%3 == 0 {
			time.Sleep(20 * time.Microsecond)
		}
		if c == 40 {
			once.Do(cancel)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c := calls.Load(); c >= n {
		t.Fatalf("cancellation ignored: all %d units ran", c)
	}
}

// TestForEachErrorOnWorker mirrors the panic test with an error return:
// the first error stops the fan-out and is the one reported.
func TestForEachErrorOnWorker(t *testing.T) {
	boom := errors.New("boom")
	ec := New(context.Background(), nil, 2)
	err := ec.ForEachWorker(4, func(w, i int) error {
		switch i {
		case 0:
			time.Sleep(50 * time.Millisecond)
		case 1:
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestArenaSlotRoundTrip(t *testing.T) {
	a := GrabArena()
	if got := a.Slot(ArenaQueryScratch); got != nil {
		// A pooled arena may legitimately carry scratch from an earlier
		// query; clear it so the round-trip below starts clean.
		a.SetSlot(ArenaQueryScratch, nil)
	}
	type scratch struct{ buf []int }
	s := &scratch{buf: make([]int, 8)}
	a.SetSlot(ArenaQueryScratch, s)
	if got := a.Slot(ArenaQueryScratch); got != any(s) {
		t.Fatalf("Slot returned %v, want the stored scratch", got)
	}
	ec := New(context.Background(), nil, 1).WithArena(a)
	if ec.Arena() != a {
		t.Fatal("WithArena did not attach the arena")
	}
	ec.Close()
	if ec.Arena() != nil {
		t.Fatal("Close did not detach the arena")
	}
	ec.Close() // second Close must be a no-op

	// Nil-safety: a nil arena ignores stores and returns nothing.
	var nilArena *Arena
	nilArena.SetSlot(ArenaQueryScratch, s)
	if got := nilArena.Slot(ArenaQueryScratch); got != nil {
		t.Fatalf("nil arena Slot = %v, want nil", got)
	}
	nilArena.Release()
}

package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ChunkPanic wraps a panic that escaped fn on a worker goroutine of a
// ForEach fan-out. The pool recovers it on the worker, stops handing out
// units, and re-panics in the calling goroutine with this wrapper so the
// panic surfaces where the fan-out was requested while preserving the
// worker's stack.
type ChunkPanic struct {
	Value any    // the original panic value
	Stack []byte // the worker goroutine's stack at the time of the panic
}

func (p *ChunkPanic) Error() string {
	return fmt.Sprintf("exec: panic in parallel work unit: %v", p.Value)
}

// forEachPool is the parallel arm of ForEachWorker: min(workers, n)
// workers, the caller among them as worker 0, claim units one at a time
// from a shared cursor in ascending index order until the cursor passes
// n or the fan-out stops.
func (c *Context) forEachPool(n int, fn func(w, i int) error) error {
	workers := min(c.workers, n)
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		errMu    sync.Mutex
		firstErr error
		panicked *ChunkPanic
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopped.Store(true)
	}
	done := c.ctx.Done()

	worker := func(w int) {
		defer wg.Done()
		defer func() {
			if v := recover(); v != nil {
				cp := &ChunkPanic{Value: v, Stack: debug.Stack()}
				errMu.Lock()
				if panicked == nil {
					panicked = cp
				}
				errMu.Unlock()
				stopped.Store(true)
			}
		}()
		for !stopped.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			select {
			case <-done:
				fail(c.ctx.Err())
				return
			default:
			}
			if err := fn(w, i); err != nil {
				fail(err)
				return
			}
		}
	}

	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker(w)
	}
	worker(0) // the caller participates as worker 0
	wg.Wait()

	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

// Package pool is a bounded worker pool shared by the compile service
// (one slot per in-flight compile) and the experiments harness (which
// fans a workload×scheme grid out over it).
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Pool is a bounded worker pool: at most Workers() tasks execute at
// once, across every entry point that shares the pool. Slots are a
// semaphore, so work always runs on the submitting goroutine — nothing
// is spawned that can leak.
type Pool struct {
	sem chan struct{}
}

// New builds a pool; workers <= 0 sizes it to GOMAXPROCS, the number
// of compilations that can make progress simultaneously.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Do acquires a slot, runs fn on the calling goroutine, and releases
// the slot. If ctx is done before a slot frees, fn never runs and the
// context's error is returned; fn itself is responsible for honouring
// ctx once running.
func (p *Pool) Do(ctx context.Context, fn func()) error {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.sem }()
	fn()
	return nil
}

// Map runs fn(0..n-1), each call holding one pool slot, and waits for
// all of them. The first error cancels the remaining calls (running
// calls finish; queued indices are skipped) and is returned. Map is
// how the experiments harness fans a workload×scheme grid out over the
// pool.
func (p *Pool) Map(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	spawn := p.Workers()
	if spawn > n {
		spawn = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain remaining indices
				}
				if err := p.Do(ctx, func() {
					if err := fn(i); err != nil {
						fail(err)
					}
				}); err != nil {
					fail(err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

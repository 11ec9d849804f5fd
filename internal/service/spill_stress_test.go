package service

import (
	"context"
	"sync"
	"testing"
)

// TestSpillStressThroughPool hammers the server's worker pool with
// concurrent coalesce-scheme compiles — the path through diffcoal →
// ospill → ilp that the race detector must see clean with many
// compiles in flight. The cache is disabled so every request solves
// the ILP from scratch, and every response for the same source must
// be identical (the branch-and-bound is deterministic).
func TestSpillStressThroughPool(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:      4,
		CacheEntries: -1, // no cache: all requests exercise the solver
	})
	sources := []string{
		slowIR(2, 10),
		slowIR(2, 12),
		slowIR(3, 10),
	}
	const perSource = 6
	responses := make([][]Response, len(sources))
	for i := range responses {
		responses[i] = make([]Response, perSource)
	}
	var wg sync.WaitGroup
	for si := range sources {
		for k := 0; k < perSource; k++ {
			wg.Add(1)
			go func(si, k int) {
				defer wg.Done()
				responses[si][k] = s.Compile(context.Background(), Request{
					IR:     sources[si],
					Scheme: "coalesce",
					RegN:   6,
					DiffN:  4,
				})
			}(si, k)
		}
	}
	wg.Wait()
	for si := range sources {
		first := responses[si][0]
		if first.Error != "" {
			t.Fatalf("source %d: compile failed: %s", si, first.Error)
		}
		if first.Cached {
			t.Fatalf("source %d: cache should be disabled", si)
		}
		for k := 1; k < perSource; k++ {
			got := responses[si][k]
			if got.Error != "" {
				t.Fatalf("source %d request %d: %s", si, k, got.Error)
			}
			if got.SpilledVRegs != first.SpilledVRegs || got.SpillInstrs != first.SpillInstrs ||
				got.Instrs != first.Instrs || got.SetLastRegs != first.SetLastRegs {
				t.Fatalf("source %d: divergent responses under concurrency: %+v vs %+v", si, got, first)
			}
		}
	}
}

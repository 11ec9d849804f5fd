package remap

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/telemetry"
)

func seededGraph(seed int64, regN, edges int) *adjacency.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := adjacency.New(regN)
	for e := 0; e < edges; e++ {
		// Quarter-integer weights keep every cost sum exact in float64,
		// so cross-worker cost comparisons are bitwise meaningful.
		g.AddWeight(rng.Intn(regN), rng.Intn(regN), 0.25*float64(1+rng.Intn(20)))
	}
	return g
}

// TestParallelGreedyMatchesSerial is the determinism contract of the
// sharded search: over a seeded grid of graphs × RegN × DiffN, every
// worker count returns the same best cost AND the same permutation as
// the serial (Workers=1) run.
func TestParallelGreedyMatchesSerial(t *testing.T) {
	grid := []struct {
		regN, diffN, edges, restarts int
	}{
		{8, 4, 12, 40},
		{12, 8, 40, 60},
		{12, 4, 70, 60},
		{16, 8, 90, 50},
		{24, 6, 60, 30}, // sparse: many restarts reach cost 0 (early exit)
	}
	for _, tc := range grid {
		for gseed := int64(0); gseed < 4; gseed++ {
			g := seededGraph(gseed*31+7, tc.regN, tc.edges)
			var pinned map[int]bool
			if gseed%2 == 1 {
				pinned = map[int]bool{0: true, tc.regN - 1: true}
			}
			base := Options{
				RegN: tc.regN, DiffN: tc.diffN, Restarts: tc.restarts,
				Seed: gseed, Pinned: pinned, Workers: 1,
			}
			serial := Greedy(g, base)
			assertPermutation(t, serial.Perm)
			for _, workers := range []int{2, 8} {
				opts := base
				opts.Workers = workers
				got := Greedy(g, opts)
				if got.Cost != serial.Cost {
					t.Fatalf("regN=%d diffN=%d seed=%d workers=%d: cost %v != serial %v",
						tc.regN, tc.diffN, gseed, workers, got.Cost, serial.Cost)
				}
				for i := range serial.Perm {
					if got.Perm[i] != serial.Perm[i] {
						t.Fatalf("regN=%d diffN=%d seed=%d workers=%d: perm %v != serial %v",
							tc.regN, tc.diffN, gseed, workers, got.Perm, serial.Perm)
					}
				}
			}
		}
	}
}

// TestParallelTrajectoryDeterministic: the telemetry the workers
// aggregate (best-cost trajectory, reconstructed in restart order)
// must also be worker-count independent.
func TestParallelTrajectoryDeterministic(t *testing.T) {
	g := seededGraph(3, 12, 50)
	read := func(workers int) []float64 {
		tr := telemetry.New(&telemetry.CollectSink{})
		span := tr.Start("remap")
		Greedy(g, Options{RegN: 12, DiffN: 4, Restarts: 40, Seed: 9, Workers: workers, Trace: span})
		span.End()
		traj, _ := span.Attr("trajectory").([]float64)
		return traj
	}
	want := read(1)
	if len(want) == 0 {
		t.Fatal("serial run recorded no trajectory")
	}
	for _, workers := range []int{2, 8} {
		got := read(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: trajectory %v != serial %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trajectory %v != serial %v", workers, got, want)
			}
		}
	}
}

// descendRescan is the un-cached reference descent: identical restart
// seeding, but every step freshly re-probes all free pairs with
// CSR.SwapDelta. The engine's cached descent — O(1) probes against the
// incrementally-maintained register-cost matrix, invalidated only for
// pairs a committed swap could have changed — must match it move for
// move: the test weights are exact quarter-integers, so every sum is
// exact and the two arithmetics must agree bitwise, not just in
// quality.
func descendRescan(e *engine, r int) ([]int, float64) {
	perm := Identity(e.regN)
	e.shuffleFree(perm, r)
	free := e.free
	for {
		bi, bj := -1, -1
		bestDelta := 0.0
		for ii := 0; ii < len(free); ii++ {
			for jj := ii + 1; jj < len(free); jj++ {
				if d := e.csr.SwapDelta(perm, free[ii], free[jj], e.regN, e.diffN); d < bestDelta {
					bestDelta, bi, bj = d, ii, jj
				}
			}
		}
		if bi < 0 {
			return perm, e.csr.PermCost(perm, e.regN, e.diffN)
		}
		perm[free[bi]], perm[free[bj]] = perm[free[bj]], perm[free[bi]]
	}
}

func TestPairInvalidationMatchesFullRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		regN := 6 + rng.Intn(14)
		diffN := 1 + rng.Intn(regN)
		g := seededGraph(int64(trial), regN, rng.Intn(6*regN))
		opts := Options{RegN: regN, DiffN: diffN, Seed: int64(trial)}
		if trial%3 == 0 {
			opts.Pinned = map[int]bool{rng.Intn(regN): true}
		}
		e := newEngine(g.Freeze(), opts)
		s := e.newScratch()
		for r := 0; r < 6; r++ {
			cost := e.descend(s, r)
			wantPerm, wantCost := descendRescan(e, r)
			if cost != wantCost {
				t.Fatalf("trial %d restart %d: cached cost %v, rescan %v", trial, r, cost, wantCost)
			}
			for i := range wantPerm {
				if s.perm[i] != wantPerm[i] {
					t.Fatalf("trial %d restart %d: cached perm %v, rescan %v", trial, r, s.perm, wantPerm)
				}
			}
		}
	}
}

// TestGreedyNoWorseThanLegacy: the rewritten search must stay within
// the quality envelope of the retained legacy implementation — on small
// instances both multi-starts should find the same best cost.
func TestGreedyNoWorseThanLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		regN := 4 + rng.Intn(6)
		diffN := 1 + rng.Intn(regN)
		g := seededGraph(int64(trial)+500, regN, 2+rng.Intn(4*regN))
		opts := Options{RegN: regN, DiffN: diffN, Restarts: 150, Seed: int64(trial)}
		newCost := Greedy(g, opts).Cost
		legacyCost := LegacyGreedy(g, opts).Cost
		if newCost != legacyCost {
			t.Errorf("trial %d (RegN=%d DiffN=%d): greedy %v, legacy %v", trial, regN, diffN, newCost, legacyCost)
		}
	}
}

// TestGreedyCancelStopsEarly: a firing Cancel stops the multi-start
// across every worker, still returning a usable permutation from the
// restarts already performed.
func TestGreedyCancelStopsEarly(t *testing.T) {
	g := seededGraph(1, 16, 80)
	for _, workers := range []int{1, 4} {
		var polls atomic.Int64
		cancel := func() bool { return polls.Add(1) > 3 }
		tr := telemetry.New(&telemetry.CollectSink{})
		span := tr.Start("remap")
		res := Greedy(g, Options{
			RegN: 16, DiffN: 4, Restarts: 100000, Seed: 1,
			Workers: workers, Cancel: cancel, Trace: span,
		})
		span.End()
		assertPermutation(t, res.Perm)
		performed := span.Counter("restarts")
		if performed < 1 || performed > float64(3+workers) {
			t.Errorf("workers=%d: %v restarts performed after cancel, want [1, %d]", workers, performed, 3+workers)
		}
	}
}

// TestGreedyMemoryIndependentOfRestarts: the restart budget is a
// bound on work, not a up-front allocation. With Cancel firing after
// the first restart, a budget of 10 000 must allocate no more than a
// budget of 10 — so a huge Restarts value costs nothing until restarts
// actually run.
func TestGreedyMemoryIndependentOfRestarts(t *testing.T) {
	c := seededGraph(3, 16, 80).Freeze()
	bytesPerRun := func(restarts int) uint64 {
		opts := Options{
			RegN: 16, DiffN: 4, Restarts: restarts, Seed: 1, Workers: 1,
			Cancel: func() bool { return true },
		}
		GreedyCSR(c, opts)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			GreedyCSR(c, opts)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesPerRun(10), bytesPerRun(10_000)
	// The slack absorbs runtime noise; per-restart state would add
	// kilobytes (10 000 restarts × even one byte each).
	if large > small+512 {
		t.Fatalf("Restarts=10 000 allocated %d B per search, Restarts=10 %d B: memory grows with the restart budget", large, small)
	}
}

// TestExhaustiveCancelStopsEnumeration: a cancelled context must not
// burn through all RegN! permutations (the Auto path for small RegN).
func TestExhaustiveCancelStopsEnumeration(t *testing.T) {
	g := seededGraph(2, 10, 60)
	// 10 free registers: 10! = 3.6M leaves. Cancelling after the first
	// poll must stop within one stride.
	fired := false
	res := Exhaustive(g, Options{
		RegN: 10, DiffN: 3,
		Cancel: func() bool { fired = true; return true },
	})
	if !fired {
		t.Fatal("cancel was never polled")
	}
	assertPermutation(t, res.Perm)
	if res.Evaluated > 2*exhaustiveCancelStride {
		t.Fatalf("evaluated %d permutations after cancel, want <= %d", res.Evaluated, 2*exhaustiveCancelStride)
	}
}

// TestGreedyZeroCostEarlyExit: once a restart reaches cost zero the
// search stops instead of running the full restart budget, and the
// result is still deterministic.
func TestGreedyZeroCostEarlyExit(t *testing.T) {
	// A single-edge graph violated by the identity numbering
	// (diff(0, 11) = 11 >= DiffN): the first descent repairs it to 0.
	g := adjacency.New(12)
	g.AddWeight(0, 11, 4)
	tr := telemetry.New(&telemetry.CollectSink{})
	span := tr.Start("remap")
	res := Greedy(g, Options{RegN: 12, DiffN: 2, Restarts: 100000, Seed: 1, Workers: 4, Trace: span})
	span.End()
	if res.Cost != 0 {
		t.Fatalf("cost %v, want 0", res.Cost)
	}
	if performed := span.Counter("restarts"); performed > 100 {
		t.Fatalf("%v restarts performed despite zero-cost early exit", performed)
	}
	serial := Greedy(g, Options{RegN: 12, DiffN: 2, Restarts: 100000, Seed: 1, Workers: 1})
	for i := range serial.Perm {
		if res.Perm[i] != serial.Perm[i] {
			t.Fatalf("early-exit perm %v != serial %v", res.Perm, serial.Perm)
		}
	}
}

package remap

import (
	"math/rand"
	"runtime"
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/telemetry"
)

func seededGraph(seed int64, regN, edges int) *adjacency.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := adjacency.New(regN)
	for e := 0; e < edges; e++ {
		// Quarter-integer weights keep every cost sum exact in float64,
		// so cost comparisons between searches are bitwise meaningful.
		g.AddWeight(rng.Intn(regN), rng.Intn(regN), 0.25*float64(1+rng.Intn(20)))
	}
	return g
}

// traced runs a greedy search with a collecting span and returns the
// result with the span's stop reason, best restart index, restarts
// performed and trajectory.
func traced(c *adjacency.CSR, opts Options) (res *Result, stop string, bestRestart, performed int, traj []float64) {
	tr := telemetry.New(&telemetry.CollectSink{})
	span := tr.Start("remap")
	opts.Trace = span
	res = GreedyCSR(c, opts)
	span.End()
	stop, _ = span.Attr("stop").(string)
	bestRestart, _ = span.Attr("best_restart").(int)
	traj, _ = span.Attr("trajectory").([]float64)
	return res, stop, bestRestart, int(span.Counter("restarts")), traj
}

// TestEarlyStopMatchesCappedGreedy is the determinism contract of the
// early stop: over a seeded grid of graphs × RegN × DiffN, a search
// that stops after restart s returns the same cost AND permutation as
// a search capped at s+1 restarts, and a patience stop comes exactly
// Patience restarts after the best one.
func TestEarlyStopMatchesCappedGreedy(t *testing.T) {
	grid := []struct {
		regN, diffN, edges int
	}{
		{8, 4, 12},
		{12, 8, 40},
		{12, 4, 70},
		{16, 8, 90},
		{24, 6, 60}, // sparse: restarts often reach cost 0
	}
	stops := map[string]int{}
	for _, tc := range grid {
		for gseed := int64(0); gseed < 4; gseed++ {
			c := seededGraph(gseed*31+7, tc.regN, tc.edges).Freeze()
			var pinned map[int]bool
			if gseed%2 == 1 {
				pinned = map[int]bool{0: true, tc.regN - 1: true}
			}
			opts := Options{RegN: tc.regN, DiffN: tc.diffN, Seed: gseed, Pinned: pinned}
			res, stop, bestRestart, performed, traj := traced(c, opts)
			assertPermutation(t, res.Perm)
			stops[stop]++
			switch stop {
			case StopPatience:
				if performed-1-bestRestart != Patience {
					t.Fatalf("regN=%d diffN=%d seed=%d: patience stop after restart %d, best at %d", tc.regN, tc.diffN, gseed, performed-1, bestRestart)
				}
			case StopZero:
				if res.Cost != 0 || bestRestart != performed-1 {
					t.Fatalf("regN=%d diffN=%d seed=%d: zero stop with cost %v at best %d of %d", tc.regN, tc.diffN, gseed, res.Cost, bestRestart, performed)
				}
			default:
				t.Fatalf("regN=%d diffN=%d seed=%d: stop %q, want patience or zero", tc.regN, tc.diffN, gseed, stop)
			}
			if traj[len(traj)-1] != res.Cost {
				t.Fatalf("trajectory %v does not end at best cost %v", traj, res.Cost)
			}
			for i := 1; i < len(traj); i++ {
				if traj[i] >= traj[i-1] {
					t.Fatalf("trajectory %v not strictly decreasing", traj)
				}
			}
			capped := opts
			capped.Restarts = performed
			want := GreedyCSR(c, capped)
			if want.Cost != res.Cost {
				t.Fatalf("regN=%d diffN=%d seed=%d: cost %v != capped %v", tc.regN, tc.diffN, gseed, res.Cost, want.Cost)
			}
			for i := range want.Perm {
				if res.Perm[i] != want.Perm[i] {
					t.Fatalf("regN=%d diffN=%d seed=%d: perm %v != capped %v", tc.regN, tc.diffN, gseed, res.Perm, want.Perm)
				}
			}
		}
	}
	if stops[StopPatience] == 0 || stops[StopZero] == 0 {
		t.Fatalf("grid exercised stops %v, want both patience and zero", stops)
	}
}

// TestParallelGreedyMatchesSerial: Options.Workers is kept only so
// callers that still set it compile; the search is serial whatever its
// value. Over the same seeded grid, every worker count must return the
// same best cost AND permutation as Workers=1, with and without the
// early stop (Restarts 0 and a small cap).
func TestParallelGreedyMatchesSerial(t *testing.T) {
	grid := []struct {
		regN, diffN, edges, restarts int
	}{
		{8, 4, 12, 40},
		{12, 8, 40, 60},
		{12, 4, 70, 0},
		{16, 8, 90, 50},
		{24, 6, 60, 0}, // sparse: many restarts reach cost 0 (early exit)
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
			for _, workers := range []int{0, 2, 8} {
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

// TestParallelTrajectoryDeterministic: the span's best-cost trajectory,
// best restart and stop reason are independent of Options.Workers too.
func TestParallelTrajectoryDeterministic(t *testing.T) {
	c := seededGraph(3, 12, 50).Freeze()
	for _, restarts := range []int{40, 0} {
		opts := Options{RegN: 12, DiffN: 4, Restarts: restarts, Seed: 9, Workers: 1}
		_, wantStop, wantBest, wantPerformed, want := traced(c, opts)
		if len(want) == 0 {
			t.Fatal("serial run recorded no trajectory")
		}
		for _, workers := range []int{0, 2, 8} {
			opts.Workers = workers
			_, stop, best, performed, got := traced(c, opts)
			if stop != wantStop || best != wantBest || performed != wantPerformed {
				t.Fatalf("restarts=%d workers=%d: stop %q best %d after %d, serial %q best %d after %d",
					restarts, workers, stop, best, performed, wantStop, wantBest, wantPerformed)
			}
			if len(got) != len(want) {
				t.Fatalf("restarts=%d workers=%d: trajectory %v != serial %v", restarts, workers, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("restarts=%d workers=%d: trajectory %v != serial %v", restarts, workers, got, want)
				}
			}
		}
	}
}

// TestGreedyStopReasons pins the span's stop attribute for each of the
// four ways a greedy search ends, and that the search reports no
// worker count.
func TestGreedyStopReasons(t *testing.T) {
	dense := seededGraph(3, 16, 90).Freeze()
	zero := adjacency.New(12)
	zero.AddWeight(0, 11, 4) // identity violates it; one descent repairs it
	cases := []struct {
		name      string
		c         *adjacency.CSR
		opts      Options
		stop      string
		performed int
	}{
		{"patience", dense, Options{RegN: 16, DiffN: 8, Seed: 1}, StopPatience, -1},
		{"zero", zero.Freeze(), Options{RegN: 12, DiffN: 2, Seed: 1}, StopZero, 1},
		{"cap", dense, Options{RegN: 16, DiffN: 8, Seed: 1, Restarts: 5}, StopCap, 5},
		{"cancel", dense, Options{RegN: 16, DiffN: 8, Seed: 1, Cancel: func() bool { return true }}, StopCancel, 1},
	}
	for _, tc := range cases {
		tr := telemetry.New(&telemetry.CollectSink{})
		span := tr.Start("remap")
		tc.opts.Trace = span
		GreedyCSR(tc.c, tc.opts)
		span.End()
		if got := span.Attr("stop"); got != tc.stop {
			t.Errorf("%s: stop %v, want %s", tc.name, got, tc.stop)
		}
		if _, ok := span.Attr("best_restart").(int); !ok {
			t.Errorf("%s: best_restart attribute missing", tc.name)
		}
		if span.Attr("workers") != nil {
			t.Errorf("%s: span still reports a worker count", tc.name)
		}
		if tc.performed > 0 && span.Counter("restarts") != float64(tc.performed) {
			t.Errorf("%s: %v restarts, want %d", tc.name, span.Counter("restarts"), tc.performed)
		}
	}
}

// TestGreedyNegativeRestartsRunsIdentityOnly: a negative restart
// budget never panics; it runs restart 0 (the identity vector) alone,
// exactly as Restarts: 1 does.
func TestGreedyNegativeRestartsRunsIdentityOnly(t *testing.T) {
	c := seededGraph(5, 12, 50).Freeze()
	for _, restarts := range []int{-1, -1000} {
		res, _, bestRestart, performed, _ := traced(c, Options{RegN: 12, DiffN: 4, Restarts: restarts, Seed: 1})
		if performed != 1 || bestRestart != 0 {
			t.Fatalf("Restarts=%d: %d restarts, best at %d; want restart 0 only", restarts, performed, bestRestart)
		}
		one := GreedyCSR(c, Options{RegN: 12, DiffN: 4, Restarts: 1, Seed: 1})
		if res.Cost != one.Cost {
			t.Fatalf("Restarts=%d: cost %v, Restarts=1 %v", restarts, res.Cost, one.Cost)
		}
		assertPermutation(t, res.Perm)
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

// TestGreedyCancelStopsEarly: a firing Cancel stops the multi-start,
// still returning a usable permutation from the restarts already
// performed.
func TestGreedyCancelStopsEarly(t *testing.T) {
	polls := 0
	cancel := func() bool { polls++; return polls > 3 }
	res, stop, _, performed, _ := traced(seededGraph(1, 16, 80).Freeze(), Options{
		RegN: 16, DiffN: 4, Restarts: 100000, Seed: 1, Cancel: cancel,
	})
	assertPermutation(t, res.Perm)
	if stop != StopCancel || performed != 4 {
		t.Errorf("stop %q after %d restarts, want cancel after 4", stop, performed)
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
			RegN: 16, DiffN: 4, Restarts: restarts, Seed: 1,
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
// search stops instead of running the full restart budget.
func TestGreedyZeroCostEarlyExit(t *testing.T) {
	// A single-edge graph violated by the identity numbering
	// (diff(0, 11) = 11 >= DiffN): the first descent repairs it to 0.
	g := adjacency.New(12)
	g.AddWeight(0, 11, 4)
	res, stop, _, performed, _ := traced(g.Freeze(), Options{RegN: 12, DiffN: 2, Restarts: 100000, Seed: 1})
	if res.Cost != 0 {
		t.Fatalf("cost %v, want 0", res.Cost)
	}
	if stop != StopZero || performed != 1 {
		t.Fatalf("stop %q after %d restarts despite a zero-cost first restart", stop, performed)
	}
}

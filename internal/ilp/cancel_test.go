package ilp

import (
	"sync/atomic"
	"testing"
)

// assertFeasible checks sol.X against the problem's constraints.
func assertFeasible(t *testing.T, p Problem, x []bool) {
	t.Helper()
	if x == nil {
		t.Fatal("no incumbent returned")
	}
	for _, c := range sanitize(p, len(p.Costs)) {
		cnt := 0
		for _, v := range c.Vars {
			if x[v] {
				cnt++
			}
		}
		if cnt < c.Need {
			t.Fatal("infeasible incumbent")
		}
	}
}

func TestCancelStopsSearch(t *testing.T) {
	// HardOverlap is one connected component, so preprocessing cannot
	// shortcut it and the search genuinely burns nodes (the default
	// per-component budget is exhausted entirely).
	p := HardOverlap(8, 12, 6)
	full := Solve(p, Options{})
	if full.Nodes < 10000 {
		t.Fatalf("instance too easy to observe cancellation: %d nodes", full.Nodes)
	}

	// An immediately-true cancel hook is polled every ~64 nodes and
	// before each work item, so the cancelled search must stop after a
	// small fraction of the full run.
	sol := Solve(p, Options{Cancel: func() bool { return true }})
	if !sol.Cancelled {
		t.Fatal("Cancelled not reported")
	}
	if sol.Optimal {
		t.Fatal("cancelled solve claims optimality")
	}
	if sol.Nodes > 256 {
		t.Fatalf("cancel ignored: explored %d nodes", sol.Nodes)
	}
	// The greedy incumbent must still be feasible.
	assertFeasible(t, p, sol.X)
}

func TestLegacyCancelStopsSearch(t *testing.T) {
	// HardDisjoint is trivial for Solve (it decomposes) but hard for
	// the retained legacy baseline, whose cancellation contract must
	// also keep working.
	p := HardDisjoint(8, 12, 6)
	full := LegacySolve(p, Options{MaxNodes: 50000})
	if full.Nodes < 10000 {
		t.Fatalf("instance too easy to observe cancellation: %d nodes", full.Nodes)
	}
	sol := LegacySolve(p, Options{MaxNodes: 50000, Cancel: func() bool { return true }})
	if !sol.Cancelled || sol.Optimal || sol.Nodes > 256 {
		t.Fatalf("legacy cancel ignored: %+v", sol)
	}
	assertFeasible(t, p, sol.X)
}

// TestParallelCancelPollingBound: the search polls Cancel before each
// work item and about every 64 nodes inside one, so after the hook
// starts returning true the solve stops within ~64 nodes per
// outstanding false poll plus one final poll.
func TestParallelCancelPollingBound(t *testing.T) {
	p := HardOverlap(8, 12, 6)
	var polls atomic.Int64
	cancel := func() bool { return polls.Add(1) > 16 }
	sol := Solve(p, Options{MaxNodes: 100000, Cancel: cancel})
	if !sol.Cancelled {
		t.Fatal("Cancelled not reported")
	}
	if sol.Optimal {
		t.Fatal("cancelled solve claims optimality")
	}
	// At most 16 polls return false; each false poll licenses at most
	// 64 further nodes, plus one poll per item that explores nothing.
	if limit := 64 * (16 + 1); sol.Nodes > limit {
		t.Fatalf("explored %d nodes after cancel, want <= %d", sol.Nodes, limit)
	}
	assertFeasible(t, p, sol.X)
}

func TestNilCancelUnchanged(t *testing.T) {
	p := HardDisjoint(2, 6, 3)
	a := Solve(p, Options{})
	b := Solve(p, Options{Cancel: func() bool { return false }})
	if a.Cost != b.Cost || a.Optimal != b.Optimal || a.Cancelled || b.Cancelled {
		t.Fatalf("never-firing cancel changed the result: %+v vs %+v", a, b)
	}
}

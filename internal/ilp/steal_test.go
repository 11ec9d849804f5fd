package ilp

import "testing"

// TestStealStatsDeterministicFields: every StealStats field is part of
// the deterministic schedule (epoch count, scheduled items, bound
// broadcasts), so repeated solves of one instance report identical
// stats, and a hard instance suspends and re-splits.
func TestStealStatsDeterministicFields(t *testing.T) {
	p := HardOverlap(8, 12, 6)
	var first StealStats
	Solve(p, Options{MaxNodes: 50000, Stats: &first})
	if first.Epochs < 2 || first.Items < 2 {
		t.Fatalf("hard instance should suspend and re-split: %+v", first)
	}
	for run := 0; run < 2; run++ {
		var got StealStats
		Solve(p, Options{MaxNodes: 50000, Stats: &got})
		if got != first {
			t.Fatalf("run %d: stats %+v != first %+v", run, got, first)
		}
	}
}

// TestStealStatsAccumulate: Stats sums across Solve calls rather than
// being reset, so one counter can aggregate a whole allocation run.
func TestStealStatsAccumulate(t *testing.T) {
	p := HardOverlap(6, 10, 5)
	var stats StealStats
	Solve(p, Options{Stats: &stats})
	once := stats
	Solve(p, Options{Stats: &stats})
	if stats.Epochs != 2*once.Epochs || stats.Items != 2*once.Items {
		t.Fatalf("stats did not accumulate: once %+v twice %+v", once, stats)
	}
}

// TestMaxNodesEnforcedExactly: admission control trims the last chunk,
// so the per-component node budget is a hard cap, not a soft target
// with per-item overshoot.
func TestMaxNodesEnforcedExactly(t *testing.T) {
	p := HardOverlap(8, 12, 6) // one component, needs >500k nodes
	for _, budget := range []int{1, 100, 5000} {
		sol := Solve(p, Options{MaxNodes: budget})
		if sol.Nodes > budget {
			t.Fatalf("budget %d exceeded: %d nodes", budget, sol.Nodes)
		}
		if sol.Optimal {
			t.Fatalf("budget %d cannot prove optimality on this instance", budget)
		}
		assertFeasible(t, p, sol.X)
	}
}

// TestBudgetPrefixMonotonic: a budget-limited solve explores a prefix
// of the full search, so it can never report a cost BELOW what the
// full search reached (that would mean the truncation changed the
// exploration order), and it always stays feasible.
func TestBudgetPrefixMonotonic(t *testing.T) {
	p := HardOverlap(8, 12, 6)
	full := Solve(p, Options{})
	for _, budget := range []int{100, 2000, 20000} {
		sol := Solve(p, Options{MaxNodes: budget})
		if sol.Cost < full.Cost {
			t.Fatalf("budget %d found cost %v below the %v a larger budget reached", budget, sol.Cost, full.Cost)
		}
		assertFeasible(t, p, sol.X)
	}
}

// TestSearchPinned pins the exact search on the two hard families at
// a 50000-node budget: cost, assignment, effort counters and the
// epoch schedule. The epoch engine is the solver's determinism
// contract, so any change to admission, chunking, frontier order or
// the item-order reduce shows up here as a changed count.
func TestSearchPinned(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		p                         Problem
		cost                      float64
		optimal                   bool
		nodes, pruned             int
		epochs, items, broadcasts int64
		x                         []int // indices of the variables set to 1; nil: not pinned
	}{
		{name: "disjoint", p: HardDisjoint(8, 12, 6), cost: 500, optimal: true,
			nodes: 8, pruned: 8, epochs: 1, items: 8, broadcasts: 0},
		{name: "overlap", p: HardOverlap(8, 12, 6), cost: 273, optimal: false,
			nodes: 50000, pruned: 24914, epochs: 8, items: 81, broadcasts: 3,
			x: []int{0, 3, 6, 8, 9, 11, 13, 17, 18, 19, 21, 23, 24, 25, 30, 31, 32, 33, 36, 39, 42, 44, 45, 46, 47, 52}},
	} {
		var st StealStats
		sol := Solve(tc.p, Options{MaxNodes: 50000, Stats: &st})
		if sol.Cost != tc.cost || sol.Optimal != tc.optimal || sol.Nodes != tc.nodes || sol.Pruned != tc.pruned {
			t.Errorf("%s: cost %v optimal %v nodes %d pruned %d, want %v %v %d %d",
				tc.name, sol.Cost, sol.Optimal, sol.Nodes, sol.Pruned, tc.cost, tc.optimal, tc.nodes, tc.pruned)
		}
		if st.Epochs != tc.epochs || st.Items != tc.items || st.Broadcasts != tc.broadcasts {
			t.Errorf("%s: epochs %d items %d broadcasts %d, want %d %d %d",
				tc.name, st.Epochs, st.Items, st.Broadcasts, tc.epochs, tc.items, tc.broadcasts)
		}
		if tc.x == nil {
			continue
		}
		var on []int
		for v, b := range sol.X {
			if b {
				on = append(on, v)
			}
		}
		if len(on) != len(tc.x) {
			t.Fatalf("%s: assignment %v, want %v", tc.name, on, tc.x)
		}
		for i := range on {
			if on[i] != tc.x[i] {
				t.Fatalf("%s: assignment %v, want %v", tc.name, on, tc.x)
			}
		}
	}
}

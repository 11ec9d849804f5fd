package ilp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomInstance builds a seeded random covering instance; withExcl
// adds exclusivity pairs (which can make it infeasible).
func randomInstance(rng *rand.Rand, n, cons int, withExcl bool) Problem {
	p := Problem{Costs: make([]float64, n)}
	for i := range p.Costs {
		p.Costs[i] = float64(1 + rng.Intn(20))
	}
	for c := 0; c < cons; c++ {
		var vars []int
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			continue
		}
		p.Constraints = append(p.Constraints, Constraint{Vars: vars, Need: 1 + rng.Intn(len(vars))})
	}
	if withExcl {
		for g := 0; g < 1+rng.Intn(3); g++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				p.Exclusive = append(p.Exclusive, []int{a, b})
			}
		}
	}
	return p
}

// TestParallelSolveMatchesSerial: Solve keeps no shared state, so
// concurrent solves — the compile service runs one per in-flight
// ospill or coalesce request — return exactly what the same solves
// return one at a time: X, Cost, Optimal and the effort counters.
func TestParallelSolveMatchesSerial(t *testing.T) {
	instances := []Problem{
		HardDisjoint(8, 12, 6),
		HardOverlap(8, 12, 6),
		HardOverlap(6, 10, 5),
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		instances = append(instances, randomInstance(rng, 10+rng.Intn(30), 4+rng.Intn(12), trial%2 == 1))
	}
	// A small budget on the hard instances also covers the
	// budget-exhaustion path (Optimal=false).
	opts := Options{MaxNodes: 3000}
	serial := make([]Solution, len(instances))
	for i, p := range instances {
		serial[i] = Solve(p, opts)
	}
	got := make([]Solution, len(instances))
	var wg sync.WaitGroup
	for i, p := range instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Solve(p, opts)
		}()
	}
	wg.Wait()
	for i := range instances {
		if !reflect.DeepEqual(got[i], serial[i]) {
			t.Fatalf("instance %d: concurrent %+v != serial %+v", i, got[i], serial[i])
		}
	}
}

// TestSolveMatchesLegacyOptimum: both solvers are exact, so whenever
// both finish within budget they must agree on the optimal cost —
// LegacySolve is the retained quality oracle.
func TestSolveMatchesLegacyOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		p := randomInstance(rng, 6+rng.Intn(12), 2+rng.Intn(8), trial%3 == 0)
		sol := Solve(p, Options{})
		leg := LegacySolve(p, Options{})
		if !sol.Optimal || !leg.Optimal {
			continue
		}
		if (sol.X == nil) != (leg.X == nil) {
			t.Fatalf("trial %d: feasibility disagreement: new %v legacy %v", trial, sol.X, leg.X)
		}
		if sol.Cost != leg.Cost {
			t.Fatalf("trial %d: new optimum %v != legacy optimum %v (%+v)", trial, sol.Cost, leg.Cost, p)
		}
	}
}

// TestDecompositionCollapsesDisjoint: the decomposition must solve
// the disjoint family at a node count proportional to the number of
// groups, not exponential in it — this is the structural win behind
// the BENCH_ilp.json speedup.
func TestDecompositionCollapsesDisjoint(t *testing.T) {
	p := HardDisjoint(8, 12, 6)
	sol := Solve(p, Options{})
	if !sol.Optimal {
		t.Fatalf("disjoint instance not solved to optimality: %+v", sol)
	}
	if sol.Components != 8 {
		t.Fatalf("components = %d, want 8", sol.Components)
	}
	if sol.Nodes > 1000 {
		t.Fatalf("decomposition missed: %d nodes", sol.Nodes)
	}
	leg := LegacySolve(p, Options{MaxNodes: 50000})
	if cost := leg.Cost; sol.Cost > cost {
		t.Fatalf("decomposed optimum %v worse than legacy incumbent %v", sol.Cost, cost)
	}
}

// TestReductionsFixForcedVariables: a constraint needing all its
// variables is resolved entirely in preprocessing.
func TestReductionsFixForcedVariables(t *testing.T) {
	p := Problem{
		Costs: []float64{3, 4, 5, 1},
		Constraints: []Constraint{
			{Vars: []int{0, 1}, Need: 2},        // forces 0 and 1
			{Vars: []int{0, 2, 3}, Need: 1},     // satisfied by the forcing
			{Vars: []int{2, 3}, Need: 1},        // survives: pick cheapest
			{Vars: []int{2, 3, 3, -5}, Need: 1}, // dominated duplicate
		},
	}
	sol := Solve(p, Options{})
	if !sol.Optimal || sol.Cost != 3+4+1 {
		t.Fatalf("got %+v", sol)
	}
	if !sol.X[0] || !sol.X[1] || !sol.X[3] || sol.X[2] {
		t.Fatalf("assignment %v", sol.X)
	}
	if sol.Reductions == 0 {
		t.Fatal("no reductions recorded")
	}
	if sol.Nodes > 3 {
		t.Fatalf("preprocessing left too much search: %d nodes", sol.Nodes)
	}
}

// TestInfeasibleByExclusivity: preprocessing + search must report the
// LegacySolve contract for infeasible instances (nil X, +Inf cost).
func TestInfeasibleByExclusivity(t *testing.T) {
	p := Problem{
		Costs: []float64{1, 2},
		Constraints: []Constraint{
			{Vars: []int{0}, Need: 1},
			{Vars: []int{1}, Need: 1},
		},
		Exclusive: [][]int{{0, 1}},
	}
	sol := Solve(p, Options{})
	if sol.X != nil || sol.Optimal {
		t.Fatalf("infeasible instance reported %+v", sol)
	}
}

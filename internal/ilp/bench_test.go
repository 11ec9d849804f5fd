package ilp

import "testing"

// BenchmarkILPSolve measures the decomposed solver against the
// retained legacy baseline on the two instance families:
// hard-disjoint (where decomposition collapses the search — the
// BENCH_ilp.json speedup_legacy_serial acceptance number) and
// hard-overlap (one connected component, so the win is per-node
// efficiency). Nodes/sec is reported so throughput regressions are
// visible separately from structural wins.
func BenchmarkILPSolve(b *testing.B) {
	reportNodes := func(b *testing.B, nodes int) {
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	}
	for _, fam := range []struct {
		name string
		p    Problem
	}{{"disjoint", HardDisjoint(8, 12, 6)}, {"overlap", HardOverlap(8, 12, 6)}} {
		b.Run(fam.name+"/legacy", func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes += LegacySolve(fam.p, Options{MaxNodes: 50000}).Nodes
			}
			reportNodes(b, nodes)
		})
		b.Run(fam.name+"/solve", func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes += Solve(fam.p, Options{MaxNodes: 50000}).Nodes
			}
			reportNodes(b, nodes)
		})
	}
}

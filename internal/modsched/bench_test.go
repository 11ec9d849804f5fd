package modsched

import (
	"testing"

	"diffra/internal/vliw"
)

// benchLoop is a high-pressure instance whose joint search genuinely
// burns its node budget at the tight bench geometry (regN 10, diffN 4).
func benchLoop() *Loop {
	return highPressureLoop(10)
}

func BenchmarkModschedPhased(b *testing.B) {
	m := vliw.Default()
	l := benchLoop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := Compile(l, m, 10)
		if err != nil {
			b.Fatal(err)
		}
		regs := KernelRegs(s, 10)
		EncodingCost(s, regs, 10, 4, 40, 1)
	}
}

func BenchmarkModschedJoint(b *testing.B) {
	m := vliw.Default()
	l := benchLoop()
	b.ReportAllocs()
	nodes := 0
	for i := 0; i < b.N; i++ {
		r, err := SolveJoint(l, m, 10, 4, JointOptions{Restarts: 40, Seed: 1, MaxNodes: 20000})
		if err != nil {
			b.Fatal(err)
		}
		nodes += r.Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
}

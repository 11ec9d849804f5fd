package diffra

import (
	"reflect"
	"testing"

	"diffra/internal/workloads"
)

// TestSpillWorkersIgnored: SpillWorkers is kept only so existing
// callers compile; the spill ILP search is serial, so 0, 1 and 8 must
// give identical compiles under both ILP schemes — code, counts,
// assignment and encoding — on every kernel.
func TestSpillWorkersIgnored(t *testing.T) {
	for _, k := range workloads.Kernels() {
		for _, scheme := range []Scheme{OSpill, Coalesce} {
			compile := func(workers int) *Result {
				res, err := CompileFunc(k.F, Options{Scheme: scheme, RegN: 8, DiffN: 4, Restarts: 100, SpillWorkers: workers})
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", k.Name, scheme, workers, err)
				}
				return res
			}
			want := compile(0)
			for _, workers := range []int{1, 8} {
				got := compile(workers)
				if got.Instrs != want.Instrs || got.SpillInstrs != want.SpillInstrs || got.SetLastRegs != want.SetLastRegs {
					t.Fatalf("%s/%s workers=%d: instrs/spills/sets %d/%d/%d, want %d/%d/%d", k.Name, scheme, workers,
						got.Instrs, got.SpillInstrs, got.SetLastRegs, want.Instrs, want.SpillInstrs, want.SetLastRegs)
				}
				if got.F.String() != want.F.String() {
					t.Fatalf("%s/%s workers=%d: allocated code differs", k.Name, scheme, workers)
				}
				if !reflect.DeepEqual(got.Assignment, want.Assignment) {
					t.Fatalf("%s/%s workers=%d: assignment differs", k.Name, scheme, workers)
				}
				if !reflect.DeepEqual(got.Encoding, want.Encoding) {
					t.Fatalf("%s/%s workers=%d: encoding differs", k.Name, scheme, workers)
				}
			}
		}
	}
}

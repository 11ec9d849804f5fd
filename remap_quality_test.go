package diffra

import (
	"testing"

	"diffra/internal/remap"
	"diffra/internal/telemetry"
	"diffra/internal/workloads"
)

// kernelGeometries is the RegN/DiffN grid of the default-options
// kernel compiles the remap stop rule is judged on.
var kernelGeometries = [][2]int{{8, 4}, {12, 4}, {12, 8}, {16, 8}}

// TestDefaultRemapKernelQuality guards the remap search's stop rule on
// what a library user runs: the 10 kernels × 4 geometries with default
// options. Summed set_last_regs may not exceed what the fixed
// 1000-restart search left (225/269/69/156 per geometry), and the
// spill count — which remapping never changes — must stay put.
func TestDefaultRemapKernelQuality(t *testing.T) {
	const maxSetLastRegs, wantSpills = 719, 266
	setLastRegs, spills := 0, 0
	for _, g := range kernelGeometries {
		geo := 0
		for _, k := range workloads.Kernels() {
			res, err := CompileFunc(k.F, Options{RegN: g[0], DiffN: g[1]})
			if err != nil {
				t.Fatalf("%s at %d/%d: %v", k.Name, g[0], g[1], err)
			}
			geo += res.SetLastRegs
			spills += res.SpillInstrs
		}
		t.Logf("%d/%d: %d set_last_regs", g[0], g[1], geo)
		setLastRegs += geo
	}
	if setLastRegs > maxSetLastRegs {
		t.Errorf("summed set_last_regs %d, want <= %d", setLastRegs, maxSetLastRegs)
	}
	if spills != wantSpills {
		t.Errorf("summed spill instructions %d, want %d", spills, wantSpills)
	}
}

// TestRemapSpanReportsStop pins the compile/remap span's convergence
// attributes: the best restart's index, why the search stopped, and no
// worker count (the search is serial).
func TestRemapSpanReportsStop(t *testing.T) {
	sink := &telemetry.CollectSink{}
	tr := telemetry.New(sink)
	k := workloads.KernelByName("fft")
	if _, err := CompileFunc(k.F, Options{RegN: 16, DiffN: 8, Telemetry: tr}); err != nil {
		t.Fatal(err)
	}
	span := sink.Last().Find("remap")
	if span == nil {
		t.Fatal("no compile/remap span")
	}
	if stop := span.Attr("stop"); stop != remap.StopPatience {
		t.Errorf("stop = %v, want %s", stop, remap.StopPatience)
	}
	best, ok := span.Attr("best_restart").(int)
	if !ok || best < 0 {
		t.Errorf("best_restart = %v, want a restart index", span.Attr("best_restart"))
	}
	if got := span.Counter("restarts"); got != float64(best+1+remap.Patience) {
		t.Errorf("%v restarts with the best at %d, want best+1+%d", got, best, remap.Patience)
	}
	if span.Attr("workers") != nil {
		t.Errorf("workers = %v, want no attribute", span.Attr("workers"))
	}
}

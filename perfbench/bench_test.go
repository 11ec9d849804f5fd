package main

import (
	"reflect"
	"sort"
	"testing"

	"diffra/internal/ir"
)

func TestSameSeedSameLists(t *testing.T) {
	if !reflect.DeepEqual(kernelOps(7, 40, 3), kernelOps(7, 40, 3)) {
		t.Error("kernelOps differs for the same seed")
	}
	if wideOp(7, 3) != wideOp(7, 3) {
		t.Error("wideOp differs for the same seed")
	}
	if !reflect.DeepEqual(fleetOps(7, 200, fleetRepeat), fleetOps(7, 200, fleetRepeat)) {
		t.Error("fleetOps differs for the same seed")
	}
}

func TestOtherSeedSameShape(t *testing.T) {
	a, b := kernelOps(1, 40, 3), kernelOps(2, 40, 3)
	if reflect.DeepEqual(a, b) {
		t.Error("kernelOps ignores the seed")
	}
	sa, sb := append([]int(nil), a...), append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	if !reflect.DeepEqual(sa, sb) {
		t.Error("kernelOps holds different configs for different seeds")
	}

	for i := 0; i < 2; i++ {
		wa, wb := wideOp(1, i), wideOp(2, i)
		if wa == wb {
			t.Errorf("wide op %d ignores the seed", i)
		}
		fa, err := ir.Parse(wa)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := ir.Parse(wb)
		if err != nil {
			t.Fatal(err)
		}
		if fa.NumInstrs() != fb.NumInstrs() || fa.NumRegs() != fb.NumRegs() || len(fa.Blocks) != len(fb.Blocks) {
			t.Errorf("wide op %d changes shape with the seed", i)
		}
	}

	fa, fb := fleetOps(1, 200, fleetRepeat), fleetOps(2, 200, fleetRepeat)
	if reflect.DeepEqual(fa, fb) {
		t.Error("fleetOps ignores the seed")
	}
	if len(fa) != len(fb) {
		t.Fatalf("fleet streams of %d and %d ops", len(fa), len(fb))
	}
	for _, ops := range [][]fleetOp{fa, fb} {
		seen := make(map[int]bool)
		repeats := 0
		for i, op := range ops {
			if op.repeatOf < 0 {
				if seen[op.req] {
					t.Fatalf("op %d sends pool entry %d a second time as a first request", i, op.req)
				}
				seen[op.req] = true
				continue
			}
			repeats++
			if op.repeatOf >= i || ops[op.repeatOf].repeatOf >= 0 || ops[op.repeatOf].req != op.req {
				t.Fatalf("op %d repeats %d, which is not an earlier first request of entry %d", i, op.repeatOf, op.req)
			}
		}
		if len(seen) != 200 || repeats != len(ops)-200 {
			t.Errorf("stream holds %d distinct and %d repeats", len(seen), repeats)
		}
	}
}

func TestSameSeedSameCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the kernels grid twice")
	}
	var qs []quality
	for i := 0; i < 2; i++ {
		env, err := setupKernels(3, 400)
		if err != nil {
			t.Fatal(err)
		}
		q, bad, err := checkKernels(env)
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range bad {
			if err != nil {
				t.Fatal(err)
			}
		}
		qs = append(qs, q)
	}
	if qs[0] != qs[1] {
		t.Errorf("count metrics differ between runs of one seed: %+v vs %+v", qs[0], qs[1])
	}
}

func TestFleetRunIsCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a loopback fleet")
	}
	var r report
	if err := runFleet(config{workload: "fleet", seed: 5, seconds: 1}, 300, &r); err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 || r.attempted != 300*rounds {
		t.Fatalf("attempted %d failed %d: %v", r.attempted, r.failed, r.problems)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i)
	}
	if v, err := percentile(s, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(s[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	if v, err := percentile(s[:21], 0.5); err != nil || v != 90 {
		t.Errorf("p50 of 80..100 = %v, %v; want 90", v, err)
	}
}

func TestTimedReplaysInRounds(t *testing.T) {
	const n = 30
	starts, stops, calls := 0, 0, 0
	ph, err := timed(n, func() (func(int) error, func(), error) {
		starts++
		next := 0
		return func(i int) error {
			if i != next {
				t.Errorf("round %d: op %d ran when op %d was due", starts, i, next)
			}
			next++
			calls++
			return nil
		}, func() { stops++ }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if starts != rounds || stops != rounds || calls != rounds*n || len(ph.lat) != rounds || len(ph.meters) != rounds {
		t.Errorf("%d starts, %d stops, %d calls, %d rounds timed; want %d, %d, %d, %d",
			starts, stops, calls, len(ph.lat), rounds, rounds, rounds*n, rounds)
	}
}

func TestBestTakesFastestReplayOfClass(t *testing.T) {
	ph := &phase{
		lat: [][]float64{{5, 1, 9}, {4, 6, 2}, {7, 3, 8}},
		cpu: [][]float64{{4, 2, 9}, {5, 6, 1}, {7, 1, 8}},
	}
	lat, cpu := ph.best(nil)
	if want := []float64{4, 1, 2}; !reflect.DeepEqual(lat, want) {
		t.Errorf("best latency per operation = %v, want %v", lat, want)
	}
	if want := []float64{4, 1, 1}; !reflect.DeepEqual(cpu, want) {
		t.Errorf("best CPU time per operation = %v, want %v", cpu, want)
	}
	sameFirstLast := func(i int) int { return i % 2 }
	if lat, _ := ph.best(sameFirstLast); !reflect.DeepEqual(lat, []float64{2, 1, 2}) {
		t.Errorf("best latency per class = %v, want [2 1 2]", lat)
	}
}

// TestTracedRunsReconcile runs each traced replay on a short list: the
// staged replay must reproduce every facade result, and every per-layer
// metric must be reported once, in order.
func TestTracedRunsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles through every layer")
	}
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	for _, tc := range []struct {
		workload string
		n        int
	}{{"kernels", 400}, {"wide", 3}, {"fleet", 150}} {
		var r report
		cfg := config{workload: tc.workload, seed: 9, seconds: 1, trace: true}
		if err := workloadTable[tc.workload].trace(cfg, tc.n, &r); err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if r.failed > 0 || r.attempted != tc.n {
			t.Errorf("%s: attempted %d failed %d: %v", tc.workload, r.attempted, r.failed, r.problems)
		}
		if len(r.metrics) != len(layerNames) {
			t.Fatalf("%s: %d metrics, want %d", tc.workload, len(r.metrics), len(layerNames))
		}
		for i, m := range r.metrics {
			if m.name != layerNames[i].name {
				t.Errorf("%s: metric %d is %s, want %s", tc.workload, i, m.name, layerNames[i].name)
			}
		}
	}
}

// Package diffra_test hosts the benchmark harness that regenerates
// every table and figure of the paper's evaluation (§10). Each
// Benchmark* below corresponds to one figure or table; the headline
// numbers are emitted as custom benchmark metrics so that
//
//	go test -bench=. -benchmem
//
// reproduces the same rows the paper reports (shape, not absolute
// values — see EXPERIMENTS.md). The full-size runs live in cmd/lowend
// and cmd/vliwbench; the benchmarks use reduced search effort and a
// population sample to stay in benchmark time.
package diffra_test

import (
	"testing"

	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/experiments"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/modsched"
	"diffra/internal/pipeline"
	"diffra/internal/remap"
	"diffra/internal/scratch"
	"diffra/internal/vliw"
	"diffra/internal/workloads"
)

func lowEndCfg() experiments.LowEndConfig {
	cfg := experiments.DefaultLowEnd()
	cfg.Restarts = 60
	return cfg
}

func vliwCfg() experiments.VLIWConfig {
	cfg := experiments.DefaultVLIW()
	cfg.Loops = 120
	cfg.Restarts = 10
	return cfg
}

// BenchmarkFig11Spills regenerates Figure 11: average static spill
// percentage per scheme.
func BenchmarkFig11Spills(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range experiments.Schemes() {
		b.ReportMetric(rep.AvgSpillPct(s), "spill%/"+s)
	}
}

// BenchmarkFig12Cost regenerates Figure 12: average set_last_reg
// percentage for the three differential schemes.
func BenchmarkFig12Cost(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range []string{experiments.SchemeRemap, experiments.SchemeSelect, experiments.SchemeCoalesce} {
		b.ReportMetric(rep.AvgCostPct(s), "cost%/"+s)
	}
}

// BenchmarkFig13CodeSize regenerates Figure 13: code size normalized
// to the baseline.
func BenchmarkFig13CodeSize(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range experiments.Schemes() {
		b.ReportMetric(rep.AvgCodeSize(s), "size/"+s)
	}
}

// BenchmarkFig14Speedup regenerates Figure 14: simulated speedup over
// the baseline on the low-end pipeline.
func BenchmarkFig14Speedup(b *testing.B) {
	var rep *experiments.LowEndReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunLowEnd(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range []string{experiments.SchemeRemap, experiments.SchemeSelect, experiments.SchemeOSpill, experiments.SchemeCoalesce} {
		b.ReportMetric(rep.AvgSpeedup(s), "speedup%/"+s)
	}
}

// BenchmarkTable2Speedup regenerates Table 2: software-pipelining
// speedups per RegN (40..64) over the RegN=32 baseline.
func BenchmarkTable2Speedup(b *testing.B) {
	var rep *experiments.VLIWReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunVLIW(vliwCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rep.Rows {
		b.ReportMetric(row.SpeedupAll, "speedup%/all/regn"+itoa(row.RegN))
	}
}

// BenchmarkTable3Spills regenerates Table 3: spills in optimized loops
// and overall code growth per RegN.
func BenchmarkTable3Spills(b *testing.B) {
	var rep *experiments.VLIWReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunVLIW(vliwCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rep.Rows {
		b.ReportMetric(float64(row.SpillsOptimized), "spills/regn"+itoa(row.RegN))
		b.ReportMetric(row.GrowthAllCode, "growth%/regn"+itoa(row.RegN))
	}
}

// ---- component micro-benchmarks ----

// BenchmarkIRCAllocate measures the baseline allocator on the largest
// kernel: the flat-state engine with a warm arena (the steady-state
// service configuration) against the retained map-based legacy
// formulation. The two produce identical assignments (see
// TestAllocateMatchesLegacy); only machinery and allocation behavior
// differ.
func BenchmarkIRCAllocate(b *testing.B) {
	k := workloads.KernelByName("susan")
	b.Run("flat", func(b *testing.B) {
		ar := new(scratch.Arena)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := irc.Allocate(k.F, irc.Options{K: 8, Scratch: ar}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := irc.LegacyAllocate(k.F, irc.Options{K: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiffEncode measures differential encoding of an allocated
// kernel.
func BenchmarkDiffEncode(b *testing.B) {
	k := workloads.KernelByName("sha")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		b.Fatal(err)
	}
	cfg := diffenc.Config{RegN: 12, DiffN: 8}
	regOf := func(r ir.Reg) int { return asn.Color[r] }
	ar := new(scratch.Arena)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		if _, err := diffenc.EncodeScratch(out, regOf, cfg, ar); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemapGreedy measures the §5 permutation search: the
// retained map-graph baseline (legacy) against the CSR engine.
// cmd/benchjson runs the same cases and persists them to
// BENCH_remap.json.
func BenchmarkRemapGreedy(b *testing.B) {
	k := workloads.KernelByName("bitcount")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		b.Fatal(err)
	}
	g := adjacency.BuildReg(out, func(r ir.Reg) int { return asn.Color[r] }, 12)
	opts := remap.Options{RegN: 12, DiffN: 8, Restarts: 100, Seed: 1}
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			remap.LegacyGreedy(g, opts)
		}
	})
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		var evals int
		for i := 0; i < b.N; i++ {
			evals += remap.Greedy(g, opts).Evaluated
		}
		b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
	})
}

// BenchmarkModuloSchedule measures the software pipeliner on a
// high-pressure loop.
func BenchmarkModuloSchedule(b *testing.B) {
	loops := workloads.SPECLoops(42, 200)
	var big *modsched.Loop
	m := vliw.Default()
	for _, l := range loops {
		if big == nil || len(l.Ops) > len(big.Ops) {
			big = l
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := modsched.Compile(big, m, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSim measures the cycle-level simulator on one
// kernel end to end.
func BenchmarkPipelineSim(b *testing.B) {
	k := workloads.KernelByName("crc32")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 8})
	if err != nil {
		b.Fatal(err)
	}
	m, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.Run(out, asn, pipeline.RunOptions{Args: k.Args, OrigParams: k.F.Params, Mem: k.Mem}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationSelective regenerates the §8.2 ablation: total
// cycles of always-direct, always-differential and selective policies.
func BenchmarkAblationSelective(b *testing.B) {
	var rows []experiments.SelectiveResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSelective(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	var base, diff, sel float64
	for _, r := range rows {
		base += float64(r.Baseline)
		diff += float64(r.Differential)
		sel += float64(r.Selective)
	}
	b.ReportMetric(base, "cycles/baseline")
	b.ReportMetric(diff, "cycles/differential")
	b.ReportMetric(sel, "cycles/selective")
}

// BenchmarkAblationAlternatives regenerates the §9.4 ablation: total
// set_last_reg counts under the three encoding variants.
func BenchmarkAblationAlternatives(b *testing.B) {
	var rows []experiments.AlternativeResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunAlternatives(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	var sf, df, pi float64
	for _, r := range rows {
		sf += float64(r.SrcFirstPerField)
		df += float64(r.DstFirstPerField)
		pi += float64(r.SrcFirstPerInstr)
	}
	b.ReportMetric(sf, "sets/src-first-field")
	b.ReportMetric(df, "sets/dst-first-field")
	b.ReportMetric(pi, "sets/src-first-instr")
}

// BenchmarkAblationProfile regenerates the §4 profile-weighting
// ablation: dynamically executed set_last_reg instructions under
// static vs profiled adjacency weights.
func BenchmarkAblationProfile(b *testing.B) {
	var rows []experiments.ProfileResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunProfileGuided(lowEndCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	var ss, ps float64
	for _, r := range rows {
		ss += float64(r.StaticSets)
		ps += float64(r.ProfileSets)
	}
	b.ReportMetric(ss, "execsets/static")
	b.ReportMetric(ps, "execsets/profile")
}

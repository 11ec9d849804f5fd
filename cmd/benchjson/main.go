// Command benchjson persists the compiler's performance trajectory:
// it runs micro-benchmarks in-process (via testing.Benchmark, so the
// numbers match `go test -bench`) and writes them to a JSON file with
// enough host context to interpret them later. Four suites exist:
//
//	go run ./cmd/benchjson -suite remap    -o BENCH_remap.json
//	go run ./cmd/benchjson -suite ilp      -o BENCH_ilp.json
//	go run ./cmd/benchjson -suite pipeline -o BENCH_pipeline.json
//	go run ./cmd/benchjson -suite alloc    -o BENCH_alloc.json
//
// The remap suite covers the remap-search, encoding and allocator hot
// paths; the ilp suite covers the exact-spilling branch-and-bound
// (decomposed solver vs the retained legacy baseline, plus the
// end-to-end ospill decision on a real kernel); the pipeline suite is
// the end-to-end CompileFunc baseline over the §8 MiBench kernels,
// measured twice — telemetry off (nil tracer, the compiled-out path)
// and with the service's always-on capture attached — so the
// instrumentation overhead is a number in the report, not a guess;
// the alloc suite races the portfolio's two general-purpose backends
// — the SSA fast-path scan against iterated register coalescing — on
// every kernel at the wide K=32 register file, recording a per-kernel
// speedup column and the geometric-mean headline that backs the
// documented "at least 5× lower latency" claim (-min-ssa-speedup
// turns that claim into an exit code for CI).
// The checked-in BENCH_remap.json, BENCH_ilp.json,
// BENCH_pipeline.json and BENCH_alloc.json at the repository root are
// the baselines;
// compare the ns/op, evals/sec, nodes/sec and allocs/op columns
// against the previous revision before accepting a change to either
// hot path. -benchtime forwards to the harness (e.g. 100x, 2s) when a
// quick smoke run is enough.
//
// -baseline FILE turns a run into a regression gate: every benchmark
// whose name appears in both the fresh run and FILE has its allocs/op
// compared, and the process exits non-zero if any lane regressed by
// more than -max-alloc-regress-pct percent (plus a small absolute
// floor, so a 2→3 allocs/op jitter never fails a build). CI runs the
// pipeline suite at -benchtime 1x against the committed
// BENCH_pipeline.json this way; the suites pre-warm their scratch
// arenas so even a single-iteration run measures the steady state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"diffra"
	"diffra/internal/adjacency"
	"diffra/internal/diffenc"
	"diffra/internal/experiments"
	"diffra/internal/ilp"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/modsched"
	"diffra/internal/ospill"
	"diffra/internal/remap"
	"diffra/internal/scratch"
	"diffra/internal/ssaalloc"
	"diffra/internal/telemetry"
	"diffra/internal/vliw"
	"diffra/internal/workloads"
)

// result is one benchmark row of the JSON report.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EvalsPerSec is the remap searches' cost-evaluation throughput
	// (zero for benchmarks that are not searches).
	EvalsPerSec float64 `json:"evals_per_sec,omitempty"`
	// NodesPerSec is the ILP solvers' branch-and-bound node throughput
	// (zero for benchmarks that are not solves).
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
}

type report struct {
	// Host context: throughput numbers are only comparable on the same
	// hardware, and worker scaling only visible with NumCPU > 1.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Benchmarks []result `json:"benchmarks"`

	// SpeedupCSRSerial is legacy ns/op over the CSR-engine ns/op: the
	// win of the CSR + register-cost-matrix hot path plus the engine's
	// early stop (the legacy search always runs every restart; compare
	// evals_per_sec for the per-evaluation win). (Remap suite only.)
	SpeedupCSRSerial float64 `json:"speedup_csr_serial,omitempty"`

	// SpeedupIRCFlat is legacy allocator ns/op over the flat allocator's
	// ns/op on the susan kernel: the single-threaded win of the
	// index-structure + scratch-arena rebuild of iterated register
	// coalescing. The two lanes' allocs/op columns are the headline —
	// the flat lane runs with a warm arena, the service's steady state.
	// (Remap suite only.)
	SpeedupIRCFlat float64 `json:"speedup_irc_flat,omitempty"`

	// SpeedupLegacySerial is legacy ns/op over the decomposed solver's
	// serial ns/op on the hard-disjoint family — the single-threaded
	// structural win of decomposition + bound strengthening.
	// OverlapNodesPerSecRatio is the decomposed solver's nodes/sec
	// over legacy's on the hard-overlap family: on one connected
	// component ns/op is incomparable (legacy truncates at its node
	// budget while the decomposed solver proves optimality), so the
	// per-node throughput of the flat-arena search is the honest
	// number there. (ILP suite only.)
	SpeedupLegacySerial     float64 `json:"speedup_legacy_serial,omitempty"`
	OverlapNodesPerSecRatio float64 `json:"overlap_nodes_per_sec_ratio,omitempty"`

	// StageShares is the per-stage share of total compile time,
	// aggregated over one traced compile of every kernel: for each
	// depth-1 stage span (allocate, remap, refine, verify, encode,
	// check) the summed stage duration over the summed root duration.
	// Shares need not sum to 1 — time between stages is the
	// pipeline's own glue. (Pipeline suite only.)
	StageShares map[string]float64 `json:"stage_shares,omitempty"`
	// InstrumentationOverheadPct is the measured cost of the
	// service's always-on capture: each kernel's plain and traced
	// benchmarks run back-to-back and the reported number is the
	// median of the per-kernel traced/plain ratios, minus one, in
	// percent — pairing plus the median keeps clock drift and noisy
	// neighbours on a shared box from swamping a sub-percent effect.
	// The acceptance bound is 3%; negative values are measurement
	// noise. (Pipeline suite only.)
	InstrumentationOverheadPct float64 `json:"instrumentation_overhead_pct,omitempty"`

	// AllocSpeedups is IRC ns/op over SSA-scan ns/op per kernel, and
	// SpeedupSSAGeomean their geometric mean — the latency multiple the
	// deadline ladder banks on when it steps a request down to the scan.
	// Per-kernel ratios are paired (the two lanes run back-to-back per
	// kernel) so shared-box drift largely cancels; the geomean keeps one
	// outlier kernel from dominating the headline. (Alloc suite only.)
	AllocSpeedups     map[string]float64 `json:"alloc_speedups,omitempty"`
	SpeedupSSAGeomean float64            `json:"speedup_ssa_geomean,omitempty"`

	// ModschedJoint is the joint-vs-phased comparison over the SPEC-like
	// loop population sample: aggregate set_last_reg and cycle totals
	// under both pipelines, the number of loops the combined search
	// strictly improved, and the branch-and-bound effort. (Modsched
	// suite only.)
	ModschedJoint *modschedJointSummary `json:"modsched_joint,omitempty"`
}

// modschedJointSummary aggregates the joint-vs-phased deltas recorded
// by the modsched suite.
type modschedJointSummary struct {
	Loops            int     `json:"loops"`
	Optimized        int     `json:"optimized"`
	RegN             int     `json:"reg_n"`
	DiffN            int     `json:"diff_n"`
	Improved         int     `json:"improved"`
	SetsPhased       int     `json:"sets_phased"`
	SetsJoint        int     `json:"sets_joint"`
	SpeedupPhasedPct float64 `json:"speedup_phased_pct"`
	SpeedupJointPct  float64 `json:"speedup_joint_pct"`
	BBNodes          int64   `json:"bb_nodes"`
}

// remapWorkload rebuilds the BenchmarkRemapGreedy setup from the root
// benchmark harness: the bitcount kernel allocated at K=12.
func remapWorkload() (*adjacency.Graph, remap.Options, error) {
	k := workloads.KernelByName("bitcount")
	out, asn, err := irc.Allocate(k.F, irc.Options{K: 12})
	if err != nil {
		return nil, remap.Options{}, err
	}
	g := adjacency.BuildReg(out, func(r ir.Reg) int { return asn.Color[r] }, 12)
	return g, remap.Options{RegN: 12, DiffN: 8, Restarts: 100, Seed: 1}, nil
}

func run(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	row := result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if evals, ok := r.Extra["evals/s"]; ok {
		row.EvalsPerSec = evals
	}
	if nodes, ok := r.Extra["nodes/s"]; ok {
		row.NodesPerSec = nodes
	}
	fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %10d allocs/op\n", name, row.NsPerOp, row.AllocsPerOp)
	return row
}

func main() {
	testing.Init()
	suite := flag.String("suite", "remap", "benchmark suite: remap|ilp|pipeline|alloc|modsched")
	out := flag.String("o", "", "output file (- for stdout; default BENCH_<suite>.json)")
	benchtime := flag.String("benchtime", "", "per-benchmark run time or count (e.g. 2s, 100x; default 1s)")
	maxprocs := flag.Int("gomaxprocs", 0, "run suites under this GOMAXPROCS (0 = inherit); recorded in the host block so parallel-worker speedups are attributable")
	baseline := flag.String("baseline", "", "baseline report to gate against: exit non-zero if any shared lane's allocs/op regressed (the CI alloc guard)")
	maxRegress := flag.Float64("max-alloc-regress-pct", 10, "allowed allocs/op growth over -baseline, in percent")
	minSSASpeedup := flag.Float64("min-ssa-speedup", 0, "exit non-zero if the alloc suite's speedup_ssa_geomean falls below this (0 = no gate)")
	flag.Parse()
	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
	}
	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	switch *suite {
	case "remap":
		runRemapSuite(&rep)
	case "ilp":
		runILPSuite(&rep)
	case "pipeline":
		runPipelineSuite(&rep)
	case "alloc":
		runAllocSuite(&rep)
	case "modsched":
		runModschedSuite(&rep)
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q (want remap, ilp, pipeline, alloc or modsched)\n", *suite)
		os.Exit(2)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if *baseline != "" {
		if err := checkAllocRegression(*baseline, &rep, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if *minSSASpeedup > 0 && rep.SpeedupSSAGeomean < *minSSASpeedup {
		fmt.Fprintf(os.Stderr, "benchjson: speedup_ssa_geomean %.2f below the %.2f floor\n",
			rep.SpeedupSSAGeomean, *minSSASpeedup)
		os.Exit(1)
	}
}

// allocNoiseFloor is the absolute allocs/op slack granted on top of
// the percentage budget: lanes in the single digits jitter by a
// handful of allocations (map growth, a pooled buffer minted under
// unlucky timing) and a 2→3 step is a 50% "regression" that means
// nothing. Real hot-loop regressions — a per-iteration map or slice —
// show up as hundreds of allocations and clear both thresholds.
const allocNoiseFloor = 10

// checkAllocRegression compares the fresh report's allocs/op against a
// committed baseline, lane by lane (only names present in both count,
// so adding or retiring lanes never breaks the gate), and returns an
// error naming every lane that grew past maxPct percent plus the
// noise floor.
func checkAllocRegression(path string, rep *report, maxPct float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	byName := map[string]result{}
	for _, r := range base.Benchmarks {
		byName[r.Name] = r
	}
	compared, failed := 0, 0
	for _, r := range rep.Benchmarks {
		b, ok := byName[r.Name]
		if !ok {
			continue
		}
		compared++
		limit := float64(b.AllocsPerOp)*(1+maxPct/100) + allocNoiseFloor
		if float64(r.AllocsPerOp) > limit {
			failed++
			fmt.Fprintf(os.Stderr, "ALLOC REGRESSION %-28s %d allocs/op, baseline %d (limit %.0f)\n",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, limit)
		}
	}
	fmt.Fprintf(os.Stderr, "alloc gate: %d lanes compared against %s, %d over budget\n", compared, path, failed)
	if failed > 0 {
		return fmt.Errorf("%d lane(s) regressed more than %.0f%% over %s", failed, maxPct, path)
	}
	return nil
}

func runRemapSuite(rep *report) {
	g, opts, err := remapWorkload()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	reportEvals := func(b *testing.B, evals int) {
		b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
	}

	rep.Benchmarks = append(rep.Benchmarks, run("RemapGreedy/legacy", func(b *testing.B) {
		b.ReportAllocs()
		evals := 0
		for i := 0; i < b.N; i++ {
			evals += remap.LegacyGreedy(g, opts).Evaluated
		}
		reportEvals(b, evals)
	}))
	rep.Benchmarks = append(rep.Benchmarks, run("RemapGreedy/csr", func(b *testing.B) {
		b.ReportAllocs()
		evals := 0
		for i := 0; i < b.N; i++ {
			evals += remap.Greedy(g, opts).Evaluated
		}
		reportEvals(b, evals)
	}))

	sha := workloads.KernelByName("sha")
	shaOut, shaAsn, err := irc.Allocate(sha.F, irc.Options{K: 12})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	cfg := diffenc.Config{RegN: 12, DiffN: 8}
	regOf := func(r ir.Reg) int { return shaAsn.Color[r] }
	// Warm arena: the encode lane's allocs/op is the steady state the
	// service sees, with the arena's regions already grown.
	ar := new(scratch.Arena)
	if _, err := diffenc.EncodeScratch(shaOut, regOf, cfg, ar); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Benchmarks = append(rep.Benchmarks, run("DiffEncode/sha", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ar.Reset()
			if _, err := diffenc.EncodeScratch(shaOut, regOf, cfg, ar); err != nil {
				b.Fatal(err)
			}
		}
	}))

	susan := workloads.KernelByName("susan")
	if _, _, err := irc.Allocate(susan.F, irc.Options{K: 8, Scratch: ar}); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Benchmarks = append(rep.Benchmarks, run("IRCAllocate/susan/flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := irc.Allocate(susan.F, irc.Options{K: 8, Scratch: ar}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Benchmarks = append(rep.Benchmarks, run("IRCAllocate/susan/legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := irc.LegacyAllocate(susan.F, irc.Options{K: 8}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	byName := map[string]result{}
	for _, r := range rep.Benchmarks {
		byName[r.Name] = r
	}
	if legacy, csr := byName["RemapGreedy/legacy"], byName["RemapGreedy/csr"]; csr.NsPerOp > 0 {
		rep.SpeedupCSRSerial = legacy.NsPerOp / csr.NsPerOp
	}
	if legacy, flat := byName["IRCAllocate/susan/legacy"], byName["IRCAllocate/susan/flat"]; flat.NsPerOp > 0 {
		rep.SpeedupIRCFlat = legacy.NsPerOp / flat.NsPerOp
	}
}

// runILPSuite benchmarks the exact-spilling branch-and-bound on the
// two synthetic hard families (mirroring BenchmarkILPSolve in
// internal/ilp) and the end-to-end ospill decision on the susan
// kernel at K=6, where register pressure forces a non-trivial ILP.
func runILPSuite(rep *report) {
	disjoint := ilp.HardDisjoint(8, 12, 6)
	overlap := ilp.HardOverlap(8, 12, 6)
	reportNodes := func(b *testing.B, nodes int) {
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	}
	families := []struct {
		name string
		p    ilp.Problem
	}{{"disjoint", disjoint}, {"overlap", overlap}}
	for _, fam := range families {
		fam := fam
		rep.Benchmarks = append(rep.Benchmarks, run("ILPSolve/"+fam.name+"/legacy", func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes += ilp.LegacySolve(fam.p, ilp.Options{MaxNodes: 50000}).Nodes
			}
			reportNodes(b, nodes)
		}))
		// The serial lane keeps its historical "workers=1" name so
		// -baseline still pairs it with the committed BENCH_ilp.json.
		rep.Benchmarks = append(rep.Benchmarks, run("ILPSolve/"+fam.name+"/workers=1", func(b *testing.B) {
			b.ReportAllocs()
			nodes := 0
			for i := 0; i < b.N; i++ {
				nodes += ilp.Solve(fam.p, ilp.Options{MaxNodes: 50000}).Nodes
			}
			reportNodes(b, nodes)
		}))
	}

	susan := workloads.KernelByName("susan")
	rep.Benchmarks = append(rep.Benchmarks, run("OspillDecide/susan", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			_, _, st := ospill.DecideSpillsExtended(susan.F, 6, 0)
			nodes += st.ILPNodes
		}
		reportNodes(b, nodes)
	}))

	byName := map[string]result{}
	for _, r := range rep.Benchmarks {
		byName[r.Name] = r
	}
	if legacy, serial := byName["ILPSolve/disjoint/legacy"], byName["ILPSolve/disjoint/workers=1"]; serial.NsPerOp > 0 {
		rep.SpeedupLegacySerial = legacy.NsPerOp / serial.NsPerOp
	}
	if legacy, serial := byName["ILPSolve/overlap/legacy"], byName["ILPSolve/overlap/workers=1"]; legacy.NodesPerSec > 0 {
		rep.OverlapNodesPerSecRatio = serial.NodesPerSec / legacy.NodesPerSec
	}
}

// pipelineOpts is the pipeline suite's fixed configuration: the
// paper's reference point (select scheme, 12 registers, 8 encodable
// differences) at the same restart budget the remap suite uses, so
// one compile stays in the hundreds of microseconds and ten kernels
// fit in a default benchtime run. The shared scratch arena is the
// service's per-worker configuration: CompileFunc resets it between
// phases, so the steady-state allocs/op the suite reports is what a
// warm daemon worker pays per request.
func pipelineOpts(ar *scratch.Arena) diffra.Options {
	return diffra.Options{Scheme: diffra.Select, RegN: 12, DiffN: 8, Restarts: 100, Scratch: ar}
}

// runPipelineSuite benchmarks end-to-end CompileFunc over every §8
// kernel, twice per kernel: Pipeline/<k> with Telemetry nil (the
// compiled-out path — a nil tracer costs nothing) and
// PipelineTraced/<k> with the service's always-on capture attached (a
// fresh CollectSink per compile plus the span→metrics bridge, exactly
// what internal/service wires per request).
//
// The overhead being bounded is sub-percent on a quiet machine, so
// the measurement has to defend itself against scheduler noise: every
// pair runs back-to-back (so drift hits both sides), the whole
// alternating sweep repeats pipelineRounds times, each benchmark's
// reported row is its fastest round (noise on a shared box is
// one-sided — it only ever slows a run down), and the headline
// instrumentation_overhead_pct is the median of the per-kernel
// traced/plain ratios over those minima. stage_shares come from one
// traced compile per kernel.
const pipelineRounds = 3

func runPipelineSuite(rep *report) {
	bridge := &telemetry.MetricsSink{Reg: telemetry.NewRegistry()}
	kernels := workloads.Kernels()
	// Prime the shared arena: one compile of every kernel grows its
	// regions to the suite's high-water mark, so even a -benchtime 1x
	// smoke run (CI's alloc-regression gate) measures the steady state
	// rather than the one-time warm-up.
	ar := new(scratch.Arena)
	for _, k := range kernels {
		if _, err := diffra.CompileFunc(k.F.Clone(), pipelineOpts(ar)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	best := map[string]result{}
	keep := func(row result) {
		if prev, ok := best[row.Name]; !ok || row.NsPerOp < prev.NsPerOp {
			best[row.Name] = row
		}
	}
	for round := 0; round < pipelineRounds; round++ {
		for _, k := range kernels {
			k := k
			keep(run("Pipeline/"+k.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := diffra.CompileFunc(k.F.Clone(), pipelineOpts(ar)); err != nil {
						b.Fatal(err)
					}
				}
			}))
			keep(run("PipelineTraced/"+k.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					capture := &telemetry.CollectSink{}
					opts := pipelineOpts(ar)
					opts.Telemetry = telemetry.New(telemetry.MultiSink{capture, bridge})
					if _, err := diffra.CompileFunc(k.F.Clone(), opts); err != nil {
						b.Fatal(err)
					}
					if capture.Last() == nil {
						b.Fatal("capture lost the span tree")
					}
				}
			}))
		}
	}

	var ratios []float64
	for _, k := range kernels {
		plain, traced := best["Pipeline/"+k.Name], best["PipelineTraced/"+k.Name]
		rep.Benchmarks = append(rep.Benchmarks, plain, traced)
		if plain.NsPerOp > 0 {
			ratios = append(ratios, traced.NsPerOp/plain.NsPerOp)
		}
	}
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		median := ratios[len(ratios)/2]
		if len(ratios)%2 == 0 {
			median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
		}
		rep.InstrumentationOverheadPct = (median - 1) * 100
		fmt.Fprintf(os.Stderr, "instrumentation overhead (median of paired min ratios): %+.2f%%\n",
			rep.InstrumentationOverheadPct)
	}

	var rootDur float64
	stages := map[string]float64{}
	for _, k := range workloads.Kernels() {
		capture := &telemetry.CollectSink{}
		opts := pipelineOpts(ar)
		opts.Telemetry = telemetry.New(capture)
		if _, err := diffra.CompileFunc(k.F.Clone(), opts); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		root := capture.Last()
		rootDur += root.Dur.Seconds()
		for _, c := range root.Children {
			stages[telemetry.NormalizeStage(c.Name)] += c.Dur.Seconds()
		}
	}
	if rootDur > 0 {
		rep.StageShares = map[string]float64{}
		for name, d := range stages {
			rep.StageShares[name] = d / rootDur
		}
	}
}

// allocK is the alloc suite's register-file width. K=32 keeps every
// §8 kernel spill-free, which is the comparison that matters: once
// both backends spill they share RewriteSpills and the gap collapses
// to the rewrite cost, but the deadline ladder steps down precisely
// when allocation itself — not spill insertion — is the budget risk.
const allocK = 32

// runAllocSuite races ssaalloc.Allocate against irc.Allocate on every
// §8 kernel, back-to-back per kernel so shared-box drift hits both
// lanes of a ratio. Both lanes run on pre-warmed private arenas, the
// daemon worker's steady state; the SSA lane's allocs/op column is
// the same number the root TestAllocBudget pins.
func runAllocSuite(rep *report) {
	kernels := workloads.Kernels()
	ssaAr, ircAr := new(scratch.Arena), new(scratch.Arena)
	for _, k := range kernels {
		if _, _, err := ssaalloc.Allocate(k.F, ssaalloc.Options{K: allocK, Scratch: ssaAr}); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if _, _, err := irc.Allocate(k.F, irc.Options{K: allocK, Scratch: ircAr}); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	rep.AllocSpeedups = map[string]float64{}
	logSum := 0.0
	for _, k := range kernels {
		k := k
		ssa := run("AllocSSA/"+k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ssaalloc.Allocate(k.F, ssaalloc.Options{K: allocK, Scratch: ssaAr}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ircRow := run("AllocIRC/"+k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := irc.Allocate(k.F, irc.Options{K: allocK, Scratch: ircAr}); err != nil {
					b.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, ssa, ircRow)
		speedup := ircRow.NsPerOp / ssa.NsPerOp
		rep.AllocSpeedups[k.Name] = speedup
		logSum += math.Log(speedup)
		fmt.Fprintf(os.Stderr, "%-28s %6.2fx\n", "speedup/"+k.Name, speedup)
	}
	rep.SpeedupSSAGeomean = math.Exp(logSum / float64(len(kernels)))
	fmt.Fprintf(os.Stderr, "ssa-over-irc speedup (geomean): %.2fx\n", rep.SpeedupSSAGeomean)
}

// Modsched-suite configuration: the population sample is the first 300
// loops of the seed-42 population (so numbers stay comparable across
// revisions) compared at RegN=56/DiffN=32, the widest sweep point where
// the phased remapper still leaves repairs on the table; the joint
// worker-scaling lanes run a hard optimized loop at a tight geometry so
// the branch-and-bound genuinely burns its node budget.
const (
	modschedSampleLoops = 300
	modschedRegN        = 56
	modschedBenchNodes  = 30000
)

// runModschedSuite benchmarks the phased modulo-scheduling pipeline
// against the joint scheduling × allocation branch-and-bound: a phased
// compile lane, a joint-solve lane with nodes/sec (the epoch engine's
// throughput on ONE connected instance — the case component
// decomposition cannot split), and the aggregate
// joint-vs-phased cost deltas over the population sample.
func runModschedSuite(rep *report) {
	m := vliw.Default()
	loops := workloads.SPECLoops(42, modschedSampleLoops)

	// A deterministic hard instance: the first loop whose joint search
	// exhausts the bench budget at a tight register geometry.
	var hard *modsched.Loop
	for _, l := range loops {
		r, err := modsched.SolveJoint(l, m, 16, 4, modsched.JointOptions{Restarts: 40, Seed: 42, MaxNodes: modschedBenchNodes})
		if err != nil {
			continue
		}
		if !r.Skipped && r.Nodes >= modschedBenchNodes {
			hard = l
			break
		}
	}
	if hard == nil {
		fmt.Fprintln(os.Stderr, "benchjson: no hard joint instance in the sample")
		os.Exit(1)
	}

	rep.Benchmarks = append(rep.Benchmarks, run("ModschedPhased/hard", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := modsched.Compile(hard, m, 16)
			if err != nil {
				b.Fatal(err)
			}
			regs := modsched.KernelRegs(s, 16)
			modsched.EncodingCost(s, regs, 16, 4, 40, 42)
		}
	}))
	reportNodes := func(b *testing.B, nodes int) {
		b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	}
	// The lane keeps its historical "workers=1" name so -baseline
	// still pairs it with the committed BENCH_modsched.json.
	rep.Benchmarks = append(rep.Benchmarks, run("ModschedJoint/workers=1", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			r, err := modsched.SolveJoint(hard, m, 16, 4, modsched.JointOptions{
				Restarts: 40, Seed: 42, MaxNodes: modschedBenchNodes,
			})
			if err != nil {
				b.Fatal(err)
			}
			nodes += r.Nodes
		}
		reportNodes(b, nodes)
	}))

	// Population-level deltas: one RegN sweep point with the joint
	// search on, reusing the experiment driver so the numbers match
	// `vliwbench -joint` exactly.
	cfg := experiments.DefaultVLIW()
	cfg.Loops = modschedSampleLoops
	cfg.RegNs = []int{modschedRegN}
	cfg.Joint = true
	vrep, err := experiments.RunVLIW(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	row := vrep.Rows[0]
	rep.ModschedJoint = &modschedJointSummary{
		Loops:            cfg.Loops,
		Optimized:        vrep.Optimized,
		RegN:             row.RegN,
		DiffN:            cfg.DiffN,
		Improved:         row.JointImproved,
		SetsPhased:       row.SetLastRegs,
		SetsJoint:        row.JointSetLastRegs,
		SpeedupPhasedPct: row.SpeedupOptimized,
		SpeedupJointPct:  row.JointSpeedupOptimized,
		BBNodes:          row.JointNodes,
	}
	fmt.Fprintf(os.Stderr, "joint vs phased (%d loops, RegN=%d): %d improved, sets %d -> %d\n",
		cfg.Loops, row.RegN, row.JointImproved, row.SetLastRegs, row.JointSetLastRegs)
}

// Command perfbench is diffra's end-to-end benchmark. One run replays
// a seeded list of operations against one workload through the public
// entry points, checks every output, and prints every metric by name
// with its unit; the last line of standard output is the JSON result
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 25 --trace 0
//
// and its self-tests with `go test` inside perfbench, a Go module of its
// own so the repository's `go test ./...` leaves it out.
//
// Workloads (load is closed-loop from one caller, which waits for each
// reply before it sends the next request; the process runs on one
// processor, GOMAXPROCS 1):
//
//	kernels  diffra.CompileFunc with default options (Select, IRC,
//	         1000 restarts) over the 10 §8 kernels × RegN/DiffN 8/4,
//	         12/4, 12/8, 16/8.
//	wide     in-process service.Server.Compile of distinct deep-chain
//	         functions (baseline scheme, RegN 32).
//	fleet    POST /compile through a cluster.Router to two service
//	         nodes over loopback HTTP; a fixed share of the stream
//	         repeats earlier requests and hits the result cache.
//
// The seed orders the list. The timed phase replays it `rounds` times,
// each round on fresh servers so every replay meets the same caches,
// and the list holds the workload's rate times --seconds operations
// over all rounds, so a run takes about that long. Each operation's
// latency and CPU time are the least any replay of the same problem
// took: of the same function shape on wide, of the same kernel and
// geometry on kernels, of the same request hitting or missing on
// fleet. With --trace 0 the run reports the end-to-end metrics:
// throughput, latency p50 and p90 with their sample counts, CPU time
// and heap allocation per operation, peak live heap, and the quality
// of the compiled code (spill instructions, Thumb16 code bytes and
// low-end pipeline cycles, each a mean per distinct compile), and the
// share of operations whose output passed its check. With --trace 1 it
// replays the list once, recording a span around every call into a
// layer, and reports each layer's self time and work counts per
// operation, the facade time the layers leave unexplained, probe
// differences for the service, HTTP and router hops, and the gap
// between traced and untraced compiles. The spans are written as JSON
// lines under $PERFBENCH_OUT (default .bench_build/perfbench), beside a
// report holding the host block, the sample counts and the timed
// phase's per-round figures.
//
// Exit status is 1 when any output check fails and 2 when the run
// itself cannot proceed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloadInfo describes one workload: why it is in the benchmark,
// how many operations per second of --seconds its timed phase runs
// over all rounds, and how many fewer the slower traced replay runs.
type workloadInfo struct {
	why        string
	rate       float64
	traceSlow  float64
	e2e, trace func(cfg config, n int, r *report) error
}

var workloadTable = map[string]workloadInfo{
	"kernels": {
		why:  "default-options CompileFunc on the 10 kernels x 4 geometries: what a library user runs; the remap search dominates",
		rate: 80, traceSlow: 2,
		e2e: runKernels, trace: traceKernels,
	},
	"wide": {
		why:  "Server.Compile of distinct deep-chain functions at RegN 32: IRC allocation dominates, remap and diffenc never run",
		rate: 50, traceSlow: 8,
		e2e: runWide, trace: traceWide,
	},
	"fleet": {
		why:  "POST /compile via the router to 2 nodes, 5 schemes uniform: hits and fast misses carry the median, differential-scheme misses the p90",
		rate: 430, traceSlow: 3,
		e2e: runFleet, trace: traceFleet,
	},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported value. samples is the count a sampled
// statistic rests on (0 for others).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report accumulates a run's outcome.
type report struct {
	attempted, failed int
	problems          []string // first failures, for the log
	metrics           []metric
	rounds            []roundReport // the timed phase's rounds, for the run report
	classes           map[string]latencyClass
}

// roundReport summarises one round of a timed phase.
type roundReport struct {
	Ops    int     `json:"ops"`
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	P50MS  float64 `json:"p50_ms"`
	HeapMB float64 `json:"peak_heap_mb"`
}

// latencyClass summarises the timed latencies of one class of
// operations, for the run report.
type latencyClass struct {
	Ops   int     `json:"ops"`
	Share float64 `json:"share"`
	P05MS float64 `json:"p05_ms"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
}

func (r *report) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// fail records a failed check; the run's result turns incorrect.
func (r *report) fail(err error) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, err.Error())
	}
}

// countErrs adds per-operation outcomes to the report.
func (r *report) countErrs(errs []error) {
	r.attempted += len(errs)
	for _, err := range errs {
		if err != nil {
			r.fail(err)
		}
	}
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kernels, wide or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation list")
	flag.IntVar(&cfg.seconds, "seconds", 20, "approximate measured seconds (sizes the operation list)")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	info, ok := workloadTable[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload kernels|wide|fleet --seed N --seconds N --trace 0|1\n")
		os.Exit(2)
	}
	n := int(info.rate*float64(cfg.seconds) + 0.5)
	run := info.e2e
	if !cfg.trace {
		// A list long enough for its p90 to have minBeyond samples
		// beyond it.
		n = max((n+rounds-1)/rounds, 10*minBeyond)
	} else {
		n = int(float64(n)/info.traceSlow + 0.5)
		run = info.trace
	}
	// One processor: the benchmark, the servers it starts and the
	// program's own goroutines (the remapping search's workers, at the
	// default RemapWorkers 0, and the collector) share one, so a run
	// never waits for a second vCPU that a shared host may be lending
	// elsewhere. Run to run, this spread less than two processors did.
	runtime.GOMAXPROCS(1)
	var r report
	if err := run(cfg, n, &r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(2)
	}
	if err := emit(cfg, info, &r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// outDir is where reports and spans go: $PERFBENCH_OUT, or
// .bench_build/perfbench under the working directory.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "perfbench")
}

// hostBlock describes where and how the run was made.
func hostBlock(cfg config, info workloadInfo) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"workload":   cfg.workload,
		"why":        info.why,
	}
}

// emit prints the host block and one line per metric, writes the run
// report, and ends standard output with the JSON result.
func emit(cfg config, info workloadInfo, r *report) error {
	host := hostBlock(cfg, info)
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", hb)
	for _, p := range r.problems {
		fmt.Printf("# FAILED %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(r.metrics))
	samples := make(map[string]int)
	for _, m := range r.metrics {
		line := fmt.Sprintf("# %-28s %14.6g %s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf("  (n=%d)", m.samples)
			samples[m.name] = m.samples
		}
		fmt.Println(line)
		vals[m.name] = value{m.value, m.unit}
	}
	result := map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   vals,
	}
	if err := writeReport(cfg, map[string]any{"host": host, "samples": samples, "rounds": r.rounds, "classes": r.classes, "result": result}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run report not written: %v\n", err)
	}
	out, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func writeReport(cfg config, v any) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// writeSpans writes a traced run's spans as JSON lines.
func writeSpans(cfg config, rec *recorder) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupRuns is how many times a run sets its workload up; setup_s is
// the median.
const setupRuns = 7

// setUp runs setup setupRuns times, each from a collected heap,
// tearing down all but the last environment, and returns it with each
// set-up time in seconds.
func setUp[E any](setup func() (E, error), teardown func(E)) (E, []float64, error) {
	var env E
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			teardown(env)
		}
		runtime.GC()
		t := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		env = e
	}
	return env, times, nil
}

// rounds is how many times a timed phase replays its operation list.
// Load from elsewhere on a shared host comes and goes within seconds;
// an operation's best of several replays, spread over the run, is the
// time it takes when that load is away, and it moves far less from run
// to run than any time a single replay gives.
const rounds = 10

// phase is a timed phase: an operation list replayed rounds times.
type phase struct {
	lat    [][]float64 // per round, per operation: wall time, milliseconds
	cpu    [][]float64 // per round, per operation: process CPU time, milliseconds
	errs   [][]error   // per round, per operation
	meters []*meter    // per round
}

// timed replays operations 0..n-1 rounds times on one caller, which
// sends the next operation once the previous one has returned (a
// closed loop), in list order, timing each operation's wall and
// process CPU time and metering each round. start runs
// untimed before each round and returns the round's operation and the
// teardown to run untimed after it.
func timed(n int, start func() (do func(i int) error, stop func(), err error)) (*phase, error) {
	ph := &phase{}
	for r := 0; r < rounds; r++ {
		do, stop, err := start()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		lat, cpu, errs := make([]float64, n), make([]float64, n), make([]error, n)
		m := startMeter()
		for i := 0; i < n; i++ {
			c := cpuTime()
			t := time.Now()
			errs[i] = do(i)
			lat[i] = ms(time.Since(t))
			cpu[i] = ms(cpuTime() - c)
		}
		m.stop()
		stop()
		ph.lat = append(ph.lat, lat)
		ph.cpu = append(ph.cpu, cpu)
		ph.errs = append(ph.errs, errs)
		ph.meters = append(ph.meters, m)
	}
	return ph, nil
}

// best is each operation's wall and CPU time: the least of any replay
// of any operation of its class. class(i) names the compile problem
// operation i poses, so operations posing the same problem share their
// best times; nil gives each operation a class of its own.
func (ph *phase) best(class func(i int) int) (lat, cpu []float64) {
	if class == nil {
		class = func(i int) int { return i }
	}
	least := func(samples [][]float64) []float64 {
		byClass := map[int]float64{}
		for _, round := range samples {
			for i, v := range round {
				if m, ok := byClass[class(i)]; !ok || v < m {
					byClass[class(i)] = v
				}
			}
		}
		out := make([]float64, len(samples[0]))
		for i := range out {
			out[i] = byClass[class(i)]
		}
		return out
	}
	return least(ph.lat), least(ph.cpu)
}

// quality is the compile output a workload reports, each a mean per
// distinct compile of the list.
type quality struct {
	spillInstrs, codeBytes, simCycles float64
}

// endToEnd adds the end-to-end metrics of a timed phase, with its
// operations classed by class (see phase.best). Latencies are the
// operations' best; throughput is the list's operations per second at
// those latencies, and CPU time per operation the mean of their best.
func endToEnd(r *report, setups []float64, ph *phase, class func(int) int, q quality) error {
	for _, errs := range ph.errs {
		r.countErrs(errs)
	}
	lat, cpu := ph.best(class)
	n := len(lat)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return err
	}
	p90, err := percentile(lat, 0.90)
	if err != nil {
		return err
	}
	var latSum, cpuSum float64
	for i := range lat {
		latSum += lat[i]
		cpuSum += cpu[i]
	}
	var alloc uint64
	heap := make([]float64, len(ph.meters))
	for k, m := range ph.meters {
		alloc += m.alloc
		heap[k] = float64(m.peakHeap) / (1 << 20)
		r.rounds = append(r.rounds, roundReport{
			Ops: n, WallS: m.wall.Seconds(), CPUS: m.cpu.Seconds(), P50MS: median(ph.lat[k]), HeapMB: heap[k],
		})
	}
	r.add("setup_s", median(setups), "s", len(setups))
	r.add("throughput_ops_s", 1000*float64(n)/latSum, "ops/s", n)
	r.add("latency_p50_ms", p50, "ms", n)
	r.add("latency_p90_ms", p90, "ms", n)
	r.add("cpu_ms_per_op", cpuSum/float64(n), "ms", n)
	r.add("alloc_mb_per_op", float64(alloc)/float64(n*len(ph.meters))/(1<<20), "MB", n*len(ph.meters))
	r.add("peak_heap_mb", median(heap), "MB", len(heap))
	r.add("spill_instrs", q.spillInstrs, "count", 0)
	r.add("code_bytes", q.codeBytes, "B", 0)
	r.add("sim_cycles", q.simCycles, "cycles", 0)
	ok := float64(r.attempted-r.failed) / float64(r.attempted)
	r.add("ok_frac", ok, "frac", r.attempted)
	return nil
}

// layerNames are the per-layer metrics every traced run reports, in
// order, with their units. A layer a workload never calls reads 0.
var layerNames = []struct{ name, unit string }{
	{"remap.search_ms", "ms"}, {"remap.evaluated", "count"}, {"remap.best_cost", "count"},
	{"irc.allocate_ms", "ms"}, {"irc.alloc_mb", "MB"}, {"irc.rounds", "count"}, {"irc.spilled_vregs", "count"},
	{"diffsel.refine_ms", "ms"}, {"diffsel.recolored", "count"},
	{"ir.parse_ms", "ms"}, {"regalloc.verify_ms", "ms"},
	{"diffenc.encode_ms", "ms"}, {"diffenc.check_ms", "ms"}, {"diffenc.sets", "count"}, {"diffenc.join_sets", "count"},
	{"ospill.allocate_ms", "ms"}, {"ilp.nodes", "count"},
	{"facade.residual_ms", "ms"},
	{"service.hit_ms", "ms"}, {"service.miss_overhead_ms", "ms"}, {"service.queue_wait_ms", "ms"},
	{"service.hit_frac", "frac"}, {"service.http_ms", "ms"},
	{"cluster.hop_ms", "ms"}, {"cluster.singleflight_shared", "count"}, {"cluster.failovers", "count"},
	{"trace.overhead_pct", "%"},
}

// layerSpans maps the self-time metrics to the span they sum.
var layerSpans = map[string]string{
	"remap.search_ms":    "remap.search",
	"irc.allocate_ms":    "irc.allocate",
	"diffsel.refine_ms":  "diffsel.refine",
	"ir.parse_ms":        "ir.parse",
	"regalloc.verify_ms": "regalloc.verify",
	"diffenc.encode_ms":  "diffenc.encode",
	"diffenc.check_ms":   "diffenc.check",
	"ospill.allocate_ms": "ospill.allocate",
}

// probe is a per-layer value measured by difference on some
// operations: its mean over those operations is reported.
type probe struct {
	sum float64
	n   int
}

func (p *probe) add(v float64) { p.sum += v; p.n++ }

func (p probe) mean() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum / float64(p.n)
}

// traced is what a traced run collects besides its spans.
type traced struct {
	rec *recorder
	lc  layerCounts
	ops int // operations replayed
	// The untraced facade compiles and the traced staged replays of the
	// same inputs: their count and summed times.
	compiles          int
	facade, stagedDur time.Duration
	probes            map[string]*probe
	counts            map[string]float64 // run totals (cluster counters, hit_frac)
}

func newTraced() *traced {
	return &traced{rec: newRecorder(), probes: map[string]*probe{}, counts: map[string]float64{}}
}

// compiled records one paired facade compile and staged replay.
func (t *traced) compiled(facade, staged time.Duration) {
	t.compiles++
	t.facade += facade
	t.stagedDur += staged
}

func (t *traced) probe(name string) *probe {
	p := t.probes[name]
	if p == nil {
		p = &probe{}
		t.probes[name] = p
	}
	return p
}

// layers adds every per-layer metric. Self times and work counts are
// means per replayed operation, so on one caller they add up to the
// operation's time; probes are means over the operations probed.
func (t *traced) layers(r *report) {
	self := t.rec.selfTimes()
	per := func(v float64) float64 { return v / float64(t.ops) }
	var stagedLayers time.Duration
	for _, s := range t.rec.spans {
		if s.Parent >= 0 && t.rec.spans[s.Parent].Name == "compile" {
			stagedLayers += s.dur()
		}
	}
	vals := map[string]float64{
		"remap.evaluated":   per(t.lc.remapEvaluated),
		"remap.best_cost":   per(t.lc.remapBestCost),
		"irc.alloc_mb":      per(t.lc.ircAllocBytes) / (1 << 20),
		"irc.rounds":        per(t.lc.ircRounds),
		"irc.spilled_vregs": per(t.lc.ircSpilled),
		"diffsel.recolored": per(t.lc.recolored),
		"diffenc.sets":      per(t.lc.sets),
		"diffenc.join_sets": per(t.lc.joinSets),
		"ilp.nodes":         per(t.lc.ilpNodes),
	}
	for name, sp := range layerSpans {
		vals[name] = per(ms(self[sp]))
	}
	if t.compiles > 0 {
		vals["facade.residual_ms"] = ms(t.facade-stagedLayers) / float64(t.compiles)
		vals["trace.overhead_pct"] = 100 * (t.stagedDur.Seconds() - t.facade.Seconds()) / t.facade.Seconds()
	}
	for name, p := range t.probes {
		vals[name] = p.mean()
	}
	for name, v := range t.counts {
		vals[name] = v
	}
	for _, l := range layerNames {
		samples := 0
		if p := t.probes[l.name]; p != nil {
			samples = p.n
		}
		r.add(l.name, vals[l.name], l.unit, samples)
	}
}

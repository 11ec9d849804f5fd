package main

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"time"

	"diffra"
	"diffra/internal/adjacency"
	"diffra/internal/diffcoal"
	"diffra/internal/diffenc"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/irc"
	"diffra/internal/ospill"
	"diffra/internal/regalloc"
	"diffra/internal/remap"
	"diffra/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function. Parent is the index of the
// enclosing span (-1 for an operation's root); Op the operation id.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory. It is used from
// one goroutine.
type recorder struct {
	t0    time.Time
	op    int
	open  []int // stack of open span indices
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes span id, which must be the innermost open one, and
// returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
	return r.spans[id].dur()
}

// selfTimes sums each span name's self time: its duration minus the
// durations of its children.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range r.spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// writeJSONL writes every span as one JSON line.
func (r *recorder) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// layerCounts are the work counts the staged replay reads at the
// layer boundaries, summed over a traced run.
type layerCounts struct {
	remapEvaluated, remapBestCost float64
	ircRounds, ircSpilled         float64
	ircAllocBytes                 float64
	recolored                     float64
	sets, joinSets                float64
	ilpNodes                      float64
}

// staged compiles the way diffra.CompileContext does — ir.Parse when
// f is nil, the backend's Allocate, adjacency.BuildReg + remap.Auto,
// diffsel.Refine, regalloc.Verify, then diffenc.Encode/Check — calling
// each layer's public function under its own span. opts must be
// resolved. The result must equal the facade's; sameResult checks it.
func staged(src string, f *ir.Func, opts diffra.Options, rec *recorder, lc *layerCounts) (*diffra.Result, error) {
	root := rec.begin("compile")
	defer rec.end(root)
	var (
		out *ir.Func
		asn *regalloc.Assignment
		err error
	)
	if f == nil {
		id := rec.begin("ir.parse")
		f, err = ir.Parse(src)
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	switch opts.Alloc {
	case diffra.AllocOSpill:
		id := rec.begin("ospill.allocate")
		var nodes int
		if opts.Scheme == diffra.Coalesce {
			var st *diffcoal.Stats
			out, asn, st, err = diffcoal.Allocate(f, diffcoal.Options{RegN: opts.RegN, DiffN: opts.DiffN, SpillWorkers: opts.SpillWorkers})
			if st != nil {
				nodes = st.Spill.ILPNodes
			}
		} else {
			var st *ospill.Stats
			out, asn, st, err = ospill.Allocate(f, ospill.Options{K: opts.RegN, Workers: opts.SpillWorkers})
			if st != nil {
				nodes = st.ILPNodes
			}
		}
		rec.end(id)
		lc.ilpNodes += float64(nodes)
	case diffra.AllocIRC:
		trace := telemetry.New(nil).Start("allocate") // carries irc's round counter
		iopts := irc.Options{K: opts.RegN, Trace: trace, Scratch: opts.Scratch}
		if opts.Scheme == diffra.Select {
			iopts.PickerFactory = diffsel.NewFactory(diffsel.Params{RegN: opts.RegN, DiffN: opts.DiffN})
		}
		a0 := allocBytes()
		id := rec.begin("irc.allocate")
		out, asn, err = irc.Allocate(f, iopts)
		rec.end(id)
		lc.ircAllocBytes += float64(allocBytes() - a0)
		lc.ircRounds += trace.Counter("rounds")
		if asn != nil {
			lc.ircSpilled += float64(asn.SpilledVRegs)
		}
	default:
		return nil, fmt.Errorf("staged replay: backend %q is outside the benchmark", opts.Alloc)
	}
	if err != nil {
		return nil, err
	}
	color := func(r ir.Reg) int { return asn.Color[r] }
	if opts.Scheme == diffra.Remapping || opts.Scheme == diffra.Select || opts.Scheme == diffra.Coalesce {
		id := rec.begin("remap.search")
		g := adjacency.BuildReg(out, color, opts.RegN)
		perm := remap.Auto(g, remap.Options{RegN: opts.RegN, DiffN: opts.DiffN, Restarts: opts.Restarts, Seed: 1, Workers: opts.RemapWorkers})
		for v, c := range asn.Color {
			if c >= 0 {
				asn.Color[v] = perm.Perm[c]
			}
		}
		rec.end(id)
		lc.remapEvaluated += float64(perm.Evaluated)
		lc.remapBestCost += perm.Cost
	}
	if opts.Scheme == diffra.Select || opts.Scheme == diffra.Coalesce {
		id := rec.begin("diffsel.refine")
		n := diffsel.Refine(out, asn, diffsel.Params{RegN: opts.RegN, DiffN: opts.DiffN})
		rec.end(id)
		lc.recolored += float64(n)
	}
	id := rec.begin("regalloc.verify")
	err = regalloc.Verify(out, asn)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	res := &diffra.Result{F: out, Assignment: asn, AllocBackend: opts.Alloc}
	if opts.Scheme == diffra.Remapping || opts.Scheme == diffra.Select || opts.Scheme == diffra.Coalesce {
		cfg := diffenc.Config{RegN: opts.RegN, DiffN: opts.DiffN}
		if opts.Scratch != nil {
			opts.Scratch.Reset()
		}
		id := rec.begin("diffenc.encode")
		enc, err := diffenc.EncodeScratch(out, color, cfg, opts.Scratch)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("diffenc.check")
		err = diffenc.Check(out, color, cfg, enc)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		id = rec.begin("diffenc.encode")
		enc.ApplyToIR(out)
		rec.end(id)
		res.Encoding = enc
		res.SetLastRegs = enc.Cost()
		lc.sets += float64(enc.Cost())
		lc.joinSets += float64(enc.JoinSets)
	}
	res.SpillInstrs, res.Instrs = regalloc.SpillStats(out)
	return res, nil
}

// sameResult reports how a staged result differs from the facade's:
// in the static counts, the register assignment, or the final code.
func sameResult(facade, stg *diffra.Result) error {
	switch {
	case facade.Instrs != stg.Instrs, facade.SpillInstrs != stg.SpillInstrs, facade.SetLastRegs != stg.SetLastRegs:
		return fmt.Errorf("staged replay counts %d/%d/%d != facade %d/%d/%d (instrs/spills/set_last_regs)",
			stg.Instrs, stg.SpillInstrs, stg.SetLastRegs, facade.Instrs, facade.SpillInstrs, facade.SetLastRegs)
	case !reflect.DeepEqual(facade.Assignment, stg.Assignment):
		return fmt.Errorf("staged replay assignment differs from the facade's")
	case facade.F.String() != stg.F.String():
		return fmt.Errorf("staged replay code differs from the facade's")
	}
	return nil
}

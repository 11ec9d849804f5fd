package main

import (
	"context"
	"fmt"
	"time"

	"diffra"
	"diffra/internal/difftest"
	"diffra/internal/encode"
	"diffra/internal/ir"
	"diffra/internal/pipeline"
	"diffra/internal/service"
)

var wideOpts = diffra.Options{Scheme: diffra.Baseline, RegN: wideRegN}

type wideEnv struct {
	seed int64
	n    int
	srv  *service.Server
}

func wideRequest(src string) service.Request {
	return service.Request{IR: src, Scheme: string(wideOpts.Scheme), RegN: wideOpts.RegN}
}

// setupWide starts a server with the default configuration, warmed by
// two compiles outside the list.
func setupWide(seed int64, n int) (*wideEnv, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if resp := srv.Compile(context.Background(), wideRequest(wideOp(^seed, i))); resp.Error != "" {
			return nil, fmt.Errorf("warm-up compile: %s", resp.Error)
		}
	}
	return &wideEnv{seed: seed, n: n, srv: srv}, nil
}

// wideExpect is the response every list operation of one shape must
// produce: the facade's compile of one function of that shape, checked
// end to end.
type wideExpect struct {
	resp service.Response
	q    quality
}

// checkWide compiles the first function of every shape and the last
// function of the list through the facade, checks each with the
// independent interpreter on difftest.DefaultSpec, simulates it on the
// low-end pipeline, and returns the response each shape's operations
// must match. Functions of one shape differ only in constants, which
// never change the allocation, so the last function must match the
// first of its shape. bad[k] is shape k's first failed check, which the
// caller charges to every operation of that shape.
func checkWide(env *wideEnv) (exp []wideExpect, bad []error, err error) {
	mach, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		return nil, nil, err
	}
	exp, bad = make([]wideExpect, wideShapes), make([]error, wideShapes)
	checked := make([]bool, wideShapes)
	var list []int
	for i := 0; i < wideShapes && i < env.n; i++ {
		list = append(list, i)
	}
	if env.n > wideShapes {
		list = append(list, env.n-1)
	}
	for _, i := range list {
		k := wideShape(i)
		f, err := ir.Parse(wideOp(env.seed, i))
		if err != nil {
			return nil, nil, err
		}
		res, err := diffra.CompileFunc(f, wideOpts)
		if err != nil {
			return nil, nil, fmt.Errorf("facade compile of %s: %w", f.Name, err)
		}
		spec := difftest.DefaultSpec(f)
		var cycles uint64
		err = difftest.CheckCompiled(f, res, spec)
		if err == nil {
			cycles, err = simulate(mach, f, res, spec)
		}
		e := wideExpect{resp: expectedResponse(res, wideOpts), q: quality{
			spillInstrs: float64(res.SpillInstrs),
			codeBytes:   float64(encode.CodeBytes(res.F, encode.Thumb16())),
			simCycles:   float64(cycles),
		}}
		switch {
		case bad[k] != nil:
		case err != nil:
			bad[k] = fmt.Errorf("%s: %w", f.Name, err)
		case !checked[k]:
			exp[k], checked[k] = e, true
		case e != exp[k]:
			bad[k] = fmt.Errorf("%s: functions differing only in constants compiled differently", f.Name)
		}
	}
	return exp, bad, nil
}

// wideQuality is the mean quality over a list of n operations.
func wideQuality(exp []wideExpect, n int) quality {
	var q quality
	for i := 0; i < n; i++ {
		e := exp[wideShape(i)].q
		q.spillInstrs += e.spillInstrs / float64(n)
		q.codeBytes += e.codeBytes / float64(n)
		q.simCycles += e.simCycles / float64(n)
	}
	return q
}

// expectedResponse is the service response a facade result implies,
// without the function name.
func expectedResponse(res *diffra.Result, opts diffra.Options) service.Response {
	opts, _ = opts.Resolved()
	regW, diffW := diffra.FieldWidths(opts.RegN, opts.DiffN)
	resp := service.Response{
		Scheme: string(opts.Scheme), RegN: opts.RegN, DiffN: opts.DiffN,
		Instrs: res.Instrs, SpillInstrs: res.SpillInstrs, SetLastRegs: res.SetLastRegs,
		SpilledVRegs: res.Assignment.SpilledVRegs, CoalescedMoves: res.Assignment.CoalescedMoves,
		RegW: regW, DiffW: diffW, AllocBackend: string(res.AllocBackend),
	}
	if res.Encoding != nil {
		resp.RangeSets, resp.JoinSets = res.Encoding.RangeSets(), res.Encoding.JoinSets
	}
	return resp
}

// sameResponse compares a response with the expected one, ignoring
// the function name and the cached flag.
func sameResponse(got, want service.Response) error {
	if got.Error != "" {
		return fmt.Errorf("%s: %s", got.Func, got.Error)
	}
	got.Func, got.Cached = "", false
	want.Func, want.Cached = "", false
	if got != want {
		return fmt.Errorf("response %+v, facade gives %+v", got, want)
	}
	return nil
}

func runWide(cfg config, n int, r *report) error {
	env, setups, err := setUp(func() (*wideEnv, error) { return setupWide(cfg.seed, n) }, func(*wideEnv) {})
	if err != nil {
		return err
	}
	exp, bad, err := checkWide(env)
	if err != nil {
		return err
	}
	// Every round starts on a new server, so each replay of a function
	// misses the cache. The round's functions are rendered untimed.
	srcs := make([]string, n)
	ph, err := timed(n, func() (func(int) error, func(), error) {
		e, err := setupWide(cfg.seed, n)
		if err != nil {
			return nil, nil, err
		}
		for i := range srcs {
			srcs[i] = wideOp(cfg.seed, i)
		}
		return func(i int) error {
			resp := e.srv.Compile(context.Background(), wideRequest(srcs[i]))
			k := wideShape(i)
			switch {
			case resp.Cached:
				return fmt.Errorf("%s: distinct request served from the cache", resp.Func)
			case bad[k] != nil:
				return bad[k]
			}
			return sameResponse(resp, exp[k].resp)
		}, func() { clear(srcs) }, nil
	})
	if err != nil {
		return err
	}
	// Every function of one shape poses the same compile problem.
	return endToEnd(r, setups, ph, wideShape, wideQuality(exp, n))
}

// traceWide replays the list on one caller. Each operation is a
// Server.Compile miss, a repeat of it (a hit), an untraced facade
// compile and the traced staged replay of the same source: the miss
// overhead is the miss minus the facade compile, and the queue wait
// comes from the request's TraceRecord.
func traceWide(cfg config, n int, r *report) error {
	env, err := setupWide(cfg.seed, n)
	if err != nil {
		return err
	}
	exp, bad, err := checkWide(env)
	if err != nil {
		return err
	}
	opts, err := wideOpts.Resolved()
	if err != nil {
		return err
	}
	t := newTraced()
	errs := make([]error, n)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		src := wideOp(cfg.seed, i)
		t.rec.op = i
		req := wideRequest(src)
		id := t.rec.begin("service.compile")
		miss := env.srv.Compile(ctx, req)
		missDur := t.rec.end(id)
		rec := findTrace(env.srv, miss.Func, false)
		id = t.rec.begin("service.hit")
		hit := env.srv.Compile(ctx, req)
		hitDur := t.rec.end(id)
		start := time.Now()
		fres, ferr := diffra.Compile(src, wideOpts)
		fdur := time.Since(start)
		start = time.Now()
		sres, serr := staged(src, nil, opts, t.rec, &t.lc)
		sdur := time.Since(start)
		switch {
		case bad[wideShape(i)] != nil:
			errs[i] = bad[wideShape(i)]
		case ferr != nil:
			errs[i] = ferr
		case serr != nil:
			errs[i] = serr
		case rec == nil:
			errs[i] = fmt.Errorf("%s: no trace record for the miss", miss.Func)
		case miss.Cached || !hit.Cached:
			errs[i] = fmt.Errorf("%s: cached flags %v then %v, want false then true", miss.Func, miss.Cached, hit.Cached)
		default:
			errs[i] = sameResponse(miss, exp[wideShape(i)].resp)
			if errs[i] == nil {
				errs[i] = sameResult(fres, sres)
			}
		}
		if errs[i] != nil {
			continue
		}
		t.compiled(fdur, sdur)
		t.probe("service.hit_ms").add(ms(hitDur))
		t.probe("service.miss_overhead_ms").add(ms(missDur - fdur))
		t.probe("service.queue_wait_ms").add(float64(rec.QueueUS) / 1000)
	}
	t.ops = n
	r.countErrs(errs)
	t.layers(r)
	return writeSpans(cfg, t.rec)
}

// findTrace returns the newest retained trace record of function fn
// with the given cached flag, or nil.
func findTrace(srv *service.Server, fn string, cached bool) *service.TraceRecord {
	for _, rec := range srv.Traces() {
		if rec.Func == fn && rec.Cached == cached {
			return rec
		}
	}
	return nil
}

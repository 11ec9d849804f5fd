package main

import (
	"fmt"
	"time"

	"diffra"
	"diffra/internal/difftest"
	"diffra/internal/encode"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/pipeline"
	"diffra/internal/workloads"
)

// kernelConfig is one distinct compile of the kernels workload.
type kernelConfig struct {
	k    workloads.Kernel
	opts diffra.Options
}

type kernelsEnv struct {
	configs []kernelConfig
	ops     []int            // config index per operation
	ref     []*diffra.Result // each config's warm-up compile, checked before the run
}

// setupKernels builds the kernels, the operation list of about n
// compiles, and compiles every config once so the timed phase starts
// warm.
func setupKernels(seed int64, n int) (*kernelsEnv, error) {
	env := &kernelsEnv{}
	for _, g := range geometries {
		for _, k := range workloads.Kernels() {
			env.configs = append(env.configs, kernelConfig{k, diffra.Options{RegN: g[0], DiffN: g[1]}})
		}
	}
	passes := (n + len(env.configs) - 1) / len(env.configs)
	env.ops = kernelOps(seed, len(env.configs), passes)
	for _, c := range env.configs {
		res, err := diffra.CompileFunc(c.k.F, c.opts)
		if err != nil {
			return nil, fmt.Errorf("%s at %d/%d: %w", c.k.Name, c.opts.RegN, c.opts.DiffN, err)
		}
		env.ref = append(env.ref, res)
	}
	return env, nil
}

// sameCounts checks a compile against its config's checked one.
func sameCounts(c kernelConfig, want, got *diffra.Result) error {
	if got.Instrs != want.Instrs || got.SpillInstrs != want.SpillInstrs || got.SetLastRegs != want.SetLastRegs {
		return fmt.Errorf("%s at %d/%d: instrs/spills/set_last_regs %d/%d/%d, checked compile gave %d/%d/%d",
			c.k.Name, c.opts.RegN, c.opts.DiffN, got.Instrs, got.SpillInstrs, got.SetLastRegs,
			want.Instrs, want.SpillInstrs, want.SetLastRegs)
	}
	return nil
}

func runKernels(cfg config, n int, r *report) error {
	env, setups, err := setUp(func() (*kernelsEnv, error) { return setupKernels(cfg.seed, n) }, func(*kernelsEnv) {})
	if err != nil {
		return err
	}
	q, bad, err := checkKernels(env)
	if err != nil {
		return err
	}
	ph, err := timed(len(env.ops), func() (func(int) error, func(), error) {
		return func(i int) error {
			ci := env.ops[i]
			res, err := diffra.CompileFunc(env.configs[ci].k.F, env.configs[ci].opts)
			switch {
			case err != nil:
				return err
			case bad[ci] != nil:
				return bad[ci]
			}
			return sameCounts(env.configs[ci], env.ref[ci], res)
		}, func() {}, nil
	})
	if err != nil {
		return err
	}
	// Every compile of one kernel and geometry is the same problem.
	return endToEnd(r, setups, ph, func(i int) int { return env.ops[i] }, q)
}

// checkKernels checks each config's compile once with the independent
// interpreter and both stream-decode models, simulates it on the
// low-end pipeline with the kernel's own input, and requires the
// simulated return value to equal the source's. bad holds each
// config's failed check, which the caller charges to every operation
// of that config.
func checkKernels(env *kernelsEnv) (q quality, bad []error, err error) {
	mach, err := pipeline.New(pipeline.LowEnd())
	if err != nil {
		return quality{}, nil, err
	}
	bad = make([]error, len(env.configs))
	for i, c := range env.configs {
		res := env.ref[i]
		spec := difftest.RunSpec{Args: c.k.Args, Mem: c.k.Mem}
		var cycles uint64
		err := difftest.CheckCompiled(c.k.F, res, spec)
		if err == nil {
			cycles, err = simulate(mach, c.k.F, res, spec)
		}
		if err != nil {
			bad[i] = fmt.Errorf("%s at %d/%d: %w", c.k.Name, c.opts.RegN, c.opts.DiffN, err)
			continue
		}
		q.spillInstrs += float64(res.SpillInstrs)
		q.codeBytes += float64(encode.CodeBytes(res.F, encode.Thumb16()))
		q.simCycles += float64(cycles)
	}
	nc := float64(len(env.configs))
	q.spillInstrs /= nc
	q.codeBytes /= nc
	q.simCycles /= nc
	return q, bad, nil
}

// simulate runs the source and its compile on the low-end pipeline
// with the spec's input, requires equal return values, and returns the
// compiled code's cycles.
func simulate(mach *pipeline.Machine, src *ir.Func, res *diffra.Result, spec difftest.RunSpec) (uint64, error) {
	want, _, err := mach.Run(src, nil, pipeline.RunOptions{Args: spec.Args, Mem: spec.Mem})
	if err != nil {
		return 0, fmt.Errorf("reference simulation: %w", err)
	}
	ret, st, err := mach.Run(res.F, res.Assignment, pipeline.RunOptions{
		Args: spec.Args, OrigParams: src.Params, ArgLive: liveness.LiveParams(src), Mem: spec.Mem,
	})
	if err != nil {
		return 0, err
	}
	if ret != want {
		return 0, fmt.Errorf("simulated return %d, reference %d", ret, want)
	}
	return st.Cycles, nil
}

// traceKernels replays the list on one caller: each operation runs the
// facade untraced and the staged replay traced, in alternating order,
// and the two results must agree.
func traceKernels(cfg config, n int, r *report) error {
	env, err := setupKernels(cfg.seed, n)
	if err != nil {
		return err
	}
	t := newTraced()
	errs := make([]error, len(env.ops))
	for i, ci := range env.ops {
		c := env.configs[ci]
		opts, err := c.opts.Resolved()
		if err != nil {
			return err
		}
		t.rec.op = i
		var fres, sres *diffra.Result
		var fdur, sdur time.Duration
		runFacade := func() error {
			start := time.Now()
			res, err := diffra.CompileFunc(c.k.F, c.opts)
			fdur, fres = time.Since(start), res
			return err
		}
		runStaged := func() error {
			start := time.Now()
			res, err := staged("", c.k.F, opts, t.rec, &t.lc)
			sdur, sres = time.Since(start), res
			return err
		}
		first, second := runFacade, runStaged
		if i%2 == 1 {
			first, second = runStaged, runFacade
		}
		if err := first(); err != nil {
			errs[i] = err
			continue
		}
		if err := second(); err != nil {
			errs[i] = err
			continue
		}
		t.compiled(fdur, sdur)
		if err := sameResult(fres, sres); err != nil {
			errs[i] = fmt.Errorf("%s at %d/%d: %w", c.k.Name, c.opts.RegN, c.opts.DiffN, err)
			continue
		}
		errs[i] = sameCounts(c, env.ref[ci], fres)
	}
	t.ops = len(env.ops)
	r.countErrs(errs)
	t.layers(r)
	return writeSpans(cfg, t.rec)
}

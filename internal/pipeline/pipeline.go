// Package pipeline simulates a 5-stage in-order scalar processor — the
// paper's low-end evaluation machine (§10.1, an ARM/THUMB-like core
// modeled on SimpleScalar; see DESIGN.md's substitution table). It
// interprets allocated IR functions cycle-approximately:
//
//   - every instruction costs its latency (1 for simple ALU ops, more
//     for multiply/divide),
//   - instruction fetch goes through the I-cache at the instruction's
//     placed address,
//   - loads and stores (including spill code) go through the D-cache,
//   - taken branches pay a one-cycle redirect bubble,
//   - set_last_reg instructions are fetched and decoded but never enter
//     the execute stage (§2.3): they cost one decode slot plus fetch.
//
// Register operands are resolved through the allocation's colors, so a
// miscolored program computes wrong values — executing through the
// machine register file doubles as a dynamic validation of the
// allocator.
package pipeline

import (
	"fmt"
	"sort"

	"diffra/internal/encode"
	"diffra/internal/ir"
	"diffra/internal/regalloc"
)

// Config describes the machine.
type Config struct {
	ICache CacheConfig
	DCache CacheConfig
	// Latency per opcode class.
	MulLat, DivLat int
	// BranchBubble is the redirect penalty for taken branches.
	BranchBubble int
	// LoadUseBubble is the extra cycle(s) a load costs even on a cache
	// hit: the classic load-use delay of a 5-stage in-order pipeline.
	LoadUseBubble int
	// MaxInstrs bounds execution (0: 50 million).
	MaxInstrs uint64
	// Model places the code (zero value: encode.Thumb16()).
	Model encode.Model
}

// LowEnd returns the Table-1-like configuration used by the low-end
// experiments: a 5-stage in-order core with small split caches.
func LowEnd() Config {
	return Config{
		ICache:        CacheConfig{Size: 4096, LineSize: 32, Assoc: 2, MissPenalty: 20},
		DCache:        CacheConfig{Size: 4096, LineSize: 32, Assoc: 2, MissPenalty: 20},
		MulLat:        3,
		DivLat:        12,
		BranchBubble:  1,
		LoadUseBubble: 1,
		Model:         encode.Thumb16(),
	}
}

// Stats is the outcome of a run.
type Stats struct {
	Cycles      uint64
	Instrs      uint64
	SetLastRegs uint64
	SpillOps    uint64
	MemOps      uint64
	// Branches and Taken count control transfers. Conditional branches
	// contribute to Branches always and to Taken when the branch is
	// taken; unconditional jumps contribute to both (they always pay
	// the redirect bubble).
	Branches uint64
	Taken    uint64
	ICache   CacheStats
	DCache   CacheStats
	// BlockCounts[i] is how many times block with Index i was entered:
	// an execution profile usable as adjacency edge weights (the §4
	// remark that "profile information could be incorporated to
	// improve the cost estimation").
	BlockCounts []uint64
	// BlockCycles[i] attributes cycles (including cache stalls and
	// branch bubbles) to the block the instruction issued from;
	// BlockIMisses/BlockDMisses attribute cache misses the same way.
	// Together with BlockCounts they are the per-block breakdown the
	// telemetry layer surfaces.
	BlockCycles  []uint64
	BlockIMisses []uint64
	BlockDMisses []uint64
	// OpCycles[op] / OpCounts[op] attribute cycles and executions per
	// opcode, indexed by ir.Op (length ir.NumOps).
	OpCycles []uint64
	OpCounts []uint64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instrs == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instrs)
}

// String is a one-line run summary for examples and CLI output.
func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d instrs=%d cpi=%.2f branches=%d taken=%d mem=%d spill=%d slr=%d imiss=%.2f%% dmiss=%.2f%%",
		s.Cycles, s.Instrs, s.CPI(), s.Branches, s.Taken, s.MemOps, s.SpillOps, s.SetLastRegs,
		100*s.ICache.MissRate(), 100*s.DCache.MissRate())
}

// TopOps returns the n opcodes with the largest attributed cycle
// share, descending — the per-opcode profile behind -trace output.
func (s Stats) TopOps(n int) []OpShare {
	var out []OpShare
	for op, c := range s.OpCycles {
		if c > 0 {
			out = append(out, OpShare{Op: ir.Op(op), Cycles: c, Count: s.OpCounts[op]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Op < out[j].Op
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// OpShare is one opcode's attributed execution share.
type OpShare struct {
	Op     ir.Op
	Cycles uint64
	Count  uint64
}

// Machine executes functions.
type Machine struct {
	cfg Config
	ic  *cache
	dc  *cache
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Model.InstrBytes == 0 {
		cfg.Model = encode.Thumb16()
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 50_000_000
	}
	ic, err := newCache(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("pipeline: icache: %w", err)
	}
	dc, err := newCache(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("pipeline: dcache: %w", err)
	}
	return &Machine{cfg: cfg, ic: ic, dc: dc}, nil
}

// Run options.
type RunOptions struct {
	// Args are the argument values, one per ORIGINAL parameter of the
	// pre-allocation function, in order. OrigParams lists those
	// original parameter registers; spilled ones are matched against
	// asn.StackParams, the rest bind to f.Params in order.
	Args       []int64
	OrigParams []ir.Reg
	// ArgLive, when non-nil, flags positionally which original
	// parameters' incoming values are observable (see
	// liveness.LiveParams on the source function). Dead parameters are
	// skipped during binding: an allocator may give a dead parameter
	// the same machine register as a live one, so writing its argument
	// would clobber the live value. nil binds every argument.
	ArgLive []bool
	// Mem pre-initializes data memory (word addressed, 4-byte words).
	Mem map[int64]int64
}

// spillBase places spill slots in a dedicated region of the data
// address space so spill traffic shares the D-cache with program data,
// as on the real machine.
const spillBase = int64(1) << 28

// Run executes f to completion and returns the return value and
// statistics. When asn is non-nil operands resolve through machine
// registers (colors); with a nil asn the function runs directly on
// virtual registers (useful as a semantic reference).
func (m *Machine) Run(f *ir.Func, asn *regalloc.Assignment, opts RunOptions) (ret int64, st Stats, err error) {
	m.ic.Reset()
	m.dc.Reset()
	defer func() {
		st.ICache = m.ic.Stats
		st.DCache = m.dc.Stats
	}()

	nregs := f.NumRegs()
	if asn != nil {
		nregs = asn.K
	}
	regs := make([]int64, nregs)
	regOf := func(r ir.Reg) int {
		if asn == nil {
			return int(r)
		}
		return asn.Color[r]
	}

	mem := make(map[int64]int64, len(opts.Mem)+64)
	for k, v := range opts.Mem {
		mem[k] = v
	}

	// Bind arguments.
	origParams := opts.OrigParams
	if origParams == nil {
		origParams = f.Params
	}
	if len(opts.Args) != len(origParams) {
		return 0, st, fmt.Errorf("pipeline: %d args for %d params", len(opts.Args), len(origParams))
	}
	if opts.ArgLive != nil && len(opts.ArgLive) != len(origParams) {
		return 0, st, fmt.Errorf("pipeline: %d ArgLive flags for %d params", len(opts.ArgLive), len(origParams))
	}
	next := 0
	for i, p := range origParams {
		live := opts.ArgLive == nil || opts.ArgLive[i]
		if asn != nil {
			if slot, ok := asn.StackParams[p]; ok {
				if live {
					mem[spillBase+slot] = opts.Args[i]
				}
				continue
			}
		}
		if next >= len(f.Params) {
			return 0, st, fmt.Errorf("pipeline: parameter binding ran out of register params")
		}
		rp := f.Params[next]
		next++
		if !live {
			continue
		}
		c := regOf(rp)
		if c < 0 || c >= nregs {
			return 0, st, fmt.Errorf("pipeline: param v%d maps to register %d outside [0,%d)", rp, c, nregs)
		}
		regs[c] = opts.Args[i]
	}

	layout := encode.Place(f, m.cfg.Model, 0)

	st.BlockCounts = make([]uint64, len(f.Blocks))
	st.BlockCycles = make([]uint64, len(f.Blocks))
	st.BlockIMisses = make([]uint64, len(f.Blocks))
	st.BlockDMisses = make([]uint64, len(f.Blocks))
	st.OpCycles = make([]uint64, ir.NumOps)
	st.OpCounts = make([]uint64, ir.NumOps)
	b := f.Entry()
	st.BlockCounts[b.Index]++
	ii := 0
	for {
		if ii >= len(b.Instrs) {
			return 0, st, fmt.Errorf("pipeline: fell off block %s", b.Name)
		}
		in := b.Instrs[ii]
		if st.Instrs >= m.cfg.MaxInstrs {
			return 0, st, fmt.Errorf("pipeline: instruction budget exhausted (%d)", m.cfg.MaxInstrs)
		}
		st.Instrs++
		bi := b.Index     // attribution block: where the instruction issued
		cyc0 := st.Cycles // attribution base: cycles before this instruction
		st.Cycles++       // base cycle

		// Fetch through the I-cache.
		if !m.ic.Access(layout.Addr[in]) {
			st.Cycles += uint64(m.ic.Penalty())
			st.BlockIMisses[bi]++
		}

		get := func(i int) int64 { return regs[regOf(in.Uses[i])] }
		set := func(v int64) { regs[regOf(in.Defs[0])] = v }
		dmem := func(addr int64) {
			st.MemOps++
			if !m.dc.Access(uint64(addr)) {
				st.Cycles += uint64(m.dc.Penalty())
				st.BlockDMisses[bi]++
			}
		}

		branchTo := -1 // successor index chosen by a branch
		done := false  // set by ret; the return value is in retv
		var retv int64
		switch in.Op {
		case ir.OpAdd:
			set(get(0) + get(1))
		case ir.OpSub:
			set(get(0) - get(1))
		case ir.OpMul:
			set(get(0) * get(1))
			st.Cycles += uint64(m.cfg.MulLat - 1)
		case ir.OpDiv:
			st.Cycles += uint64(m.cfg.DivLat - 1)
			if d := get(1); d != 0 {
				set(get(0) / d)
			} else {
				set(0)
			}
		case ir.OpRem:
			st.Cycles += uint64(m.cfg.DivLat - 1)
			if d := get(1); d != 0 {
				set(get(0) % d)
			} else {
				set(0)
			}
		case ir.OpAnd:
			set(get(0) & get(1))
		case ir.OpOr:
			set(get(0) | get(1))
		case ir.OpXor:
			set(get(0) ^ get(1))
		case ir.OpShl:
			set(get(0) << (uint64(get(1)) & 63))
		case ir.OpShr:
			set(int64(uint64(get(0)) >> (uint64(get(1)) & 63)))
		case ir.OpNeg:
			set(-get(0))
		case ir.OpNot:
			set(^get(0))
		case ir.OpCmpEQ:
			set(b2i(get(0) == get(1)))
		case ir.OpCmpNE:
			set(b2i(get(0) != get(1)))
		case ir.OpCmpLT:
			set(b2i(get(0) < get(1)))
		case ir.OpCmpLE:
			set(b2i(get(0) <= get(1)))
		case ir.OpMov:
			set(get(0))
		case ir.OpLI:
			set(in.Imm)
		case ir.OpLoad:
			addr := get(0) + in.Imm
			dmem(addr)
			st.Cycles += uint64(m.cfg.LoadUseBubble)
			set(mem[addr])
		case ir.OpStore:
			addr := get(1) + in.Imm
			dmem(addr)
			mem[addr] = get(0)
		case ir.OpSpillLoad:
			st.SpillOps++
			addr := spillBase + in.Imm
			dmem(addr)
			st.Cycles += uint64(m.cfg.LoadUseBubble)
			set(mem[addr])
		case ir.OpSpillStore:
			st.SpillOps++
			addr := spillBase + in.Imm
			dmem(addr)
			mem[addr] = get(0)
		case ir.OpSetLastReg:
			// Consumed at decode; costs the fetch/decode slot only.
			st.SetLastRegs++
		case ir.OpJmp:
			// Unconditional transfer: counted as an always-taken branch
			// so branch statistics cover every redirect bubble paid.
			st.Branches++
			branchTo = 0
		case ir.OpBr:
			st.Branches++
			if get(0) != 0 {
				branchTo = 0
			} else {
				branchTo = 1
			}
		case ir.OpBEQ, ir.OpBNE, ir.OpBLT, ir.OpBLE:
			st.Branches++
			taken := false
			switch in.Op {
			case ir.OpBEQ:
				taken = get(0) == get(1)
			case ir.OpBNE:
				taken = get(0) != get(1)
			case ir.OpBLT:
				taken = get(0) < get(1)
			case ir.OpBLE:
				taken = get(0) <= get(1)
			}
			if taken {
				branchTo = 0
			} else {
				branchTo = 1
			}
		case ir.OpRet:
			done = true
			if len(in.Uses) > 0 {
				retv = get(0)
			}
		case ir.OpCall:
			// The workloads are leaf kernels; calls return zero.
			set(0)
		default:
			return 0, st, fmt.Errorf("pipeline: cannot execute %s", in)
		}

		if branchTo >= 0 {
			succ := b.Succs[branchTo]
			// A control transfer away from fall-through pays the
			// redirect bubble (successor 0 of a conditional branch and
			// every jmp target).
			if branchTo == 0 && in.Op != ir.OpJmp {
				st.Taken++
				st.Cycles += uint64(m.cfg.BranchBubble)
			}
			if in.Op == ir.OpJmp {
				st.Taken++
				st.Cycles += uint64(m.cfg.BranchBubble)
			}
			b = succ
			st.BlockCounts[b.Index]++
			ii = 0
		} else {
			ii++
		}

		// Attribute everything this instruction cost — base cycle,
		// cache stalls, latency, bubbles — to its opcode and the block
		// it issued from.
		delta := st.Cycles - cyc0
		st.OpCycles[in.Op] += delta
		st.OpCounts[in.Op]++
		st.BlockCycles[bi] += delta

		if done {
			return retv, st, nil
		}
	}
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

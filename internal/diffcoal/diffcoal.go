// Package diffcoal implements differential coalesce (paper §7): the
// third and strongest integration of differential encoding with
// register allocation. It builds on the optimal spilling allocator —
// spill decisions are made first by the ILP phase, leaving a graph
// that should color without further spills — and then coalesces moves
// one at a time. Every remaining move is tried tentatively; the
// rebuild & simplify + differential select subroutine reports either
// "uncolorable" or the differential-encoding cost of the resulting
// coloring. The candidate with the largest total cost reduction is
// committed, where cost counts both set_last_reg instructions (from
// the adjacency graph, condition (3)) and the move instructions still
// in the code — the paper weighs the two equally, "a set_last_reg
// instruction is of the same computation cost as a move instruction".
package diffcoal

import (
	"errors"
	"fmt"

	"diffra/internal/adjacency"
	"diffra/internal/diffsel"
	"diffra/internal/ir"
	"diffra/internal/liveness"
	"diffra/internal/ospill"
	"diffra/internal/regalloc"
	"diffra/internal/telemetry"
)

// Options configures the allocator.
type Options struct {
	// RegN is the number of addressable registers (the coloring K).
	RegN int
	// DiffN is the encodable difference count (condition (3)).
	DiffN int
	// MaxNodes caps the spill ILP per independently-solved work item
	// (0: solver default).
	MaxNodes int
	// SpillWorkers is ignored: the spill ILP search is serial. It is
	// kept so existing callers still compile.
	SpillWorkers int
	// MaxRounds bounds fallback spill rounds (0: 16).
	MaxRounds int
	// Trace, when non-nil, is the allocator's phase span: the ILP spill
	// decision and the coalescing loop report on it. Allocate does not
	// End it; the caller owns it.
	Trace *telemetry.Span
	// Cancel, when non-nil, is polled by the spill ILP and between
	// coalescing probes; returning true aborts Allocate with
	// ErrCancelled.
	Cancel func() bool
}

// ErrCancelled is returned by Allocate when Options.Cancel aborted the
// allocation (typically a caller's context deadline or cancellation).
var ErrCancelled = errors.New("diffcoal: allocation cancelled")

// Stats reports the allocation.
type Stats struct {
	Spill ospill.Stats
	// Coalesced counts committed coalesces; Attempts counts tentative
	// colorability probes (the O(#moves^2) term of §7).
	Coalesced int
	Attempts  int
	// FallbackSpills counts ranges spilled because the conservative
	// simplify got stuck even before coalescing.
	FallbackSpills int
	// InitialCost and FinalCost are the combined move + set_last_reg
	// costs (frequency weighted) before and after the coalescing loop;
	// the algorithm guarantees FinalCost <= InitialCost.
	InitialCost float64
	FinalCost   float64
	// FinalDiffCost is the adjacency-graph cost of the final coloring.
	FinalDiffCost float64
}

// Allocate runs optimal spilling followed by differential coalescing
// and coloring with differential select. The returned function has
// spill code inserted, coalesced moves removed, and every vreg colored
// in [0, RegN).
func Allocate(f *ir.Func, opts Options) (*ir.Func, *regalloc.Assignment, *Stats, error) {
	if opts.RegN < 2 {
		return nil, nil, nil, fmt.Errorf("diffcoal: RegN = %d", opts.RegN)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 16
	}
	st := &Stats{}

	work := f.Clone()
	ilpSpan := opts.Trace.Child("ilp")
	spills, spillStats := ospill.DecideSpillsCancel(work, opts.RegN, opts.MaxNodes, opts.Cancel)
	ilpSpan.Add("constraints", int64(spillStats.Constraints))
	ilpSpan.Add("nodes", int64(spillStats.ILPNodes))
	ilpSpan.Add("components", int64(spillStats.ILPComponents))
	ilpSpan.Add("reductions", int64(spillStats.ILPReductions))
	ilpSpan.Add("pruned", int64(spillStats.ILPPruned))
	ilpSpan.Add("spilled_ranges", int64(spillStats.ILPSpilled))
	ilpSpan.SetAttr("optimal", spillStats.ILPOptimal)
	ilpSpan.End()
	if spillStats.Cancelled {
		return nil, nil, nil, ErrCancelled
	}
	if !spillStats.ILPOptimal {
		telemetry.Default.Counter("spill_nonoptimal").Inc()
	}
	st.Spill = spillStats
	slots := regalloc.NewSlotAssigner()
	stackParams := map[ir.Reg]int64{}
	unspillable := map[int]bool{}
	for _, p := range work.Params {
		if spills[p] {
			stackParams[p] = slots.SlotOf(p)
		}
	}
	spillInstrs := 0
	if len(spills) > 0 {
		origin, n := regalloc.RewriteSpills(work, spills, slots)
		spillInstrs += n
		for t := range origin {
			unspillable[int(t)] = true
		}
	}

	var cs *coalesceState
	for round := 0; ; round++ {
		if opts.Cancel != nil && opts.Cancel() {
			return nil, nil, nil, ErrCancelled
		}
		if round >= maxRounds {
			return nil, nil, nil, fmt.Errorf("diffcoal: no colorable graph after %d fallback rounds", maxRounds)
		}
		cs = newCoalesceState(work, opts)
		cs.unspillable = unspillable
		if stuck := cs.tryColor(cs.alias); stuck < 0 {
			break
		} else {
			// Conservative simplify got stuck: spill the cheapest stuck
			// node and retry (pressure <= K does not imply colorable).
			// Reload temporaries are never picked — re-spilling them
			// cannot reduce pressure.
			st.FallbackSpills++
			set := map[ir.Reg]bool{ir.Reg(stuck): true}
			for _, p := range work.Params {
				if set[p] {
					stackParams[p] = slots.SlotOf(p)
				}
			}
			origin, n := regalloc.RewriteSpills(work, set, slots)
			spillInstrs += n
			for t := range origin {
				unspillable[int(t)] = true
			}
		}
	}

	coalSpan := opts.Trace.Child("coalesce")
	st.Coalesced, st.Attempts, st.InitialCost, st.FinalCost = cs.run()
	if opts.Cancel != nil && opts.Cancel() {
		coalSpan.End()
		return nil, nil, nil, ErrCancelled
	}
	coalSpan.Add("attempts", int64(st.Attempts))
	coalSpan.Add("committed", int64(st.Coalesced))
	coalSpan.Add("rejected", int64(st.Attempts-st.Coalesced))
	coalSpan.SetAttr("initial_cost", st.InitialCost)
	coalSpan.SetAttr("final_cost", st.FinalCost)
	coalSpan.End()
	opts.Trace.Add("fallback_spills", int64(st.FallbackSpills))
	colors, ok := cs.color(cs.alias)
	if !ok {
		return nil, nil, nil, fmt.Errorf("diffcoal: final graph uncolorable")
	}
	st.FinalDiffCost = cs.diffCost(colors)

	// Apply committed coalesces to the code and drop internal moves.
	substituteAliases(work, cs.rootOf)

	asn := &regalloc.Assignment{
		K:              opts.RegN,
		Color:          make([]int, work.NumRegs()),
		SpilledVRegs:   st.Spill.ILPSpilled + st.FallbackSpills,
		SpillInstrs:    spillInstrs,
		CoalescedMoves: st.Coalesced,
		StackParams:    stackParams,
	}
	for v := range asn.Color {
		asn.Color[v] = colors[cs.rootOf(v)]
	}
	return work, asn, st, nil
}

// coalesceState holds the graphs for one allocation attempt.
type coalesceState struct {
	f           *ir.Func
	opts        Options
	n           int
	ig          *regalloc.Graph
	adj         *adjacency.CSR
	alias       []int
	moves       []moveInfo
	cost        []float64
	unspillable map[int]bool
}

type moveInfo struct {
	in     *ir.Instr
	weight float64
}

func newCoalesceState(f *ir.Func, opts Options) *coalesceState {
	info := liveness.Compute(f)
	cs := &coalesceState{
		f:    f,
		opts: opts,
		n:    f.NumRegs(),
		ig:   regalloc.Build(f, info),
		// Frozen once per attempt: the coalescing loop's inner coloring
		// probes score against the CSR form, not the builder's maps.
		adj:  adjacency.BuildVReg(f).Freeze(),
		cost: liveness.SpillCosts(f),
	}
	cs.alias = identity(cs.n)
	freq := f.BlockFreq()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.IsMove() {
				cs.moves = append(cs.moves, moveInfo{in: in, weight: freq[b]})
			}
		}
	}
	return cs
}

func identity(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func root(alias []int, v int) int {
	for alias[v] != v {
		v = alias[v]
	}
	return v
}

func (cs *coalesceState) rootOf(v int) int { return root(cs.alias, v) }

// merged builds the interference structure over alias roots.
func (cs *coalesceState) merged(alias []int) (nodes []int, adjOf map[int]map[int]bool) {
	adjOf = make(map[int]map[int]bool)
	inNodes := map[int]bool{}
	for v := 0; v < cs.n; v++ {
		r := root(alias, v)
		if !inNodes[r] {
			inNodes[r] = true
			nodes = append(nodes, r)
			adjOf[r] = map[int]bool{}
		}
	}
	for u := 0; u < cs.n; u++ {
		ru := root(alias, u)
		for _, v := range cs.ig.AdjList[u] {
			if v < u {
				continue
			}
			rv := root(alias, v)
			if ru != rv {
				adjOf[ru][rv] = true
				adjOf[rv][ru] = true
			}
		}
	}
	return nodes, adjOf
}

// tryColor runs conservative simplify on the merged graph; it returns
// -1 if every node simplifies (graph is K-colorable by this test) or
// the cheapest stuck node otherwise.
func (cs *coalesceState) tryColor(alias []int) int {
	order, stuckNode := cs.simplifyOrder(alias)
	if order != nil {
		return -1
	}
	return stuckNode
}

// simplifyOrder removes nodes of degree < K repeatedly (lowest id
// first, deterministic). On success it returns the removal order; on
// failure it returns nil and the cheapest remaining node.
func (cs *coalesceState) simplifyOrder(alias []int) ([]int, int) {
	nodes, adjOf := cs.merged(alias)
	removed := map[int]bool{}
	degree := map[int]int{}
	for _, r := range nodes {
		degree[r] = len(adjOf[r])
	}
	var order []int
	for len(order) < len(nodes) {
		pick := -1
		for _, r := range nodes {
			if !removed[r] && degree[r] < cs.opts.RegN && (pick < 0 || r < pick) {
				pick = r
			}
		}
		if pick < 0 {
			// Stuck: report the cheapest remaining spillable node for
			// fallback spilling (never a reload temporary — re-spilling
			// one cannot reduce pressure).
			best, bestCost := -1, 0.0
			anyBest, anyCost := -1, 0.0
			for _, r := range nodes {
				if removed[r] {
					continue
				}
				c := cs.cost[r]
				if anyBest < 0 || c < anyCost {
					anyBest, anyCost = r, c
				}
				if cs.unspillable[r] {
					continue
				}
				if best < 0 || c < bestCost {
					best, bestCost = r, c
				}
			}
			if best < 0 {
				best = anyBest
			}
			return nil, best
		}
		removed[pick] = true
		order = append(order, pick)
		for w := range adjOf[pick] {
			if !removed[w] {
				degree[w]--
			}
		}
	}
	return order, -1
}

// color colors the merged graph with differential select: nodes are
// popped in reverse simplify order and each takes the legal color with
// minimal adjacency cost. Returns per-root colors and success.
func (cs *coalesceState) color(alias []int) (map[int]int, bool) {
	order, _ := cs.simplifyOrder(alias)
	if order == nil {
		return nil, false
	}
	_, adjOf := cs.merged(alias)
	colors := map[int]int{}
	colorOf := func(v int) int {
		if c, ok := colors[root(alias, v)]; ok {
			return c
		}
		return -1
	}
	aliasOf := func(v int) int { return root(alias, v) }
	params := diffsel.Params{RegN: cs.opts.RegN, DiffN: cs.opts.DiffN}

	members := map[int][]int{}
	for v := 0; v < cs.n; v++ {
		r := root(alias, v)
		members[r] = append(members[r], v)
	}

	for i := len(order) - 1; i >= 0; i-- {
		r := order[i]
		forbidden := map[int]bool{}
		for w := range adjOf[r] {
			if c, ok := colors[w]; ok {
				forbidden[c] = true
			}
		}
		bestC, bestCost := -1, 0.0
		for c := 0; c < cs.opts.RegN; c++ {
			if forbidden[c] {
				continue
			}
			cost := diffsel.PickCost(cs.adj, members[r], r, c, colorOf, aliasOf, params)
			if bestC < 0 || cost < bestCost {
				bestC, bestCost = c, cost
			}
		}
		if bestC < 0 {
			return nil, false
		}
		colors[r] = bestC
	}
	return colors, true
}

// diffCost evaluates the adjacency-graph cost of a root coloring.
func (cs *coalesceState) diffCost(colors map[int]int) float64 {
	return cs.adj.Cost(func(v int) int {
		if c, ok := colors[root(cs.alias, v)]; ok {
			return c
		}
		return -1
	}, cs.opts.RegN, cs.opts.DiffN)
}

func (cs *coalesceState) diffCostWith(alias []int, colors map[int]int) float64 {
	return cs.adj.Cost(func(v int) int {
		if c, ok := colors[root(alias, v)]; ok {
			return c
		}
		return -1
	}, cs.opts.RegN, cs.opts.DiffN)
}

// moveCost sums the weights of moves still external under alias.
func (cs *coalesceState) moveCost(alias []int) float64 {
	t := 0.0
	for _, m := range cs.moves {
		if root(alias, int(m.in.Defs[0])) != root(alias, int(m.in.Uses[0])) {
			t += m.weight
		}
	}
	return t
}

// run is the §7 main loop: evaluate every remaining coalesce
// candidate, commit the best cost reduction, repeat. Returns the
// number of committed coalesces and of attempts.
func (cs *coalesceState) run() (coalesced, attempts int, initial, final float64) {
	colors, ok := cs.color(cs.alias)
	if !ok {
		return 0, 0, 0, 0
	}
	current := cs.diffCostWith(cs.alias, colors) + cs.moveCost(cs.alias)
	initial = current

	for {
		_, adjOf := cs.merged(cs.alias)
		bestCost := current
		var bestAlias []int
		for _, m := range cs.moves {
			if cs.opts.Cancel != nil && cs.opts.Cancel() {
				return coalesced, attempts, initial, current
			}
			x := root(cs.alias, int(m.in.Defs[0]))
			y := root(cs.alias, int(m.in.Uses[0]))
			if x == y {
				continue
			}
			if adjOf[x][y] {
				continue // constrained: interfering endpoints
			}
			trial := append([]int(nil), cs.alias...)
			// Merge into the smaller id for determinism.
			if y < x {
				x, y = y, x
			}
			trial[y] = x
			attempts++
			tColors, ok := cs.color(trial)
			if !ok {
				continue
			}
			c := cs.diffCostWith(trial, tColors) + cs.moveCost(trial)
			if c < bestCost {
				bestCost = c
				bestAlias = trial
			}
		}
		if bestAlias == nil {
			return coalesced, attempts, initial, current
		}
		cs.alias = bestAlias
		current = bestCost
		coalesced++
	}
}

// substituteAliases rewrites operands to their coalescing roots and
// deletes moves made internal, mirroring irc's post-pass.
func substituteAliases(f *ir.Func, rootOf func(int) int) {
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			for i, u := range in.Uses {
				in.Uses[i] = ir.Reg(rootOf(int(u)))
			}
			for i, d := range in.Defs {
				in.Defs[i] = ir.Reg(rootOf(int(d)))
			}
			if in.IsMove() && in.Defs[0] == in.Uses[0] {
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	for i, p := range f.Params {
		f.Params[i] = ir.Reg(rootOf(int(p)))
	}
}

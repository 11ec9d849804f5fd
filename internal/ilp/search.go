package ilp

// Work items are the unit of search scheduling: each is a root-fixed
// subtree of one component (epoch 0: the whole component, no fixes).
// Items are produced by the search itself — a chunk that exhausts its
// node budget serializes its unexplored frontier into child items —
// and scheduled by the deterministic epoch engine in steal.go, so the
// item population adapts to where the instance is actually hard
// instead of being guessed up front.

// varFix is one root decision of a work item: variable v fixed to 1
// (with exclusivity propagation) or to 0.
type varFix struct {
	v   int
	one bool
}

type workItem struct {
	comp  int // index into preprocessed.comps
	fixes []varFix
}

// solveSteal runs the decomposed search on the epoch engine: one
// group per component, seeded with one fix-free item each and the
// component greedy cost as the starting incumbent bound.
func solveSteal(pre *preprocessed, maxNodes int, opts Options) []GroupOut[[]bool] {
	items := make([]workItem, len(pre.comps))
	bounds := make([]float64, len(pre.comps))
	for ci, c := range pre.comps {
		items[ci] = workItem{comp: ci}
		bounds[ci] = c.greedyCost
	}
	// Scratch arenas, one per component, built on first use.
	states := map[int]*bbState{}
	return RunSteal(StealConfig[workItem, []bool]{
		Groups:   len(pre.comps),
		GroupOf:  func(it workItem) int { return it.comp },
		Items:    items,
		Bound:    bounds,
		MaxNodes: maxNodes,
		Cancel:   opts.Cancel,
		Stats:    opts.Stats,
		Run: func(it workItem, bound float64, chunk int) ChunkOut[workItem, []bool] {
			st := states[it.comp]
			if st == nil {
				st = newBBState(pre.comps[it.comp])
				states[it.comp] = st
			}
			r := st.solveChunk(it.fixes, bound, chunk, opts.Cancel)
			out := ChunkOut[workItem, []bool]{
				Found:     r.found,
				Cost:      r.cost,
				Best:      r.best,
				Nodes:     r.nodes,
				Pruned:    r.pruned,
				Cancelled: r.cancelled,
			}
			for _, f := range r.frontier {
				out.Children = append(out.Children, workItem{comp: it.comp, fixes: f})
			}
			return out
		},
	})
}

package ilp

// bbState is the flat search arena for one component: assignment,
// per-constraint deficits and free counts maintained incrementally
// through a trail (no per-node allocation, no per-node rescans), and
// the epoch-marked scratch the disjoint-sum lower bound uses. One
// state is reused across all work items of its component.
type bbState struct {
	c       *comp
	x       []int8 // -1 fixed 0, +1 fixed 1, 0 free
	deficit []int  // per constraint: need minus fixed ones
	freeCnt []int  // per constraint: free variables remaining
	trail   []int  // fixed variables, in fix order, for undo
	used    []int64
	epoch   int64

	// path is the decision sequence from the item root to the current
	// search node; when a chunk suspends it becomes the frontier
	// serialization (continuation + pending siblings).
	path      []varFix
	maxNodes  int
	nodes     int
	pruned    int
	out       bool
	suspended bool
	cancel    func() bool
	cancelled bool

	found    bool
	best     []bool
	bestCost float64
}

func newBBState(c *comp) *bbState {
	return &bbState{
		c:       c,
		x:       make([]int8, len(c.vars)),
		deficit: make([]int, len(c.cons)),
		freeCnt: make([]int, len(c.cons)),
		used:    make([]int64, len(c.vars)),
	}
}

// chunkResult is the outcome of searching one work item for one node
// chunk: the incumbent (if the chunk improved on the bound it started
// from) and, when the chunk budget expired mid-subtree, the item's
// unexplored frontier as child fix-prefixes in DFS order.
type chunkResult struct {
	frontier  [][]varFix
	found     bool
	cost      float64
	best      []bool
	nodes     int
	pruned    int
	cancelled bool
}

// solveChunk searches the subtree selected by the item's root fixes
// for at most chunk nodes. bound is the epoch's incumbent bound for
// the component (broadcast at the barrier) — the same value for every
// item of the component in that epoch, so the outcome is a pure
// function of (fixes, bound) and independent of the order items run
// in.
func (s *bbState) solveChunk(fixes []varFix, bound float64, chunk int, cancel func() bool) chunkResult {
	c := s.c
	for i := range s.x {
		s.x[i] = 0
	}
	for i, cc := range c.cons {
		s.deficit[i] = cc.need
		s.freeCnt[i] = len(cc.vars)
	}
	s.trail = s.trail[:0]
	s.path = s.path[:0]
	s.maxNodes = chunk
	s.nodes, s.pruned = 0, 0
	s.out, s.suspended, s.cancelled = false, false, false
	s.found, s.best = false, nil
	s.bestCost = bound
	s.cancel = cancel

	if cur, ok := s.applyFixes(fixes); ok {
		s.branch(cur)
	}
	r := chunkResult{
		found:     s.found,
		cost:      s.bestCost,
		best:      s.best,
		nodes:     s.nodes,
		pruned:    s.pruned,
		cancelled: s.cancelled,
	}
	if s.suspended {
		// Serialize the frontier: first the continuation (the full path
		// to the suspension point — its node was NOT counted in this
		// chunk and resumes exactly where the search stopped), then each
		// pending 0-sibling of a path level still in its 1-branch,
		// deepest first. That is the order the serial DFS would have
		// visited them, so concatenating child results preserves the
		// search's incumbent-improvement sequence.
		cont := make([]varFix, 0, len(fixes)+len(s.path))
		cont = append(append(cont, fixes...), s.path...)
		r.frontier = append(r.frontier, cont)
		for i := len(s.path) - 1; i >= 0; i-- {
			if !s.path[i].one {
				continue
			}
			child := make([]varFix, 0, len(fixes)+i+1)
			child = append(append(child, fixes...), s.path[:i]...)
			child = append(child, varFix{v: s.path[i].v, one: false})
			r.frontier = append(r.frontier, child)
		}
	}
	return r
}

// applyFixes replays the item's root decisions; false means the
// prefix is infeasible (exclusivity conflict) and the subtree empty.
// Replay is not counted against the node budget, so a continuation
// item resumes with the same total node count the uninterrupted search
// would have had.
func (s *bbState) applyFixes(fixes []varFix) (float64, bool) {
	cur := 0.0
	for _, f := range fixes {
		if f.one {
			if s.x[f.v] == -1 || !s.fixOne(f.v) {
				return 0, false
			}
			cur += s.c.costs[f.v]
		} else {
			switch s.x[f.v] {
			case 1:
				return 0, false
			case 0:
				s.fix(f.v, -1)
			}
		}
	}
	return cur, true
}

func (s *bbState) fix(v int, val int8) {
	s.x[v] = val
	s.trail = append(s.trail, v)
	c := s.c
	for i := c.varConsOff[v]; i < c.varConsOff[v+1]; i++ {
		ci := c.varConsIdx[i]
		s.freeCnt[ci]--
		if val == 1 {
			s.deficit[ci]--
		}
	}
}

// fixOne fixes v to 1 and propagates its exclusivity groups (peers to
// 0); false on conflict with a peer already fixed to 1. The caller
// unwinds the trail on either path.
func (s *bbState) fixOne(v int) bool {
	s.fix(v, 1)
	c := s.c
	for i := c.groupsOfOff[v]; i < c.groupsOfOff[v+1]; i++ {
		for _, u := range c.groups[c.groupsOfIdx[i]] {
			if u == v {
				continue
			}
			switch s.x[u] {
			case 1:
				return false
			case 0:
				s.fix(u, -1)
			}
		}
	}
	return true
}

func (s *bbState) unwindTo(mark int) {
	c := s.c
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		val := s.x[v]
		s.x[v] = 0
		for i := c.varConsOff[v]; i < c.varConsOff[v+1]; i++ {
			ci := c.varConsIdx[i]
			s.freeCnt[ci]++
			if val == 1 {
				s.deficit[ci]++
			}
		}
	}
}

// branch explores the subtree under the current trail. cur is the
// cost of variables fixed to 1 so far. When the chunk's node budget
// expires the search suspends AT node entry, before the node is
// counted or expanded: the recursion unwinds with s.path frozen on the
// root-to-here decision sequence, which solveChunk serializes into the
// frontier. A continuation item replaying that path re-enters this
// node with identical trail state, so the resumed search explores
// exactly the nodes the uninterrupted one would have.
func (s *bbState) branch(cur float64) {
	if s.out {
		return
	}
	if s.nodes >= s.maxNodes {
		s.out, s.suspended = true, true
		return
	}
	s.nodes++
	if s.cancel != nil && s.nodes&63 == 0 && s.cancel() {
		s.out = true
		s.cancelled = true
		return
	}
	lb, feasibleBranch := s.lowerBound()
	if !feasibleBranch {
		s.pruned++
		return
	}
	if cur+lb >= s.bestCost {
		s.pruned++
		return
	}

	// Branch on the most constrained unmet constraint (least slack
	// between free variables and deficit; ties to the lowest index),
	// taking its cheapest free variable, 1-branch first.
	branchCon, bestSlack := -1, 0
	for i := range s.c.cons {
		d := s.deficit[i]
		if d <= 0 {
			continue
		}
		slack := s.freeCnt[i] - d
		if branchCon < 0 || slack < bestSlack {
			branchCon, bestSlack = i, slack
		}
	}
	if branchCon < 0 {
		// All constraints satisfied: new incumbent (cur < bestCost was
		// just checked via the bound, which is 0 here).
		s.bestCost = cur
		s.found = true
		if s.best == nil {
			s.best = make([]bool, len(s.c.vars))
		}
		for v := range s.best {
			s.best[v] = s.x[v] == 1
		}
		return
	}
	bv := -1
	for _, v := range s.c.cons[branchCon].sorted {
		if s.x[v] == 0 {
			bv = v
			break
		}
	}

	mark := len(s.trail)
	s.path = append(s.path, varFix{v: bv, one: true})
	if s.fixOne(bv) {
		s.branch(cur + s.c.costs[bv])
	}
	s.unwindTo(mark)
	if s.out {
		// Suspended (or cancelled) inside the 1-branch: the path keeps
		// {bv, one} so the 0-sibling is emitted as pending frontier.
		return
	}
	s.path[len(s.path)-1] = varFix{v: bv, one: false}
	s.fix(bv, -1)
	s.branch(cur)
	s.unwindTo(mark)
	if s.out {
		return
	}
	s.path = s.path[:len(s.path)-1]
}

// lowerBound is the greedy surrogate bound: walking unmet constraints
// in index order, the cheapest completions of constraints whose whole
// free-variable sets are pairwise disjoint (tracked with epoch marks)
// may be summed; constraints overlapping an already-summed one only
// contribute through the max single completion. The returned bound is
// max(disjoint sum, max completion) — both admissible, and strictly
// stronger than the legacy per-constraint max whenever any two unmet
// constraints are disjoint. Deficits and free counts are maintained
// incrementally by fix/unwind, so each call touches only the unmet
// constraints' variable lists. Returns ok=false when some constraint
// can no longer be met.
func (s *bbState) lowerBound() (float64, bool) {
	lbSum, lbMax := 0.0, 0.0
	s.epoch++
	c := s.c
	for i := range c.cons {
		d := s.deficit[i]
		if d <= 0 {
			continue
		}
		if s.freeCnt[i] < d {
			return 0, false
		}
		completion := 0.0
		taken := 0
		overlap := false
		for _, v := range c.cons[i].sorted {
			if s.x[v] != 0 {
				continue
			}
			if s.used[v] == s.epoch {
				overlap = true
			}
			if taken < d {
				completion += c.costs[v]
				taken++
			}
			// Once the completion is assembled the rest of the walk only
			// matters for overlap detection; stop as soon as both are
			// settled.
			if overlap && taken == d {
				break
			}
		}
		if completion > lbMax {
			lbMax = completion
		}
		if !overlap {
			lbSum += completion
			for _, v := range c.cons[i].vars {
				if s.x[v] == 0 {
					s.used[v] = s.epoch
				}
			}
		}
	}
	if lbSum > lbMax {
		return lbSum, true
	}
	return lbMax, true
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"diffra"
	"diffra/internal/difftest"
	"diffra/internal/service"
)

// The operation lists. Each is a pure function of the seed and the
// list length, and only the generated inputs reach the program under
// test. The seed draws the order of the operations, which of them
// repeat an earlier request, and the constants of the wide functions;
// the multiset of compile problems a list holds depends on its length
// alone, so the quality counts (spill_instrs, code_bytes, sim_cycles)
// repeat exactly across seeds while timings vary.

// geometries is the RegN/DiffN grid the kernels workload compiles
// every kernel under.
var geometries = [][2]int{{8, 4}, {12, 4}, {12, 8}, {16, 8}}

// kernelOps returns passes passes over the config indices
// 0..configs-1, each pass in its own seeded order, so any run of whole
// passes holds every config equally often.
func kernelOps(seed int64, configs, passes int) []int {
	rnd := rand.New(rand.NewSource(seed))
	ops := make([]int, 0, configs*passes)
	for p := 0; p < passes; p++ {
		ops = append(ops, rnd.Perm(configs)...)
	}
	return ops
}

// Wide function shapes: deep straight chains carrying wideWidth values
// block to block with a fresh vreg per definition, so the vreg count is
// about blocks*wideWidth while register pressure stays near wideWidth,
// above the wideRegN registers the requests allocate into. The list
// cycles through wideShapes chain lengths, from 32 to 60 blocks, so its
// operations pose a spread of compile costs. At 2400 vregs (60 blocks)
// IRC's interference matrix stays within a core's cache; at twice the
// blocks it did not, and run-to-run spread on a shared 2-vCPU host
// doubled.
const (
	wideShapes    = 8
	wideMinBlocks = 32
	wideBlockStep = 4
	wideWidth     = 40
	wideRegN      = 32
)

// wideShape is the shape of operation i.
func wideShape(i int) int { return i % wideShapes }

// wideBlocks is the chain length of shape k.
func wideBlocks(k int) int { return wideMinBlocks + wideBlockStep*k }

// wideIR renders the deep-chain function: the shape of the service
// package's deadline-ladder instance, with the chain's seed constants
// drawn from rnd. The constants never change the allocation, so the
// operations of one shape are distinct requests of identical compile
// cost.
func wideIR(name string, blocks, width int, rnd *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(v0) {\nentry:\n", name)
	next := 1
	prev := make([]int, width)
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, "  v%d = li %d\n", next, 1+rnd.Intn(1<<20))
		prev[i] = next
		next++
	}
	fmt.Fprintf(&b, "  jmp b0\n")
	cur := make([]int, width)
	for bl := 0; bl < blocks; bl++ {
		fmt.Fprintf(&b, "b%d:\n", bl)
		for i := 0; i < width; i++ {
			fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, prev[i], prev[(i+1)%width])
			cur[i] = next
			next++
		}
		if bl == blocks-1 {
			fmt.Fprintf(&b, "  jmp done\n")
		} else {
			fmt.Fprintf(&b, "  jmp b%d\n", bl+1)
		}
		prev, cur = cur, prev
	}
	fmt.Fprintf(&b, "done:\n")
	acc := prev[0]
	for i := 1; i < width; i++ {
		fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, acc, prev[i])
		acc = next
		next++
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", acc)
	return b.String()
}

// wideOp renders operation i of a wide list: a function of its own
// name and shape, with constants drawn from (seed, i).
func wideOp(seed int64, i int) string {
	rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	return wideIR(fmt.Sprintf("wide%d", i), wideBlocks(wideShape(i)), wideWidth, rnd)
}

// fleetReq is one distinct request of the fleet pool.
type fleetReq struct {
	gen  int64 // difftest.Generate seed of the program
	req  service.Request
	body []byte
}

// fleetSchemes spreads the pool uniformly over the paper's five
// schemes.
var fleetSchemes = [5]diffra.Scheme{diffra.Baseline, diffra.Remapping, diffra.Select, diffra.OSpill, diffra.Coalesce}

// fleetGeometries alternate per block of five pool entries.
var fleetGeometries = [][2]int{{8, 4}, {12, 8}}

// fleetPool returns the p distinct requests of a fleet list. The pool
// depends on p alone: entry j compiles generated program j+1 under a
// scheme and geometry fixed by j.
func fleetPool(p int) []fleetReq {
	pool := make([]fleetReq, p)
	for j := range pool {
		f, _, _ := difftest.Generate(int64(j + 1))
		g := fleetGeometries[(j/len(fleetSchemes))%len(fleetGeometries)]
		req := service.Request{IR: f.String(), Scheme: string(fleetSchemes[j%len(fleetSchemes)]), RegN: g[0], DiffN: g[1]}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // a Request of strings and ints always marshals
		}
		pool[j] = fleetReq{gen: int64(j + 1), req: req, body: body}
	}
	return pool
}

// fleetOp is one request of the fleet stream: pool entry req, sent
// either for the first time (repeatOf < 0, a cache miss) or as a
// repeat of the earlier op repeatOf (a cache hit).
type fleetOp struct {
	req      int
	repeatOf int
}

// fleetWindow bounds how far back a repeat reaches, in distinct
// requests: far below the per-node result cache's 1024 entries, so a
// repeat is never evicted before it is read.
const fleetWindow = 128

// fleetOps builds the stream over a pool of p requests: every pool
// entry once, in seeded order, interleaved with repeats making up the
// share `repeat` of the stream. A repeat copies an op among the last
// fleetWindow first-time requests.
func fleetOps(seed int64, p int, repeat float64) []fleetOp {
	rnd := rand.New(rand.NewSource(seed))
	order := rnd.Perm(p)
	r := int(float64(p)*repeat/(1-repeat) + 0.5)
	isRepeat := make([]bool, p+r)
	for i := 0; i < r; i++ {
		isRepeat[i] = true
	}
	rnd.Shuffle(len(isRepeat), func(i, j int) { isRepeat[i], isRepeat[j] = isRepeat[j], isRepeat[i] })
	if isRepeat[0] { // the stream opens with a miss: nothing to repeat yet
		for i := range isRepeat {
			if !isRepeat[i] {
				isRepeat[0], isRepeat[i] = false, true
				break
			}
		}
	}
	ops := make([]fleetOp, len(isRepeat))
	var firsts []int // op indices of first-time requests, in stream order
	for i := range ops {
		if !isRepeat[i] {
			ops[i] = fleetOp{req: order[len(firsts)], repeatOf: -1}
			firsts = append(firsts, i)
			continue
		}
		lo := len(firsts) - fleetWindow
		if lo < 0 {
			lo = 0
		}
		orig := firsts[lo+rnd.Intn(len(firsts)-lo)]
		ops[i] = fleetOp{req: ops[orig].req, repeatOf: orig}
	}
	return ops
}

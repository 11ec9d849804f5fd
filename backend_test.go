package diffra

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"diffra/internal/ir"
	"diffra/internal/regalloc"
)

func TestPreferredBackend(t *testing.T) {
	want := map[Scheme]Backend{
		Baseline: AllocIRC, Remapping: AllocIRC, Select: AllocIRC,
		OSpill: AllocOSpill, Coalesce: AllocOSpill,
	}
	for s, b := range want {
		if got := s.preferred(); got != b {
			t.Errorf("%s.preferred() = %s, want %s", s, got, b)
		}
	}
}

func TestResolvedCanonicalizesAlloc(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		in     Backend
		want   Backend
	}{
		{Select, "", AllocIRC},
		{Coalesce, "", AllocOSpill},
		{Select, AllocAuto, AllocAuto},
		{Coalesce, AllocSSA, AllocSSA},
	} {
		got, err := Options{Scheme: tc.scheme, Alloc: tc.in}.Resolved()
		if err != nil {
			t.Fatalf("Resolved(%s/%s): %v", tc.scheme, tc.in, err)
		}
		if got.Alloc != tc.want {
			t.Errorf("Resolved(%s/%q).Alloc = %q, want %q", tc.scheme, tc.in, got.Alloc, tc.want)
		}
	}
	if _, err := (Options{Alloc: "bogus"}).Resolved(); err == nil {
		t.Error("unknown alloc backend accepted")
	}
}

// TestEveryBackendUnderEveryScheme compiles the shared sample under
// the full scheme x backend grid; every combination must produce a
// verified coloring and report the backend it ran.
func TestEveryBackendUnderEveryScheme(t *testing.T) {
	schemes := []Scheme{Baseline, Remapping, Select, OSpill, Coalesce}
	backends := []Backend{AllocIRC, AllocSSA, AllocOSpill}
	for _, s := range schemes {
		for _, b := range backends {
			res, err := Compile(sample, Options{Scheme: s, Alloc: b, RegN: 8, DiffN: 4, Restarts: 20})
			if err != nil {
				t.Fatalf("%s/%s: %v", s, b, err)
			}
			if res.AllocBackend != b {
				t.Errorf("%s/%s: AllocBackend = %q", s, b, res.AllocBackend)
			}
			if err := regalloc.Verify(res.F, res.Assignment); err != nil {
				t.Errorf("%s/%s: invalid coloring: %v", s, b, err)
			}
			if err := res.F.Verify(); err != nil {
				t.Errorf("%s/%s: malformed output: %v", s, b, err)
			}
		}
	}
}

// TestResolveAutoLadder drives the deadline policy directly — no
// timing, just deadlines far enough out (or near enough in) that the
// estimates decide deterministically.
func TestResolveAutoLadder(t *testing.T) {
	f := ir.MustParse(sample)
	at := func(d time.Duration) context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(d))
		t.Cleanup(cancel)
		return ctx
	}
	sel, _ := Options{Scheme: Select}.Resolved()
	coal, _ := Options{Scheme: Coalesce}.Resolved()

	if got := resolveAuto(context.Background(), f, sel); got != AllocIRC {
		t.Errorf("no deadline (select) = %s, want irc", got)
	}
	if got := resolveAuto(context.Background(), f, coal); got != AllocOSpill {
		t.Errorf("no deadline (coalesce) = %s, want ospill", got)
	}
	if got := resolveAuto(at(time.Hour), f, coal); got != AllocOSpill {
		t.Errorf("1h deadline (coalesce) = %s, want ospill", got)
	}
	// Under the ospill floor (200ms) but over the IRC estimate.
	if got := resolveAuto(at(100*time.Millisecond), f, coal); got != AllocIRC {
		t.Errorf("100ms deadline (coalesce) = %s, want irc", got)
	}
	// Under the IRC floor (2ms): only the scan fits.
	if got := resolveAuto(at(500*time.Microsecond), f, sel); got != AllocSSA {
		t.Errorf("0.5ms deadline (select) = %s, want ssa", got)
	}
	// The IRC estimate grows quadratically with the vreg count, so a
	// deadline that is plenty for a kernel steps a huge function down.
	big := ir.NewFunc("big")
	blk := big.NewBlock("entry")
	for i := 0; i < 80000; i++ {
		big.NewReg()
	}
	_ = blk
	if got := resolveAuto(at(500*time.Millisecond), big, sel); got != AllocSSA {
		t.Errorf("500ms deadline at 80k vregs = %s, want ssa", got)
	}
}

// TestPhaseErrorAttribution: an expired context surfaces as a
// PhaseError naming the phase and backend, while still matching the
// underlying context error through errors.Is.
func TestPhaseErrorAttribution(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, sample, Options{Scheme: Select, RegN: 8, DiffN: 4})
	if err == nil {
		t.Fatal("cancelled compile succeeded")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PhaseError: %v", err)
	}
	if pe.Phase != "allocate" || pe.Backend != AllocIRC {
		t.Errorf("attribution = %q/%q, want allocate/irc", pe.Phase, pe.Backend)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("PhaseError does not unwrap to context.Canceled: %v", err)
	}
}

// TestPhaseErrorNamesRemap: cancelling mid-way through a long
// remapping search attributes the timeout to the remap phase. The
// search stops after remap.Patience non-improving restarts, so the
// input must make each restart slow: 20 values live across a 256-entry
// register file at DiffN 2 costs milliseconds per restart and a few
// hundred milliseconds per search, while allocating it takes well under
// one millisecond.
func TestPhaseErrorNamesRemap(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := CompileContext(ctx, wideSrc(20, 6), Options{Scheme: Remapping, RegN: 256, DiffN: 2, Restarts: 3_000_000})
	if err == nil {
		t.Skip("search finished inside the deadline on this host")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a PhaseError: %v", err)
	}
	if pe.Phase != "remap" {
		t.Errorf("phase = %q, want remap", pe.Phase)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("PhaseError does not unwrap to DeadlineExceeded: %v", err)
	}
}

// wideSrc builds a straight-line function keeping w values live
// through blocks rounds of pairwise adds, then folding them together.
func wideSrc(w, blocks int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func wide(v0) {\nentry:\n")
	next := 1
	cur := make([]int, w)
	for i := range cur {
		fmt.Fprintf(&b, "  v%d = li %d\n", next, i)
		cur[i] = next
		next++
	}
	for blk := 1; blk < blocks; blk++ {
		nxt := make([]int, w)
		for i := range cur {
			fmt.Fprintf(&b, "  v%d = add v%d, v%d\n", next, cur[i], cur[(i+1)%w])
			nxt[i] = next
			next++
		}
		cur = nxt
	}
	acc := cur[0]
	for i := 1; i < w; i++ {
		fmt.Fprintf(&b, "  v%d = xor v%d, v%d\n", next, acc, cur[i])
		acc = next
		next++
	}
	fmt.Fprintf(&b, "  ret v%d\n}\n", acc)
	return b.String()
}

package experiments

import (
	"os"
	"strings"
	"testing"
)

// fastLowEnd trims the remapping search so the whole experiment runs
// in test time; orderings must already hold at this effort.
func fastLowEnd() LowEndConfig {
	cfg := DefaultLowEnd()
	cfg.Restarts = 60
	return cfg
}

func TestLowEndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rep, err := RunLowEnd(fastLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Kernels) != 10 {
		t.Fatalf("%d kernels", len(rep.Kernels))
	}

	// Figure 11 shape: every differential scheme spills far less than
	// the 8-register baseline; O-spill stays in the baseline's range.
	base := rep.AvgSpillPct(SchemeBaseline)
	for _, s := range []string{SchemeRemap, SchemeSelect, SchemeCoalesce} {
		if got := rep.AvgSpillPct(s); got >= base/2 {
			t.Errorf("fig11: %s spill%% %.2f not well below baseline %.2f", s, got, base)
		}
	}
	if o := rep.AvgSpillPct(SchemeOSpill); o > base*1.1 {
		t.Errorf("fig11: O-spill %.2f above baseline %.2f", o, base)
	}

	// Figure 12 shape: remapping pays the most set_last_reg cost.
	remapCost := rep.AvgCostPct(SchemeRemap)
	selCost := rep.AvgCostPct(SchemeSelect)
	coalCost := rep.AvgCostPct(SchemeCoalesce)
	if selCost > remapCost {
		t.Errorf("fig12: select %.2f above remapping %.2f", selCost, remapCost)
	}
	if coalCost > remapCost {
		t.Errorf("fig12: coalesce %.2f above remapping %.2f", coalCost, remapCost)
	}

	// Figure 14 shape: select and coalesce clearly beat remapping and
	// O-spill on average; all differential schemes beat the baseline.
	remapSp := rep.AvgSpeedup(SchemeRemap)
	selSp := rep.AvgSpeedup(SchemeSelect)
	coalSp := rep.AvgSpeedup(SchemeCoalesce)
	oSp := rep.AvgSpeedup(SchemeOSpill)
	if selSp <= 0 || coalSp <= 0 {
		t.Errorf("fig14: select %.1f / coalesce %.1f not positive", selSp, coalSp)
	}
	if selSp <= oSp || coalSp <= oSp {
		t.Errorf("fig14: differential schemes (%.1f, %.1f) must beat O-spill (%.1f)", selSp, coalSp, oSp)
	}
	_ = remapSp
}

func TestLowEndReportRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rep, err := RunLowEnd(fastLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.WriteAll(&sb)
	out := sb.String()
	for _, want := range []string{"Figure 11", "Figure 12", "Figure 13", "Figure 14", "average", "crc32", "coalesce"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestLowEndGolden pins the paper-configuration figures, simulated
// cycles included, to the committed text output of cmd/lowend
// (testdata/lowend.golden). A change to any figure must be a
// deliberate one that regenerates the golden with
// `go run ./cmd/lowend > internal/experiments/testdata/lowend.golden`.
func TestLowEndGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rep, err := RunLowEnd(DefaultLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rep.WriteAll(&sb)
	want, err := os.ReadFile("testdata/lowend.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/lowend.golden:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

// TestLowEndFigureOrderings guards the paper's conclusions against a
// golden regeneration: in the paper configuration, every pairwise
// ordering of the schemes' average row in Figures 11–14 must stay as
// it was under the fixed 1000-restart remap search. Each list names
// the schemes from lowest to highest average.
func TestLowEndFigureOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	rep, err := RunLowEnd(DefaultLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	figures := []struct {
		name      string
		avg       func(string) float64
		ascending []string
	}{
		{"fig11 spill%", rep.AvgSpillPct, []string{SchemeRemap, SchemeSelect, SchemeCoalesce, SchemeOSpill, SchemeBaseline}},
		{"fig12 set_last_reg%", rep.AvgCostPct, []string{SchemeCoalesce, SchemeSelect, SchemeRemap}},
		{"fig13 code size", rep.AvgCodeSize, []string{SchemeCoalesce, SchemeSelect, SchemeRemap, SchemeBaseline, SchemeOSpill}},
		{"fig14 speedup%", rep.AvgSpeedup, []string{SchemeOSpill, SchemeRemap, SchemeCoalesce, SchemeSelect}},
	}
	for _, fig := range figures {
		for i, lo := range fig.ascending {
			for _, hi := range fig.ascending[i+1:] {
				if a, b := fig.avg(lo), fig.avg(hi); a >= b {
					t.Errorf("%s: %s average %.3f no longer below %s %.3f", fig.name, lo, a, hi, b)
				}
			}
		}
	}
}

func TestVLIWShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment")
	}
	cfg := DefaultVLIW()
	cfg.Loops = 120
	cfg.Restarts = 10
	rep, err := RunVLIW(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Optimized == 0 {
		t.Fatal("no optimized loops in population")
	}
	// Table 2 shape: speedup non-decreasing in RegN and saturating;
	// all-loops speedup within the paper's order of magnitude.
	prev := -1.0
	for _, row := range rep.Rows {
		if row.SpeedupAll < prev-0.5 {
			t.Errorf("table2: speedup regressed at RegN=%d: %.2f after %.2f", row.RegN, row.SpeedupAll, prev)
		}
		prev = row.SpeedupAll
		if row.SpeedupOverall > row.SpeedupAll+0.01 {
			t.Errorf("table2: overall %.2f above all-loops %.2f", row.SpeedupOverall, row.SpeedupAll)
		}
	}
	first, last := rep.Rows[0], rep.Rows[len(rep.Rows)-1]
	if last.SpeedupOptimized <= first.SpeedupOptimized {
		t.Errorf("table2: no growth from RegN=%d (%.2f) to RegN=%d (%.2f)",
			first.RegN, first.SpeedupOptimized, last.RegN, last.SpeedupOptimized)
	}

	// Table 3 shape: spills fall monotonically with RegN and reach ~0;
	// code growth at the largest RegN stays small overall.
	prevSpills := rep.BaselineSpills
	for _, row := range rep.Rows {
		if row.SpillsOptimized > prevSpills {
			t.Errorf("table3: spills rose at RegN=%d: %d after %d", row.RegN, row.SpillsOptimized, prevSpills)
		}
		prevSpills = row.SpillsOptimized
	}
	if last.SpillsOptimized != 0 {
		t.Errorf("table3: RegN=64 still spills %d", last.SpillsOptimized)
	}
	if first.GrowthAllCode >= 0 {
		t.Errorf("table3: RegN=40 should shrink code (spills saved), got %.2f%%", first.GrowthAllCode)
	}
	if last.GrowthAllCode > 6 {
		t.Errorf("table3: RegN=64 all-code growth %.2f%% too large", last.GrowthAllCode)
	}

	var sb strings.Builder
	rep.WriteAll(&sb)
	if !strings.Contains(sb.String(), "Table 2") || !strings.Contains(sb.String(), "Table 3") {
		t.Error("report rendering incomplete")
	}
}

func TestTableWriter(t *testing.T) {
	tb := &table{header: []string{"a", "longcolumn"}}
	tb.add("x", "1")
	tb.add("yyyy", "2")
	var sb strings.Builder
	tb.write(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "----") {
		t.Error("missing separator")
	}
}

func TestSelectiveAblation(t *testing.T) {
	rows, err := RunSelective(fastLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// §8.2's defining property: the selective policy never loses to
		// either fixed policy.
		if r.Selective > r.Baseline || r.Selective > r.Differential {
			t.Errorf("%s: selective %d worse than baseline %d or differential %d",
				r.Kernel, r.Selective, r.Baseline, r.Differential)
		}
		if r.Enabled != (r.Differential < r.Baseline) {
			t.Errorf("%s: enable decision inconsistent", r.Kernel)
		}
	}
	var sb strings.Builder
	WriteSelective(&sb, rows)
	if !strings.Contains(sb.String(), "selective") {
		t.Error("rendering incomplete")
	}
}

func TestAlternativesAblation(t *testing.T) {
	rows, err := RunAlternatives(fastLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.SrcFirstPerField < 0 || r.DstFirstPerField < 0 || r.SrcFirstPerInstr < 0 {
			t.Errorf("%s: negative counts", r.Kernel)
		}
	}
	var sb strings.Builder
	WriteAlternatives(&sb, rows)
	if !strings.Contains(sb.String(), "dst-first") {
		t.Error("rendering incomplete")
	}
}

func TestProfileGuidedAblation(t *testing.T) {
	rows, err := RunProfileGuided(fastLowEnd())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	var static, prof uint64
	for _, r := range rows {
		static += r.StaticSets
		prof += r.ProfileSets
	}
	// Profile weighting targets executed sets; over the suite it must
	// not lose to the static estimate by more than noise.
	if float64(prof) > float64(static)*1.05 {
		t.Errorf("profile-guided executed sets %d worse than static %d", prof, static)
	}
	var sb strings.Builder
	WriteProfileGuided(&sb, rows)
	if !strings.Contains(sb.String(), "profile sets") {
		t.Error("rendering incomplete")
	}
}

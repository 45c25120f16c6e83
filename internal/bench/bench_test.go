package bench

import (
	"strconv"
	"strings"
	"testing"

	"codetomo/internal/apps"
)

// fastConfig keeps the experiment tests quick; ctbench uses DefaultConfig.
func fastConfig() Config {
	c := DefaultConfig()
	c.Samples = 400
	return c
}

func pctCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q not a percentage", s)
	}
	return v
}

func floatCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a float", s)
	}
	return v
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 22 {
		t.Fatalf("experiments = %d, want 22", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("f4"); !ok {
		t.Fatal("ByID(f4) missing")
	}
	if _, ok := ByID("zz"); ok {
		t.Fatal("ByID accepted unknown id")
	}
	if len(SortedIDs()) != len(exps) {
		t.Fatal("SortedIDs incomplete")
	}
}

func TestTableT1(t *testing.T) {
	tab, err := TableT1(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("T1 rows = %d, want 8", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if paths := floatCell(t, row[8]); paths < 1 {
			t.Fatalf("%s: no handler paths", row[0])
		}
	}
}

func TestFigF4QualitativeShape(t *testing.T) {
	c := fastConfig()
	tab, err := FigF4(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("F4 rows = %d", len(tab.Rows))
	}
	// Aggregate check (the paper's headline): ctomo beats original and
	// random on average, and lands near oracle.
	var sumOrig, sumRand, sumCT, sumOracle float64
	for _, row := range tab.Rows {
		sumOrig += pctCell(t, row[1])
		sumRand += pctCell(t, row[2])
		sumCT += pctCell(t, row[4])
		sumOracle += pctCell(t, row[5])
	}
	if !(sumCT < sumOrig) {
		t.Fatalf("ctomo (%v) not better than original (%v) in aggregate\n%s", sumCT, sumOrig, tab.Render())
	}
	if !(sumCT < sumRand) {
		t.Fatalf("ctomo (%v) not better than random (%v)\n%s", sumCT, sumRand, tab.Render())
	}
	if !(sumOracle <= sumCT+1e-9) {
		t.Fatalf("oracle (%v) worse than ctomo (%v)?\n%s", sumOracle, sumCT, tab.Render())
	}
}

func TestTableT2QualitativeShape(t *testing.T) {
	c := fastConfig()
	tab, err := TableT2(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 { // 8 apps × 2 strategies
		t.Fatalf("T2 rows = %d", len(tab.Rows))
	}
	// Per app: timestamps row precedes edge-counters row; tomography's
	// runtime overhead must be lower for branch-heavy apps in aggregate.
	var tsCycles, ecCycles float64
	for i := 0; i < len(tab.Rows); i += 2 {
		ts, ec := tab.Rows[i], tab.Rows[i+1]
		if ts[1] != "timestamps" || ec[1] != "edge-counters" {
			t.Fatalf("row order wrong: %v / %v", ts, ec)
		}
		tsCycles += floatCell(t, ts[4])
		ecCycles += floatCell(t, ec[4])
	}
	if !(tsCycles < ecCycles) {
		t.Fatalf("timestamps runtime overhead (%v) not below edge counters (%v)\n%s",
			tsCycles, ecCycles, tab.Render())
	}
}

func TestFigF3Shape(t *testing.T) {
	c := fastConfig()
	tab, err := FigF3(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("F3 rows = %d", len(tab.Rows))
	}
	// Error at 10000 samples must be below error at 30 samples for every
	// app column.
	for col := 1; col <= 3; col++ {
		lo := floatCell(t, tab.Rows[0][col])
		hi := floatCell(t, tab.Rows[len(tab.Rows)-1][col])
		if !(hi <= lo) {
			t.Fatalf("column %d error grew with samples: %v -> %v\n%s", col, lo, hi, tab.Render())
		}
	}
}

func TestFigF7AllRegimes(t *testing.T) {
	tab, err := FigF7(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("F7 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if mae := floatCell(t, row[1]); mae > 0.30 {
			t.Fatalf("regime %s MAE = %v, implausibly high", row[0], mae)
		}
	}
}

func TestFleetSweepShapes(t *testing.T) {
	c := fastConfig()
	c.Samples = 1600 // 400 per mote at the 4-mote baseline

	fl1, err := FleetLossSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl1.Rows) != 5 {
		t.Fatalf("FL1 rows = %d\n%s", len(fl1.Rows), fl1.Render())
	}
	lossless := floatCell(t, fl1.Rows[0][3])
	at20 := floatCell(t, fl1.Rows[3][3])
	bound := 2 * lossless
	if bound < 0.02 {
		bound = 0.02
	}
	if at20 > bound {
		t.Fatalf("FL1: MAE at 20%% loss %v exceeds bound %v\n%s", at20, bound, fl1.Render())
	}
	// Loss removes samples; it must never add them.
	for i := 1; i < len(fl1.Rows); i++ {
		if floatCell(t, fl1.Rows[i][1]) > floatCell(t, fl1.Rows[0][1]) {
			t.Fatalf("FL1: samples grew under loss\n%s", fl1.Render())
		}
	}

	fl2, err := FleetSizeSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl2.Rows) != 4 {
		t.Fatalf("FL2 rows = %d\n%s", len(fl2.Rows), fl2.Render())
	}
	// Fixed per-mote budget: merged sample count must grow with fleet
	// size, and the biggest fleet must estimate at least as well as the
	// single mote (modulo a small noise allowance).
	if floatCell(t, fl2.Rows[3][1]) <= floatCell(t, fl2.Rows[0][1]) {
		t.Fatalf("FL2: samples did not grow with fleet size\n%s", fl2.Render())
	}
	solo, octet := floatCell(t, fl2.Rows[0][2]), floatCell(t, fl2.Rows[3][2])
	if octet > solo+0.01 {
		t.Fatalf("FL2: MAE worsened with fleet size: %v -> %v\n%s", solo, octet, fl2.Render())
	}
}

// maeCell parses a MAE cell that may carry a low-confidence marker; a
// "fallback" cell fails the test, since these sweeps must keep estimating.
func maeCell(t *testing.T, s string) float64 {
	t.Helper()
	if s == "fallback" {
		t.Fatalf("handler fell back to baseline")
	}
	return floatCell(t, strings.TrimSuffix(s, "*"))
}

// The acceptance bar for the fault experiments: the hardened path degrades
// gracefully — MAE within 2× the fault-free figure at every fault level —
// while the naive path demonstrably does not, and the recovery protocol's
// cost shows up where it should.
func TestFaultSweepShapes(t *testing.T) {
	c := fastConfig()
	c.Samples = 1600 // 400 per mote at the 4-mote baseline

	ft1, err := FaultRecoverySweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft1.Rows) != 4 {
		t.Fatalf("FT1 rows = %d\n%s", len(ft1.Rows), ft1.Render())
	}
	hardBase := maeCell(t, ft1.Rows[0][3])
	bound := 2 * hardBase
	if bound < 0.03 {
		bound = 0.03
	}
	for _, row := range ft1.Rows {
		if hard := maeCell(t, row[3]); hard > bound {
			t.Fatalf("FT1 %s: hardened MAE %v exceeds bound %v\n%s", row[0], hard, bound, ft1.Render())
		}
	}
	// The naive path must visibly suffer at the highest fault level, or
	// the comparison demonstrates nothing.
	naiveClean := maeCell(t, ft1.Rows[0][2])
	naiveHigh := maeCell(t, ft1.Rows[3][2])
	hardHigh := maeCell(t, ft1.Rows[3][3])
	if !(naiveHigh > 2*naiveClean) || !(naiveHigh > hardHigh) {
		t.Fatalf("FT1: naive path did not degrade (clean %v, high %v, hard %v)\n%s",
			naiveClean, naiveHigh, hardHigh, ft1.Render())
	}
	// The high fault level must actually crash motes.
	if floatCell(t, ft1.Rows[3][1]) == 0 {
		t.Fatalf("FT1: no resets at the high fault level\n%s", ft1.Render())
	}

	ft2, err := ARQOverheadSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft2.Rows) != 5 {
		t.Fatalf("FT2 rows = %d\n%s", len(ft2.Rows), ft2.Render())
	}
	// No corruption, no protocol: the zero row must be all-quiet.
	if floatCell(t, ft2.Rows[0][1]) != 0 || floatCell(t, ft2.Rows[0][2]) != 0 {
		t.Fatalf("FT2: protocol active on a clean channel\n%s", ft2.Render())
	}
	// Rising corruption costs retransmissions and goodput, monotonically
	// from the clean row to the worst one.
	if !(floatCell(t, ft2.Rows[4][2]) > floatCell(t, ft2.Rows[1][2])) {
		t.Fatalf("FT2: retransmissions did not grow with corruption\n%s", ft2.Render())
	}
	if !(pctCell(t, ft2.Rows[4][5]) < pctCell(t, ft2.Rows[0][5])) {
		t.Fatalf("FT2: goodput did not fall with corruption\n%s", ft2.Render())
	}
	// What ARQ buys: even the worst corruption rate stays near the clean
	// estimation error.
	cleanMAE := maeCell(t, ft2.Rows[0][6])
	worstMAE := maeCell(t, ft2.Rows[4][6])
	wbound := 2 * cleanMAE
	if wbound < 0.03 {
		wbound = 0.03
	}
	if worstMAE > wbound {
		t.Fatalf("FT2: MAE at 40%% corruption %v exceeds bound %v\n%s", worstMAE, wbound, ft2.Render())
	}
}

// TestStaticAnalysisBench checks the sa1 acceptance shape: pinning shrinks
// the estimator's free-parameter set on the rail cases at equal-or-better
// accuracy, and dead-branch elimination saves cycles and code bytes
// exactly where branches were provable.
func TestStaticAnalysisBench(t *testing.T) {
	tab, err := StaticAnalysisBench(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("SA1 rows = %d, want 3\n%s", len(tab.Rows), tab.Render())
	}
	for _, row := range tab.Rows {
		pinned := floatCell(t, row[2])
		edgesOff, edgesOn := floatCell(t, row[3]), floatCell(t, row[4])
		itersOff, itersOn := floatCell(t, row[5]), floatCell(t, row[6])
		maeOff, maeOn := floatCell(t, row[9]), floatCell(t, row[10])
		cycSaved, codeSaved := floatCell(t, row[11]), floatCell(t, row[12])
		if edgesOn != edgesOff-2*pinned {
			t.Errorf("%s: pinning %v branches left %v of %v edges free",
				row[0], pinned, edgesOn, edgesOff)
		}
		if itersOn > itersOff {
			t.Errorf("%s: pinning increased EM iterations %v -> %v", row[0], itersOff, itersOn)
		}
		if maeOn > maeOff+0.01 {
			t.Errorf("%s: pinning worsened MAE %v -> %v", row[0], maeOff, maeOn)
		}
		if pinned > 0 && (cycSaved <= 0 || codeSaved <= 0) {
			t.Errorf("%s: dead-branch elim saved nothing (cyc %v, code %v)",
				row[0], cycSaved, codeSaved)
		}
		if pinned == 0 && (cycSaved != 0 || codeSaved != 0) {
			t.Errorf("%s: control case changed under DBE (cyc %v, code %v)",
				row[0], cycSaved, codeSaved)
		}
	}
}

// TestPGOSweepShape checks the pg1 acceptance shape: one row per kernel
// (the placement corpus plus the call-heavy chain), the full PGO stack
// never slower than placement alone, and every pass earning its place in
// the stack. With two passes each single-pass column is the other pass's
// leave-one-out, so inlining pays when the stack beats pagepack alone (on
// chain, the kernel it exists for) and page packing pays when the stack
// beats inline alone (on the branch-heavy corpus).
func TestPGOSweepShape(t *testing.T) {
	tab, err := PGOSweep(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(apps.All()) + 1; len(tab.Rows) != want {
		t.Fatalf("PG1 rows = %d, want %d\n%s", len(tab.Rows), want, tab.Render())
	}
	var sawChain bool
	packPays := 0
	for _, row := range tab.Rows {
		if floatCell(t, row[1]) <= 0 {
			t.Errorf("%s: nonpositive placed cycles %s", row[0], row[1])
		}
		inline, pack, stacked := floatCell(t, row[2]), floatCell(t, row[3]), floatCell(t, row[4])
		if stacked > 1.0 {
			t.Errorf("%s: stacked PGO slower than placement-only (%v)\n%s", row[0], stacked, tab.Render())
		}
		if stacked < inline {
			packPays++
		}
		if row[0] == "chain" {
			sawChain = true
			if inline >= 1.0 {
				t.Errorf("chain: inlining saved nothing (%v)\n%s", inline, tab.Render())
			}
			if stacked >= pack {
				t.Errorf("chain: stack without inlining is as fast as with it (%v vs %v)\n%s", pack, stacked, tab.Render())
			}
		}
	}
	if !sawChain {
		t.Fatalf("PG1 is missing the call-heavy chain kernel\n%s", tab.Render())
	}
	if packPays == 0 {
		t.Errorf("page packing makes the stack faster on no app\n%s", tab.Render())
	}
}

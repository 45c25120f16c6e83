package compile

// Tests for the profile-guided optimization pipeline: semantics preserved
// under every pass combination (differentially against the reference
// interpreter), structural effects of each pass (calls removed, weighted
// page crossings reduced), and exactness of the timing metadata on PGO-transformed binaries.

import (
	"testing"

	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/minic"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
)

// pgoBaseOptions is the full optimizing configuration the PGO pipeline
// normally rides on.
func pgoBaseOptions() Options {
	return Options{FuseCompares: true, RotateLoops: true, DeadBranchElim: true, VerifyIR: true}
}

// randomPGOWeights fabricates edge weights for every procedure of a built
// program — adversarial profiles for semantic testing, not realistic ones.
func randomPGOWeights(out *Output, wseed int64) map[string]ProcWeights {
	wr := stats.NewRNG(wseed)
	weights := make(map[string]ProcWeights)
	for _, p := range out.CFG.Procs {
		w := make(ProcWeights)
		for _, e := range p.Edges() {
			w[[2]ir.BlockID{e.From, e.To}] = wr.Float64() * 8
		}
		weights[p.Name] = w
	}
	return weights
}

// checkPGOSemantics builds one random program with the PGO passes selected
// by mask (bit 0 inline, bit 1 page pack) under
// random weights and a page-penalized cost model, and requires its debug
// output to match the reference interpreter exactly.
func checkPGOSemantics(t *testing.T, seed, wseed int64, mask int) {
	t.Helper()
	src := generateProgram(seed)
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: generated invalid program: %v\n%s", seed, err, src)
	}
	if err := minic.Check(f); err != nil {
		t.Fatalf("seed %d: generated ill-typed program: %v\n%s", seed, err, src)
	}

	rng := stats.NewRNG(1000 + seed)
	senseVals := make([]uint16, 64)
	randVals := make([]uint16, 64)
	for i := range senseVals {
		senseVals[i] = uint16(rng.Intn(1024))
		randVals[i] = uint16(rng.Intn(1 << 16))
	}

	var want []uint16
	si, ri := 0, 0
	env := minic.Env{
		Sense: scripted{senseVals, &si}.Next,
		Rand:  scripted{randVals, &ri}.Next,
		Debug: func(v uint16) { want = append(want, v) },
	}
	if err := minic.Interpret(f, env, 0); err != nil {
		t.Fatalf("seed %d: reference interpreter failed: %v\n%s", seed, err, src)
	}

	base := pgoBaseOptions()
	plain, err := Build(src, base)
	if err != nil {
		t.Fatalf("seed %d: plain build: %v\n%s", seed, err, src)
	}

	cost := isa.DefaultCostModel()
	cost.PageCrossPenalty = 3
	cost.PageSizeBytes = 64
	opts := base
	opts.Cost = cost
	opts.PGO = &PGOOptions{
		Weights:  randomPGOWeights(plain, wseed),
		Inline:   mask&1 != 0,
		PagePack: mask&2 != 0,
	}
	out, err := Build(src, opts)
	if err != nil {
		t.Fatalf("seed %d wseed %d mask %d: pgo build: %v\n%s", seed, wseed, mask, err, src)
	}

	cfgM := mote.DefaultConfig()
	cfgM.Cost = cost
	s2, r2 := 0, 0
	cfgM.Sensor = scripted{senseVals, &s2}
	cfgM.Entropy = scripted{randVals, &r2}
	m := mote.New(out.Code, cfgM)
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("seed %d wseed %d mask %d: run: %v\n%s\n%s", seed, wseed, mask, err, src, out.Listing())
	}
	got := m.DebugOutput()
	if len(got) != len(want) {
		t.Fatalf("seed %d wseed %d mask %d: debug length %d, want %d\n%s", seed, wseed, mask, len(got), len(want), src)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d wseed %d mask %d: debug[%d] = %d, want %d\n%s", seed, wseed, mask, i, got[i], want[i], src)
		}
	}
}

func TestPGODifferential(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, mask := range []int{1, 2, 3} {
			checkPGOSemantics(t, seed, seed*31+int64(mask), mask)
		}
	}
}

// FuzzPGOPasses is the open-ended version of TestPGODifferential: the fuzzer
// picks the program, the (adversarial) weights, and the pass combination.
func FuzzPGOPasses(f *testing.F) {
	f.Add(int64(1), int64(2), byte(3))
	f.Add(int64(3), int64(40), byte(1))
	f.Add(int64(7), int64(11), byte(2))
	f.Add(int64(20), int64(500), byte(3))
	f.Fuzz(func(t *testing.T, seed, wseed int64, mask byte) {
		checkPGOSemantics(t, seed, wseed, int(mask&3))
	})
}

// buildPair builds src plain and with the given PGO options (sharing the
// cost model) and checks both produce identical debug output.
func buildPGOPair(t *testing.T, src string, cost *isa.CostModel, mkPGO func(plain *Output) *PGOOptions) (plain, pgo *Output) {
	t.Helper()
	base := pgoBaseOptions()
	base.Cost = cost
	plain, err := Build(src, base)
	if err != nil {
		t.Fatalf("plain build: %v", err)
	}
	opts := base
	opts.PGO = mkPGO(plain)
	pgo, err = Build(src, opts)
	if err != nil {
		t.Fatalf("pgo build: %v", err)
	}
	var outs [2][]uint16
	for i, o := range []*Output{plain, pgo} {
		cfgM := mote.DefaultConfig()
		cfgM.Cost = cost
		m := mote.New(o.Code, cfgM)
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, o.Listing())
		}
		outs[i] = m.DebugOutput()
	}
	if len(outs[0]) != len(outs[1]) {
		t.Fatalf("debug length %d vs %d", len(outs[0]), len(outs[1]))
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("debug[%d] = %d plain, %d pgo", i, outs[0][i], outs[1][i])
		}
	}
	return plain, pgo
}

// uniformWeights gives every edge of every procedure the same weight.
func uniformWeights(out *Output, w float64) map[string]ProcWeights {
	weights := make(map[string]ProcWeights)
	for _, p := range out.CFG.Procs {
		pw := make(ProcWeights)
		for _, e := range p.Edges() {
			pw[[2]ir.BlockID{e.From, e.To}] = w
		}
		weights[p.Name] = pw
	}
	return weights
}

func TestPGOInlineRemovesCalls(t *testing.T) {
	src := `
func add3(a int) int {
	return a + 3;
}

func main() {
	var i int;
	var s int;
	for (i = 0; i < 5; i = i + 1) {
		s = s + add3(i);
	}
	debug(s);
}`
	_, pgo := buildPGOPair(t, src, isa.DefaultCostModel(), func(plain *Output) *PGOOptions {
		return &PGOOptions{Weights: uniformWeights(plain, 5), Inline: true}
	})
	calls := 0
	for _, in := range pgo.Code {
		if in.Op == isa.CALL {
			calls++
		}
	}
	// Only the startup stub's CALL main survives.
	if calls != 1 {
		t.Fatalf("CALL count = %d, want 1 (inlining should remove the add3 sites)\n%s", calls, pgo.Listing())
	}
	if got := pgo.Meta.ProcByName["main"]; got == nil {
		t.Fatal("no meta for main")
	}
}

func TestPGOPagePackReducesWeightedCrossings(t *testing.T) {
	src := `
func mix(a int, b int) int {
	var r int;
	r = a * 3 + b;
	r = r ^ (a >> 2);
	return r;
}

func main() {
	var i int;
	var s int;
	for (i = 0; i < 6; i = i + 1) {
		s = s + i;
	}
	debug(s + mix(1, 2));
}`
	// The page size is tuned so main's hot loop fits in one page but
	// straddles a boundary at its natural address: the packer must find
	// the shift that keeps the back-edge on-page.
	cost := isa.DefaultCostModel()
	cost.PageCrossPenalty = 4
	cost.PageSizeBytes = 128
	base := pgoBaseOptions()
	base.Cost = cost
	ref, err := Build(src, base)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	w := uniformWeights(ref, 2)

	build := func(pack bool) *Output {
		opts := base
		opts.PGO = &PGOOptions{Weights: w, PagePack: pack}
		out, err := Build(src, opts)
		if err != nil {
			t.Fatalf("build (pack=%v): %v", pack, err)
		}
		return out
	}
	unpacked, packed := build(false), build(true)

	// Profile-weighted static page crossings: the quantity the packer
	// minimizes per procedure, summed over the program.
	crossWeight := func(out *Output) float64 {
		total := 0.0
		for _, pm := range out.Meta.Procs {
			pw := w[pm.Name]
			for k, info := range pm.Edges {
				total += float64(info.PageCrosses) * pw[[2]ir.BlockID{k.From, k.To}]
			}
		}
		return total
	}
	cu, cp := crossWeight(unpacked), crossWeight(packed)
	if cp > cu {
		t.Fatalf("packing increased weighted crossings: %v > %v\n%s", cp, cu, packed.Listing())
	}
	if cp == cu {
		t.Fatalf("packer found nothing to improve (weighted crossings %v); shrink the page size so the test has teeth", cu)
	}

	// Padding must not change semantics, and the mote must observe fewer
	// crossings too (same loop structure, uniform weights).
	var crossings [2]uint64
	var outs [2][]uint16
	for i, o := range []*Output{unpacked, packed} {
		cfgM := mote.DefaultConfig()
		cfgM.Cost = cost
		m := mote.New(o.Code, cfgM)
		if err := m.Run(10_000_000); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		crossings[i] = m.Stats().PageCrossings
		outs[i] = m.DebugOutput()
	}
	if len(outs[0]) != len(outs[1]) {
		t.Fatalf("debug length %d vs %d", len(outs[0]), len(outs[1]))
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("debug[%d] = %d unpacked, %d packed", i, outs[0][i], outs[1][i])
		}
	}
	if crossings[1] > crossings[0] {
		t.Fatalf("packed build crossed pages more often at runtime: %d > %d", crossings[1], crossings[0])
	}
}

// TestPGOTimingModelExact locks the timing contract on a PGO-transformed
// binary under page-cross penalties: the model's PathCycles must equal the
// measured exclusive durations exactly, for every procedure left
// straight-line by the transforms.
func TestPGOTimingModelExact(t *testing.T) {
	src := `
var g int = 7;

func leaf() int {
	var x int;
	x = g * 3 + 1;
	return x - 2;
}

func middle(a int) int {
	var y int;
	y = leaf() + a;
	y = y + leaf();
	return y;
}

func main() {
	debug(middle(5));
	debug(leaf());
}`
	cost := isa.DefaultCostModel()
	cost.PageCrossPenalty = 5
	cost.PageSizeBytes = 16 // tiny pages force crossings inside procedures
	base := Options{Instrument: ModeTimestamps, VerifyIR: true, Cost: cost}
	plain, err := Build(src, base)
	if err != nil {
		t.Fatal(err)
	}
	opts := base
	opts.PGO = &PGOOptions{
		Weights:  uniformWeights(plain, 1),
		Inline:   true,
		PagePack: true,
	}
	out, err := Build(src, opts)
	if err != nil {
		t.Fatal(err)
	}

	cfgM := mote.DefaultConfig()
	cfgM.TickDiv = 1
	cfgM.Cost = cost
	m := mote.New(out.Code, cfgM)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	ivs, err := trace.Extract(m.Trace())
	if err != nil {
		t.Fatal(err)
	}
	byProc := trace.ExclusiveByProc(ivs)

	checked := 0
	for _, pm := range out.Meta.Procs {
		samples := byProc[pm.Index]
		if len(samples) == 0 {
			continue // fully inlined away
		}
		p := out.CFG.Proc(pm.Name)
		path := []ir.BlockID{p.Entry}
		for {
			succs := p.Block(path[len(path)-1]).Succs()
			if len(succs) == 0 {
				break
			}
			if len(succs) != 1 {
				t.Fatalf("%s is not straight-line after PGO", pm.Name)
			}
			path = append(path, succs[0])
		}
		want, err := out.Meta.PathCycles(pm, path, cfgM.Predictor)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range samples {
			if got != want {
				t.Fatalf("%s invocation %d: measured %d cycles, model %d\npath %v\n%s",
					pm.Name, i, got, want, path, out.Listing())
			}
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("only %d procedures checked", checked)
	}
}

// BenchmarkPGOBuild keeps the cost of the full profile-guided pipeline —
// inline, page packing, and the re-emission the packer may trigger — visible per build of a mid-sized random program.
func BenchmarkPGOBuild(b *testing.B) {
	src := generateProgram(7)
	cost := isa.DefaultCostModel()
	cost.PageCrossPenalty = 3
	cost.PageSizeBytes = 64
	base := pgoBaseOptions()
	base.Cost = cost
	plain, err := Build(src, base)
	if err != nil {
		b.Fatal(err)
	}
	opts := base
	opts.PGO = &PGOOptions{
		Weights: uniformWeights(plain, 2),
		Inline:  true, PagePack: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

package layout_test

import (
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/workload"
)

// diamond: 0 -> 1|2 -> 3
func diamond() *cfg.Proc {
	return &cfg.Proc{
		Name:  "d",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Term: ir.Jmp{Target: 3}},
			{ID: 2, Term: ir.Jmp{Target: 3}},
			{ID: 3, Term: ir.Ret{Val: -1}},
		},
	}
}

func TestOptimizeMakesHotEdgeFallThrough(t *testing.T) {
	p := diamond()
	w := layout.Weights{
		{0, 1}: 0.9, {0, 2}: 0.1,
		{1, 3}: 0.9, {2, 3}: 0.1,
	}
	order := layout.Optimize(p, w)
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("hot successor not fall-through: %v", order)
	}
	// Cold arm placed after the hot chain.
	if order[2] != 3 {
		t.Fatalf("hot chain broken: %v", order)
	}
}

func TestOptimizeColdBranchFlip(t *testing.T) {
	p := diamond()
	w := layout.Weights{
		{0, 1}: 0.05, {0, 2}: 0.95,
		{1, 3}: 0.05, {2, 3}: 0.95,
	}
	order := layout.Optimize(p, w)
	if order[1] != 2 {
		t.Fatalf("hot (false) successor not fall-through: %v", order)
	}
}

func TestOptimizeIsPermutation(t *testing.T) {
	p := diamond()
	for seed := int64(0); seed < 10; seed++ {
		rng := stats.NewRNG(seed)
		w := layout.Weights{}
		for _, e := range p.Edges() {
			w[[2]ir.BlockID{e.From, e.To}] = rng.Float64()
		}
		order := layout.Optimize(p, w)
		seen := map[ir.BlockID]bool{}
		for _, b := range order {
			if seen[b] {
				t.Fatalf("duplicate block in %v", order)
			}
			seen[b] = true
		}
		if len(order) != len(p.Blocks) {
			t.Fatalf("order %v not a permutation", order)
		}
		if order[0] != p.Entry {
			t.Fatalf("entry not first: %v", order)
		}
	}
}

func TestRandomLayoutProperties(t *testing.T) {
	p := diamond()
	a := layout.Random(p, 1)
	b := layout.Random(p, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random not deterministic per seed")
		}
	}
	if a[0] != p.Entry {
		t.Fatal("entry not first")
	}
}

func TestFromProbsWeightsLoopHigher(t *testing.T) {
	// Loop: 0->1; 1->2|3; 2->1. With continue prob 0.9 the back edge's
	// traversal weight must exceed the exit edge's.
	p := &cfg.Proc{
		Name:  "loop",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Jmp{Target: 1}},
			{ID: 1, Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Term: ir.Jmp{Target: 1}},
			{ID: 3, Term: ir.Ret{Val: -1}},
		},
	}
	probs := markov.Uniform(p)
	probs[[2]ir.BlockID{1, 2}] = 0.9
	probs[[2]ir.BlockID{1, 3}] = 0.1
	w := layout.FromProbs(p, probs)
	if w[[2]ir.BlockID{1, 2}] <= w[[2]ir.BlockID{1, 3}] {
		t.Fatalf("loop edge weight %v not above exit %v",
			w[[2]ir.BlockID{1, 2}], w[[2]ir.BlockID{1, 3}])
	}
	// Expected traversals of the exit edge are exactly 1 per invocation.
	if diff := w[[2]ir.BlockID{1, 3}] - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("exit edge weight = %v, want 1", w[[2]ir.BlockID{1, 3}])
	}
}

const skewedProgram = `
func work(v int) int {
	var r int;
	r = 0;
	if (v < 900) {      // overwhelmingly likely under the workload
		r = v / 3;
	} else {
		r = v * 2 + 7;
	}
	if (v < 100) {      // unlikely
		r = r + 1000;
	}
	while (r > 400) {
		r = r - 150;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 400; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

func runWith(t *testing.T, layouts map[string][]ir.BlockID, seed int64) (*compile.Output, *mote.Machine) {
	t.Helper()
	out, err := compile.Build(skewedProgram, compile.Options{Layouts: layouts})
	if err != nil {
		t.Fatal(err)
	}
	cfgM := mote.DefaultConfig()
	cfgM.Sensor = workload.NewGaussian(stats.NewRNG(seed), 420, 160)
	m := mote.New(out.Code, cfgM)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	return out, m
}

// TestOracleLayoutReducesMispredicts is the paper's end metric in
// miniature: profile-guided placement must beat the original layout on
// misprediction count, and the program output must be unchanged.
func TestOracleLayoutReducesMispredicts(t *testing.T) {
	outBase, mBase := runWith(t, nil, 77)

	// Build oracle probabilities from the baseline run.
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range outBase.CFG.Procs {
		probs[p.Name] = profile.OracleProbs(outBase.Meta.ProcByName[p.Name], p, mBase.BranchStats())
	}
	layouts := layout.PlanAll(outBase.CFG, probs).Layouts
	outOpt, mOpt := runWith(t, layouts, 77)

	if mBase.DebugOutput()[0] != mOpt.DebugOutput()[0] {
		t.Fatal("optimized layout changed program output")
	}
	base, opt := mBase.Stats(), mOpt.Stats()
	if opt.Mispredicts >= base.Mispredicts {
		t.Fatalf("mispredicts did not improve: base=%d opt=%d", base.Mispredicts, opt.Mispredicts)
	}
	if opt.Cycles >= base.Cycles {
		t.Fatalf("cycles did not improve: base=%d opt=%d", base.Cycles, opt.Cycles)
	}
	_ = outOpt
}

func TestRandomLayoutWorseThanOracle(t *testing.T) {
	outBase, mBase := runWith(t, nil, 99)
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range outBase.CFG.Procs {
		probs[p.Name] = profile.OracleProbs(outBase.Meta.ProcByName[p.Name], p, mBase.BranchStats())
	}
	_, mOpt := runWith(t, layout.PlanAll(outBase.CFG, probs).Layouts, 99)
	_, mRand := runWith(t, layout.RandomAll(outBase.CFG, 5), 99)
	if mOpt.Stats().Mispredicts >= mRand.Stats().Mispredicts {
		t.Fatalf("oracle (%d mispredicts) not better than random (%d)",
			mOpt.Stats().Mispredicts, mRand.Stats().Mispredicts)
	}
}

func TestHintsFollowWeights(t *testing.T) {
	p := diamond()
	w := layout.Weights{{0, 1}: 0.8, {0, 2}: 0.2}
	h := layout.Hints(p, w)
	if !h[0] {
		t.Fatal("hint should mark True successor hot")
	}
	w = layout.Weights{{0, 1}: 0.1, {0, 2}: 0.9}
	if layout.Hints(p, w)[0] {
		t.Fatal("hint should mark False successor hot")
	}
}

func TestPlanAllSkipsUnlistedProcs(t *testing.T) {
	out, err := compile.Build(skewedProgram, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	probs := map[string]markov.EdgeProbs{
		"work": markov.Uniform(out.CFG.Proc("work")),
	}
	plan := layout.PlanAll(out.CFG, probs)
	if _, ok := plan.Layouts["work"]; !ok {
		t.Fatal("listed proc not planned")
	}
	if _, ok := plan.Layouts["main"]; ok {
		t.Fatal("unlisted proc was planned; untrusted procs must keep their original layout")
	}
}

func TestMergeOnlyHottestOutEdge(t *testing.T) {
	// Branch 0 -> {1 (cold, 0.2), 2 (hot, 0.8)}, but 2 is claimed as the
	// fall-through of a hotter predecessor chain. The cold arm must NOT
	// become block 0's fall-through: better to leave 0 chain-terminal and
	// let branch polarity handle it.
	p := &cfg.Proc{
		Name:  "claim",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Jmp{Target: 1}},
			{ID: 1, Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Term: ir.Jmp{Target: 4}},
			{ID: 3, Term: ir.Jmp{Target: 2}},
			{ID: 4, Term: ir.Ret{Val: -1}},
		},
	}
	w := layout.Weights{
		{0, 1}: 1.0,
		{1, 2}: 0.2, // cold arm
		{1, 3}: 0.8, // hot arm
		{3, 2}: 0.8,
		{2, 4}: 1.0,
	}
	order := layout.Optimize(p, w)
	pos := map[ir.BlockID]int{}
	for i, b := range order {
		pos[b] = i
	}
	// Hot arm 3 must directly follow the branch block 1.
	if pos[3] != pos[1]+1 {
		t.Fatalf("hot arm not fall-through: %v", order)
	}
}

func TestEmissionAvoidsColdArmFallThrough(t *testing.T) {
	// A loop 1 -> 2 -> 4 -> 1 whose edges tie up to float rounding, so
	// merging builds the chain 2 4 1 and leaves the loop exit 3 alone.
	// Once 1 is placed, the exit chain has the strongest connection, but
	// emitting it next would make the cold exit arm 1 -> 3 the
	// fall-through and the hot back edge 1 -> 2 a taken branch on every
	// iteration. Emission must take the other remaining chain (5) first.
	p := &cfg.Proc{
		Name:  "loop",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Br{Cond: 0, True: 1, False: 5}},
			{ID: 1, Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Term: ir.Jmp{Target: 4}},
			{ID: 3, Term: ir.Ret{Val: -1}},
			{ID: 4, Term: ir.Jmp{Target: 1}},
			{ID: 5, Term: ir.Ret{Val: -1}},
		},
	}
	w := layout.Weights{
		{0, 1}: 1,
		{0, 5}: 0,
		{1, 2}: 8 - 1e-12, // hot back edge, rounded just below its peers
		{1, 3}: 1,         // cold loop exit
		{2, 4}: 8,
		{4, 1}: 8,
	}
	order := layout.Optimize(p, w)
	want := []ir.BlockID{0, 2, 4, 1, 5, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v (the cold exit 3 must not follow 1)", order, want)
		}
	}
}

package profile

import (
	"fmt"
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
)

const testProgram = `
func work(v int) int {
	var r int;
	r = 0;
	while (v > 100) {
		v = v - 100;
		r = r + 1;
	}
	if (v > 50) {
		r = r + 10;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 200; i = i + 1) {
		acc = acc + work(sense());
	}
	debug(acc);
}`

type rampSource struct{ i int }

func (s *rampSource) Next() uint16 {
	s.i++
	return uint16((s.i * 211) % 1024)
}

func build(t *testing.T, mode compile.Mode) (*compile.Output, *mote.Machine) {
	t.Helper()
	out, err := compile.Build(testProgram, compile.Options{Instrument: mode})
	if err != nil {
		t.Fatal(err)
	}
	mc := mote.DefaultConfig()
	mc.Sensor = &rampSource{}
	m := mote.New(out.Code, mc)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	return out, m
}

func TestOracleProbsSumToOne(t *testing.T) {
	out, m := build(t, compile.ModeNone)
	p := out.CFG.Proc("work")
	probs := OracleProbs(out.Meta.ProcByName["work"], p, m.BranchStats())
	if _, err := markov.New(p, probs); err != nil {
		t.Fatalf("oracle probs invalid: %v", err)
	}
	// The loop branch must be biased (many iterations per call under the
	// ramp input), not at the uniform prior.
	biased := false
	for _, bb := range p.BranchBlocks() {
		for _, s := range p.Block(bb).Succs() {
			q := probs[[2]ir.BlockID{bb, s}]
			if q > 0.6 || q < 0.4 {
				biased = true
			}
		}
	}
	if !biased {
		t.Fatal("oracle probabilities all uniform; ground truth not flowing")
	}
}

func TestOracleEdgeCountsMatchProbs(t *testing.T) {
	out, m := build(t, compile.ModeNone)
	p := out.CFG.Proc("work")
	pm := out.Meta.ProcByName["work"]
	probs := OracleProbs(pm, p, m.BranchStats())
	counts := OracleEdgeCounts(pm, p, m.BranchStats())
	for _, bb := range p.BranchBlocks() {
		succs := p.Block(bb).Succs()
		total := 0.0
		for _, s := range succs {
			total += counts[[2]ir.BlockID{bb, s}]
		}
		if total == 0 {
			continue
		}
		for _, s := range succs {
			key := [2]ir.BlockID{bb, s}
			got := counts[key] / total
			if d := got - probs[key]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("edge %v: count ratio %v != prob %v", key, got, probs[key])
			}
		}
	}
}

// edgeCounterProbs reconstructs edge probabilities from the PROFCNT arc
// counters of a ModeEdgeCounters run.
func edgeCounterProbs(pm *compile.ProcMeta, proc *cfg.Proc, counters map[int32]uint64) (markov.EdgeProbs, error) {
	probs := markov.Uniform(proc)
	for _, bb := range proc.BranchBlocks() {
		succs := proc.Block(bb).Succs()
		var total uint64
		counts := make([]uint64, len(succs))
		for i, s := range succs {
			id, ok := pm.ArcCounters[compile.EdgeKey{From: bb, To: s}]
			if !ok {
				return nil, fmt.Errorf("profile: %s: no arc counter for edge %v->%v", pm.Name, bb, s)
			}
			counts[i] = counters[id]
			total += counts[i]
		}
		if total == 0 {
			continue
		}
		for i, s := range succs {
			probs[[2]ir.BlockID{bb, s}] = float64(counts[i]) / float64(total)
		}
	}
	return probs, nil
}

func TestEdgeCounterProbsMatchOracle(t *testing.T) {
	out, m := build(t, compile.ModeEdgeCounters)
	p := out.CFG.Proc("work")
	pm := out.Meta.ProcByName["work"]
	fromCounters, err := edgeCounterProbs(pm, p, m.ProfileCounters())
	if err != nil {
		t.Fatal(err)
	}
	oracle := OracleProbs(pm, p, m.BranchStats())
	for k, v := range oracle {
		if d := v - fromCounters[k]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("edge %v: counters %v, oracle %v", k, fromCounters[k], v)
		}
	}
}

func TestBallLarusLoopHeuristic(t *testing.T) {
	out, _ := build(t, compile.ModeNone)
	p := out.CFG.Proc("work")
	probs := BallLarusProbs(p)
	if _, err := markov.New(p, probs); err != nil {
		t.Fatalf("Ball-Larus probs invalid: %v", err)
	}
	// The loop header must favour staying in the loop.
	loops := p.NaturalLoops()
	if len(loops) == 0 {
		t.Fatal("work has no loop")
	}
	h := loops[0].Header
	for _, s := range p.Block(h).Succs() {
		q := probs[[2]ir.BlockID{h, s}]
		if loops[0].Body[s] {
			if q < 0.8 {
				t.Fatalf("in-loop edge prob = %v, want >= 0.8", q)
			}
		} else if q > 0.2 {
			t.Fatalf("loop-exit edge prob = %v, want <= 0.2", q)
		}
	}
}

func TestBallLarusReturnHeuristic(t *testing.T) {
	// Branch where one arm returns immediately: return arm is unlikely.
	p := &cfg.Proc{
		Name:  "g",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Term: ir.Ret{Val: -1}},
			{ID: 2, Term: ir.Jmp{Target: 3}},
			{ID: 3, Term: ir.Ret{Val: -1}},
		},
	}
	probs := BallLarusProbs(p)
	if probs[[2]ir.BlockID{0, 1}] >= 0.5 {
		t.Fatalf("return-arm prob = %v, want < 0.5", probs[[2]ir.BlockID{0, 1}])
	}
}

func TestSampleRun(t *testing.T) {
	out, err := compile.Build(testProgram, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc := mote.DefaultConfig()
	mc.Sensor = &rampSource{}
	m := mote.New(out.Code, mc)
	samples, err := SampleRun(m, out.Meta, 37, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples["work"]) == 0 {
		t.Fatal("sampling saw no blocks of work")
	}
	var total uint64
	for _, blocks := range samples {
		for _, n := range blocks {
			total += n
		}
	}
	// Sample count ≈ cycles / period.
	want := m.Stats().Cycles / 37
	if total < want*8/10 || total > want {
		t.Fatalf("samples = %d, want ≈ %d", total, want)
	}
	// Derived probabilities must be a valid assignment.
	probs := SamplingProbs(out.CFG.Proc("work"), samples["work"])
	if _, err := markov.New(out.CFG.Proc("work"), probs); err != nil {
		t.Fatal(err)
	}
}

func TestSampleRunRejectsZeroPeriod(t *testing.T) {
	out, _ := compile.Build(testProgram, compile.Options{})
	m := mote.New(out.Code, mote.DefaultConfig())
	if _, err := SampleRun(m, out.Meta, 0, 1000); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestMeasureOverhead(t *testing.T) {
	outBase, mBase := build(t, compile.ModeNone)
	outTS, mTS := build(t, compile.ModeTimestamps)
	outEC, mEC := build(t, compile.ModeEdgeCounters)
	energy := mote.DefaultEnergyModel()

	ts := MeasureOverhead("timestamps", outBase.Meta, outTS.Meta, mBase.Stats(), mTS.Stats(), energy)
	ec := MeasureOverhead("edge-counters", outBase.Meta, outEC.Meta, mBase.Stats(), mEC.Stats(), energy)

	if ts.CodeBytes == 0 || ec.CodeBytes == 0 {
		t.Fatal("instrumentation added no code?")
	}
	if ts.ExtraCycles == 0 || ec.ExtraCycles == 0 {
		t.Fatal("instrumentation added no cycles?")
	}
	if ts.RAMBytes != TraceRingWords*2 {
		t.Fatalf("timestamp RAM = %d", ts.RAMBytes)
	}
	if ec.RAMBytes != outEC.Meta.NumArcCounters*2 {
		t.Fatalf("counter RAM = %d", ec.RAMBytes)
	}
	// The paper's claim in miniature: two timestamps per invocation cost
	// fewer cycles than a counter at every branch arc of a loopy kernel.
	if ts.ExtraCycles >= ec.ExtraCycles {
		t.Fatalf("timestamps (%d) not cheaper than counters (%d)", ts.ExtraCycles, ec.ExtraCycles)
	}
	if ts.ExtraCyclesPct <= 0 || ts.ExtraEnergyUJ <= 0 {
		t.Fatal("percentage/energy not computed")
	}
}

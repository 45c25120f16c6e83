package compile

import (
	"testing"

	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/mote"
	"codetomo/internal/trace"
)

// optVariants builds the same source under the optimization option sets the
// suite exercises.
func optVariants() []Options {
	return []Options{
		{},
		{FuseCompares: true},
		{RotateLoops: true},
		{FuseCompares: true, RotateLoops: true},
	}
}

func TestFusionPreservesSemantics(t *testing.T) {
	for _, src := range []string{branchyProgram, goodKitchenSink} {
		ref := debugWords(t, src, Options{}, sensorRamp(64))
		for _, opts := range optVariants()[1:] {
			got := debugWords(t, src, opts, sensorRamp(64))
			if len(got) != len(ref) {
				t.Fatalf("opts %+v changed output length", opts)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("opts %+v changed output: %v vs %v", opts, got, ref)
				}
			}
		}
	}
}

// goodKitchenSink exercises every comparison operator in branch position,
// comparisons used as values (non-fusable), and nested loops.
const goodKitchenSink = `
var acc int;

func visit(v int) int {
	var r int;
	r = 0;
	if (v < 100) { r = r + 1; }
	if (v <= 100) { r = r + 2; }
	if (v > 100) { r = r + 4; }
	if (v >= 100) { r = r + 8; }
	if (v == 100) { r = r + 16; }
	if (v != 100) { r = r + 32; }
	r = r + (v < 500);            // comparison as value: must not fuse
	return r;
}

func nested(n int) int {
	var i int;
	var j int;
	var s int;
	s = 0;
	for (i = 0; i < n; i = i + 1) {
		for (j = 0; j < 3; j = j + 1) {
			s = s + i * j;
		}
	}
	return s;
}

func main() {
	var k int;
	for (k = 0; k < 30; k = k + 1) {
		acc = acc + visit(sense()) + nested(k & 7);
	}
	debug(acc);
}`

func TestFusionReducesCodeAndCycles(t *testing.T) {
	base, err := Build(goodKitchenSink, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := Build(goodKitchenSink, Options{FuseCompares: true})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Meta.CodeBytes >= base.Meta.CodeBytes {
		t.Fatalf("fusion did not shrink code: %d vs %d", fused.Meta.CodeBytes, base.Meta.CodeBytes)
	}
	m1 := exec(t, goodKitchenSink, Options{}, sensorRamp(64))
	m2 := exec(t, goodKitchenSink, Options{FuseCompares: true}, sensorRamp(64))
	if m2.Stats().Cycles >= m1.Stats().Cycles {
		t.Fatalf("fusion did not save cycles: %d vs %d", m2.Stats().Cycles, m1.Stats().Cycles)
	}
	// Fused builds must contain compare-and-branch opcodes.
	found := false
	for _, in := range fused.Code {
		switch in.Op {
		case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
			found = true
		}
	}
	if !found {
		t.Fatal("no fused branches emitted")
	}
}

func TestFusionKeepsValueComparisons(t *testing.T) {
	// `r + (v < 500)` uses the comparison as a value; the SLT must remain.
	out, err := Build(goodKitchenSink, Options{FuseCompares: true})
	if err != nil {
		t.Fatal(err)
	}
	slt := false
	for _, in := range out.Code {
		if in.Op == isa.SLT {
			slt = true
		}
	}
	if !slt {
		t.Fatal("value-position comparison was removed")
	}
}

func TestRotationCreatesBackwardCondBranches(t *testing.T) {
	src := `
func main() {
	var i int;
	var s int;
	s = 0;
	for (i = 0; i < 100; i = i + 1) {
		s = s + i;
	}
	debug(s);
}`
	plain, err := Build(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := Build(src, Options{RotateLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	countBackward := func(code []isa.Instr) int {
		n := 0
		for pc, in := range code {
			switch in.Op {
			case isa.BZ, isa.BNZ, isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
				if in.Imm <= int32(pc) {
					n++
				}
			}
		}
		return n
	}
	if countBackward(plain.Code) != 0 {
		t.Fatalf("plain build has backward conditional branches")
	}
	if countBackward(rot.Code) == 0 {
		t.Fatal("rotation produced no backward conditional branches")
	}
}

func TestRotationHelpsBTFN(t *testing.T) {
	src := `
func main() {
	var i int;
	var s int;
	s = 0;
	for (i = 0; i < 2000; i = i + 1) {
		s = s + (i & 7);
	}
	debug(s);
}`
	run := func(opts Options) mote.Stats {
		out, err := Build(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mote.DefaultConfig()
		cfg.Predictor = mote.BTFN{}
		m := mote.New(out.Code, cfg)
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	plain := run(Options{})
	rot := run(Options{RotateLoops: true, FuseCompares: true})
	// A top-test loop's latch is an unconditional JMP, so the natural
	// layout is already well predicted; rotation's win is removing that
	// JMP from every iteration. Mispredicts must not get worse and the
	// hot path must get shorter.
	if rot.Mispredicts > plain.Mispredicts {
		t.Fatalf("rotation worsened BTFN mispredicts: %d vs %d", rot.Mispredicts, plain.Mispredicts)
	}
	if rot.Cycles >= plain.Cycles {
		t.Fatalf("rotation did not cut cycles under BTFN: %d vs %d", rot.Cycles, plain.Cycles)
	}
}

func TestRotationWithSideEffectCondition(t *testing.T) {
	// The loop condition reads the sensor — a side effect. Rotation
	// duplicates the test block, and the number of sensor reads per
	// execution must not change.
	src := `
func main() {
	var n int;
	n = 0;
	while (sense() < 800) {
		n = n + 1;
	}
	debug(n);
}`
	ramp := sensorRamp(64) // eventually exceeds 800
	m1 := exec(t, src, Options{}, ramp)
	m2 := exec(t, src, Options{RotateLoops: true}, ramp)
	if m1.Stats().SensorReads != m2.Stats().SensorReads {
		t.Fatalf("rotation changed sensor reads: %d vs %d",
			m1.Stats().SensorReads, m2.Stats().SensorReads)
	}
	if m1.DebugOutput()[0] != m2.DebugOutput()[0] {
		t.Fatal("rotation changed loop trip count")
	}
}

// TestTimingModelHoldsUnderOptimizations re-validates the core contract —
// measured exclusive durations equal predicted path times — with fusion and
// rotation enabled.
func TestTimingModelHoldsUnderOptimizations(t *testing.T) {
	src := `
func classify(v int) int {
	var r int;
	r = 0;
	while (v > 200) {
		v = v - 150;
		r = r + 1;
	}
	if (v == 13) {
		r = r + 100;
	}
	return r;
}

func main() {
	var i int;
	var acc int;
	acc = 0;
	for (i = 0; i < 50; i = i + 1) {
		acc = acc + classify(sense());
	}
	debug(acc);
}`
	for _, opts := range optVariants() {
		opts.Instrument = ModeTimestamps
		out, err := Build(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := mote.DefaultConfig()
		cfg.TickDiv = 1
		cfg.Sensor = &seqSource{vals: sensorRamp(64)}
		m := mote.New(out.Code, cfg)
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		ivs, err := trace.Extract(m.Trace())
		if err != nil {
			t.Fatal(err)
		}
		pm := out.Meta.ProcByName["classify"]
		p := out.CFG.Proc("classify")

		// Enumerate paths (bounded) and collect predicted times.
		times := map[uint64]bool{}
		var walk func(path []ir.BlockID, visits map[ir.BlockID]int)
		var paths int
		walk = func(path []ir.BlockID, visits map[ir.BlockID]int) {
			last := path[len(path)-1]
			if visits[last] > 12 || paths > 100000 {
				return
			}
			succs := p.Block(last).Succs()
			if len(succs) == 0 {
				c, err := out.Meta.PathCycles(pm, path, cfg.Predictor)
				if err != nil {
					t.Fatal(err)
				}
				times[c] = true
				paths++
				return
			}
			for _, s := range succs {
				visits[s]++
				walk(append(path, s), visits)
				visits[s]--
			}
		}
		walk([]ir.BlockID{p.Entry}, map[ir.BlockID]int{p.Entry: 1})

		for _, iv := range ivs {
			if iv.ProcIndex != pm.Index {
				continue
			}
			if !times[iv.ExclusiveTicks()] {
				t.Fatalf("opts %+v: measured %d cycles not among %d predicted path times",
					opts, iv.ExclusiveTicks(), len(times))
			}
		}
	}
}

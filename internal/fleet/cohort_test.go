package fleet

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"codetomo/internal/isa"
	"codetomo/internal/mote"
	"codetomo/internal/stats"
	"codetomo/internal/trace"
)

// materialize is the differential reference for the streaming engine: a
// sequential runner that builds a fresh machine and fresh random streams
// per mote, runs one mote at a time, keeps every mote's frames and ground
// truth, and merges the fleet oracle through the map view. It shares only
// the per-mote building blocks (moteSeeds, moteConfig, runMachine,
// uplinkMote) with SimulateStreamOn — not machine or stream reuse, cohort
// scheduling, or the dense oracle fold.
func materialize(t testing.TB, cfg SimConfig, specs []MoteSpec) ([]MoteResult, map[int32]*mote.BranchStat) {
	t.Helper()
	out := make([]MoteResult, len(specs))
	for i, spec := range specs {
		// Fresh streams per mote: the engine reseeds its reused ones.
		sensorSeed, entropySeed, linkSeed := moteSeeds(cfg, spec)
		mc, err := moteConfig(cfg, spec, stats.NewRNG(sensorSeed), stats.NewRNG(entropySeed))
		if err != nil {
			t.Fatal(err)
		}
		m := mote.New(cfg.Prog, mc)
		if err := runMachine(m, cfg); err != nil {
			t.Fatal(err)
		}
		frames, ls, ast, events, err := uplinkMote(m, cfg, spec, stats.NewRNG(linkSeed))
		if err != nil {
			t.Fatal(err)
		}
		ivs, ust := reassemble(t, spec.ID, frames)
		durs := make(map[int][]float64)
		for p, ticks := range trace.ExclusiveByProc(ivs) {
			durs[p] = trace.DurationsCycles(ticks, cfg.Mote.TickDiv)
		}
		var gross uint64
		for _, iv := range ivs {
			gross += iv.GrossTicks()
		}
		out[i] = MoteResult{
			Spec:         spec,
			Link:         ls,
			ARQ:          ast,
			Uplink:       ust,
			EventsLogged: events,
			Stats:        m.Stats(),
			GrossTicks:   gross,
			Durations:    durs,
			Frames:       frames,
			BranchStats:  m.BranchStats(),
		}
	}
	return out, MergeBranchStats(out)
}

// TestStreamMatchesMaterialized is the streaming pipeline's differential
// acceptance: on a hostile channel (loss, duplication, reordering,
// corruption, ARQ), every per-mote figure the streaming path produces —
// frames, link/ARQ/uplink accounting, durations, gross ticks, machine
// stats, ground-truth branch counts — must be bit-identical to the
// fresh-machine sequential reference, and the dense fleet oracle must
// match the map-merged one. Cohorts of 2 on several workers force machine
// reuse within and across cohorts, so per-mote branch counts that alias
// the reused machine's table (zeroed by the next mote's Reset) fail here.
func TestStreamMatchesMaterialized(t *testing.T) {
	cfg := buildFleet(t)
	cfg.Link.DropProb, cfg.Link.DupProb, cfg.Link.ReorderProb = 0.2, 0.1, 0.1
	cfg.Link.CorruptProb = 0.05
	cfg.Link.ARQ.MaxRetries = 2
	cfg.KeepFrames = true
	cfg.Cohort = 2 // force multiple cohorts and machine reuse
	specs := fleetSpecs(7)

	if cfg.Workers < 2 {
		t.Fatalf("Workers = %d; the differential needs concurrent cohorts", cfg.Workers)
	}
	want, wantOracle := materialize(t, cfg, specs)
	got, dense, err := SimulateStream(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streaming returned %d motes, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(g.Spec, w.Spec) {
			t.Fatalf("mote %d: spec mismatch", i)
		}
		if !reflect.DeepEqual(g.Frames, w.Frames) {
			t.Fatalf("mote %d: delivered frames diverged", i)
		}
		if g.Link != w.Link || g.ARQ != w.ARQ {
			t.Fatalf("mote %d: link stats diverged:\nstream %+v %+v\nmater  %+v %+v", i, g.Link, g.ARQ, w.Link, w.ARQ)
		}
		if !reflect.DeepEqual(g.Uplink, w.Uplink) {
			t.Fatalf("mote %d: uplink stats diverged:\nstream %+v\nmater  %+v", i, g.Uplink, w.Uplink)
		}
		if g.EventsLogged != w.EventsLogged || g.Stats != w.Stats {
			t.Fatalf("mote %d: mote stats diverged", i)
		}
		if !reflect.DeepEqual(g.Durations, w.Durations) {
			t.Fatalf("mote %d: durations diverged", i)
		}
		if g.GrossTicks != w.GrossTicks {
			t.Fatalf("mote %d: gross ticks %d, want %d", i, g.GrossTicks, w.GrossTicks)
		}
		if !reflect.DeepEqual(g.BranchStats, w.BranchStats) {
			t.Fatalf("mote %d: branch stats diverged from a fresh machine's (aliasing the reused machine?)", i)
		}
	}
	gotOracle := DenseBranchStats(dense)
	if !reflect.DeepEqual(gotOracle, wantOracle) {
		t.Fatalf("dense oracle has %d branches, map-merged reference %d, or counts differ", len(gotOracle), len(wantOracle))
	}
	if !reflect.DeepEqual(MergeBranchStats(got), gotOracle) {
		t.Fatal("per-mote branch stats do not sum to the dense oracle")
	}
}

// streamProg is a minimal raw-ISA instrumented workload for the large
// determinism sweep: proc 0 (TRACE 0/1) runs a few sensor-dependent,
// branchy invocations and halts — a few hundred cycles per mote, so tens
// of thousands of motes stay cheap even under the race detector.
func streamProg() []isa.Instr {
	return []isa.Instr{
		{Op: isa.LDI, Rd: 1, Imm: 6},
		{Op: isa.LDI, Rd: 5, Imm: 3},
		{Op: isa.TRACE, Imm: 0}, // 2: invocation enter
		{Op: isa.IN, Rd: 2, Imm: isa.PortADC},
		{Op: isa.AND, Rd: 3, Ra: 2, Rb: 5},
		{Op: isa.BNZ, Ra: 3, Imm: 7}, // sensor-dependent branch
		{Op: isa.ADDI, Rd: 4, Ra: 4, Imm: 1},
		{Op: isa.TRACE, Imm: 1}, // 7: invocation exit
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: -1},
		{Op: isa.BNZ, Ra: 1, Imm: 2},
		{Op: isa.HALT},
	}
}

// TestStreamDeterminismAtScale pins the tentpole contract at fleet scale:
// ten thousand motes (a thousand under -short) produce bit-identical
// results and oracle across every combination of worker count and cohort
// size, including cohort 1 (maximal interleaving) and cohorts larger than
// the fleet share of a worker.
func TestStreamDeterminismAtScale(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 1_000
	}
	cfg := SimConfig{
		Prog:      streamProg(),
		Mote:      mote.DefaultConfig(),
		MaxCycles: 1_000_000,
		Link:      LinkConfig{Seed: 42, DropProb: 0.1, DupProb: 0.05},
	}
	cfg.Mote.RAMWords = 64
	specs := fleetSpecs(n)

	type variant struct{ workers, cohort int }
	variants := []variant{{1, 1}, {3, 64}, {8, 1000}, {5, 0}}
	var base []MoteResult
	var baseOracle []mote.BranchStat
	for _, v := range variants {
		c := cfg
		c.Workers, c.Cohort = v.workers, v.cohort
		out, oracle, err := SimulateStream(c, specs)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base, baseOracle = out, oracle
			// The sweep must exercise real signal: recovered samples and a
			// populated oracle.
			var samples int
			for i := range out {
				samples += len(out[i].Durations[0])
			}
			if samples < n {
				t.Fatalf("only %d recovered samples across %d motes", samples, n)
			}
			continue
		}
		if !reflect.DeepEqual(out, base) {
			t.Fatalf("workers=%d cohort=%d: per-mote results diverged from workers=1 cohort=1", v.workers, v.cohort)
		}
		if !reflect.DeepEqual(oracle, baseOracle) {
			t.Fatalf("workers=%d cohort=%d: fleet oracle diverged", v.workers, v.cohort)
		}
	}
}

// TestStreamErrors pins the failure contract: no motes, stateful
// predictors, bad workloads, and sink errors all abort with a useful
// error instead of a partial result.
func TestStreamErrors(t *testing.T) {
	cfg := buildFleet(t)
	if _, _, err := SimulateStream(cfg, nil); err == nil {
		t.Fatal("no error for an empty fleet")
	}
	bad := fleetSpecs(2)
	bad[1].Workload = "no-such-regime"
	if _, _, err := SimulateStream(cfg, bad); err == nil {
		t.Fatal("no error for an unknown workload")
	}
	cfg2 := cfg
	cfg2.Mote.Predictor = mote.NewBimodal(64)
	if _, _, err := SimulateStream(cfg2, fleetSpecs(1)); err == nil {
		t.Fatal("no error for a trainable predictor")
	}
	sinkErr := fmt.Errorf("sink exploded")
	_, err := SimulateStreamOn(NewPool(2), cfg, fleetSpecs(3), func(int, []MoteResult) error {
		return sinkErr
	})
	if err == nil || !reflect.DeepEqual(err.Error(), "fleet: sink: sink exploded") {
		t.Fatalf("sink error not surfaced: %v", err)
	}
}

// TestPoolBoundedGoroutines pins the PR-9 Pool fix: submitting far more
// tasks than workers must not spawn a goroutine per task. Ten thousand
// queued tasks behind a gate may add at most the drain workers plus
// scheduler slack — not ten thousand goroutines.
func TestPoolBoundedGoroutines(t *testing.T) {
	pool := NewPool(4)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	before := runtime.NumGoroutine()
	for i := 0; i < 10_000; i++ {
		pool.Go(&wg, func() { <-gate })
	}
	// Give the drain workers a moment to start and park on the gate.
	time.Sleep(20 * time.Millisecond)
	if grew := runtime.NumGoroutine() - before; grew > 64 {
		t.Errorf("10k queued tasks grew goroutines by %d; the pool must stay bounded", grew)
	}
	close(gate)
	wg.Wait()
	// The queue must fully drain and execute every task.
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 100; i++ {
		pool.Go(&wg, func() { mu.Lock(); ran++; mu.Unlock() })
	}
	wg.Wait()
	if ran != 100 {
		t.Fatalf("ran %d of 100 post-drain tasks", ran)
	}
}

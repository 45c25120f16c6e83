package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"codetomo/internal/station"
)

// tinySizes runs every workload's code path in well under a second.
var tinySizes = sizes{
	corpusIters:      60,
	corpusVariants:   2,
	fleetMotes:       64,
	fleetVariants:    2,
	fleetSample:      8,
	stationMotes:     48,
	stationPasses:    6,
	stationCut:       64,
	corpusSetupBatch: 1,
	fleetSetupBatch:  2,
	restarts:         2,
}

type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchFileMatchesProgram holds BENCHMARK.json's metric lists equal to
// the ones the program prints.
func TestBenchFileMatchesProgram(t *testing.T) {
	bf := readBenchFile(t)
	same := func(what string, file []struct{ Name, Unit string }, prog []spec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(file), len(prog))
			return
		}
		for i := range prog {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayerSpecs())
}

// TestSmoke runs each workload once at tiny size, untraced and traced,
// and checks every metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	bf := readBenchFile(t)
	for _, wl := range []string{"corpus", "fleet", "station"} {
		for _, traced := range []bool{false, true} {
			res, err := run(options{
				workload: wl, seed: 3, seconds: 0.2, trace: traced,
				root: "..", outDir: t.TempDir(), sizes: tinySizes,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, w := range want {
				m, ok := res.Metrics[w.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl, traced, w.Name)
				case m.Unit != w.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl, traced, w.Name, m.Unit, w.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl, traced, w.Name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, w.Name, m.Value)
				}
			}
			if traced && res.Metrics["replay_match"].Value != 1 {
				t.Errorf("%s: traced replay does not match the untraced run", wl)
			}
		}
	}
}

// TestChecksFire gives every output check a wrong expected value.
func TestChecksFire(t *testing.T) {
	want := outcome{Before: 100, After: 90, MAE: []float64{0.1}, Probs: []float64{0.3, 0.7}, Fallbacks: []string{"main"}}
	if err := checkRepeat("x", want, want); err != nil {
		t.Errorf("checkRepeat on equal outcomes: %v", err)
	}
	for name, got := range map[string]outcome{
		"before":    {Before: 101, After: 90, MAE: want.MAE, Probs: want.Probs, Fallbacks: want.Fallbacks},
		"after":     {Before: 100, After: 91, MAE: want.MAE, Probs: want.Probs, Fallbacks: want.Fallbacks},
		"mae":       {Before: 100, After: 90, MAE: []float64{0.2}, Probs: want.Probs, Fallbacks: want.Fallbacks},
		"probs":     {Before: 100, After: 90, MAE: want.MAE, Probs: []float64{0.4, 0.6}, Fallbacks: want.Fallbacks},
		"fallbacks": {Before: 100, After: 90, MAE: want.MAE, Probs: want.Probs},
	} {
		if checkRepeat("x", want, got) == nil {
			t.Errorf("checkRepeat missed a changed %s", name)
		}
	}

	ok := station.PushStats{Frames: 10, Acked: 10}
	if err := checkPush(ok, 10); err != nil {
		t.Errorf("checkPush on a clean session: %v", err)
	}
	if checkPush(ok, 11) == nil {
		t.Error("checkPush missed a wrong frame count")
	}
	if checkPush(station.PushStats{Frames: 10, Acked: 9, Failed: 1}, 10) == nil {
		t.Error("checkPush missed an abandoned frame")
	}
	if checkPush(station.PushStats{Frames: 10, Acked: 10, Retransmissions: 1}, 10) == nil {
		t.Error("checkPush missed a NAK")
	}

	if err := checkReplay(8194, 8194); err != nil {
		t.Errorf("checkReplay on a full replay: %v", err)
	}
	if checkReplay(8194, 8195) == nil {
		t.Error("checkReplay missed a wrong record count")
	}

	m := station.Metrics{FramesAccepted: 40, InvocationsRecovered: 95, InvocationsDiscarded: 5}
	if err := checkConserved(m, 40, 100); err != nil {
		t.Errorf("checkConserved on balanced counts: %v", err)
	}
	if checkConserved(m, 41, 100) == nil {
		t.Error("checkConserved missed a wrong frame count")
	}
	if checkConserved(m, 40, 101) == nil {
		t.Error("checkConserved missed a wrong invocation count")
	}
	m.FramesRejected = 1
	if checkConserved(m, 40, 100) == nil {
		t.Error("checkConserved missed a rejected frame")
	}
}

// TestCLI checks the command's argument handling and exit codes.
func TestCLI(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "corpus", "-trace", "2"},
		{"-workload", "corpus", "-seconds", "0"},
		{"-workload", "corpus", "extra"},
		{"-bogus"},
	} {
		if code := cliMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if code := cliMain([]string{"-workload", "nope", "-out", t.TempDir()}, io.Discard, io.Discard); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
}

// TestScaling checks that the same work measured on a host running at
// half speed scales to the same figure.
func TestScaling(t *testing.T) {
	c := &calibrator{nominal: 1.5, ms: []float64{1, 1, 2, 2}} // the host slows to half speed halfway
	var s scaled
	s.add(10, 1) // measured in the fast half
	s.add(20, 3) // the same work in the slow half
	if got := s.median(c, 1); math.Abs(got-15) > 1e-9 {
		t.Errorf("scaled median = %v, want 15", got)
	}
	if got := s.rawMedian(); got != 15 {
		t.Errorf("raw median = %v, want 15", got)
	}
}

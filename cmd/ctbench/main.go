// Command ctbench regenerates the evaluation: every table and figure of
// the reconstructed ISPASS'15 experiments (see DESIGN.md's per-experiment
// index and EXPERIMENTS.md for the committed results).
//
// Usage:
//
//	ctbench               # run everything
//	ctbench -exp f4       # one experiment
//	ctbench -csv          # emit CSV instead of aligned tables
//	ctbench -json         # emit a JSON array of result tables
//	ctbench -samples 3000 -seed 1234 -tick 8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"codetomo/internal/bench"
	"codetomo/internal/mote"
	"codetomo/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(bench.SortedIDs(), ",")+") or 'all'")
	samples := flag.Int("samples", 0, "handler invocations per profiling run (default from bench.DefaultConfig)")
	seed := flag.Int64("seed", 0, "workload seed (default from bench.DefaultConfig)")
	tick := flag.Int("tick", 0, "timer prescaler (default from bench.DefaultConfig)")
	fleetmax := flag.Int("fleetmax", 0, "largest deployment the fl3 scaling sweep runs (default 1000000; CI smokes lower it)")
	predictor := flag.String("predictor", "", "nt or btfn (default nt)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit a JSON array of result tables (machine-readable)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *tick > 0 {
		cfg.TickDiv = *tick
	}
	if *fleetmax > 0 {
		cfg.MaxFleet = *fleetmax
	}
	switch *predictor {
	case "":
	case "nt":
		cfg.Predictor = mote.StaticNotTaken{}
	case "btfn":
		cfg.Predictor = mote.BTFN{}
	default:
		fatal(fmt.Errorf("unknown predictor %q", *predictor))
	}

	var run []bench.Experiment
	if *exp == "all" {
		run = bench.Experiments()
	} else {
		e, ok := bench.ByID(*exp)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q (valid: %v)", *exp, bench.SortedIDs()))
		}
		run = []bench.Experiment{e}
	}

	type jsonTable struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		*report.Table
	}
	var collected []jsonTable
	for _, e := range run {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		switch {
		case *jsonOut:
			collected = append(collected, jsonTable{ID: e.ID, Title: e.Title, Table: table})
		case *csv:
			fmt.Printf("# %s: %s\n", e.ID, e.Title)
			fmt.Print(table.CSV())
		default:
			fmt.Print(table.Render())
			fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctbench:", err)
	os.Exit(1)
}

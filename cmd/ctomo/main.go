// Command ctomo runs the full Code Tomography pipeline on a MiniC program:
// profile with procedure-boundary timestamps, estimate branch probabilities
// from the timing samples alone, optimize the code placement, and report
// the misprediction and cycle improvements.
//
// Usage:
//
//	ctomo [-workload gaussian] [-seed 1] [-tick 8] [-estimator em|moments|histogram] [-static] [-pgo all] [-pagecost 5] file.mc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	codetomo "codetomo"
	"codetomo/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: parse, validate, execute, report. Exit
// codes: 0 success, 1 pipeline failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctomo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	regime := fs.String("workload", "gaussian", "input regime: gaussian, uniform, bursty, regime, diurnal")
	seed := fs.Int64("seed", 1, "workload random seed")
	tick := fs.Int("tick", 8, "timer prescaler in cycles")
	estName := fs.String("estimator", "em", "estimator: em, moments, or histogram")
	fuse := fs.Bool("fuse", false, "enable compare-branch fusion in all builds")
	rotate := fs.Bool("rotate", false, "enable loop rotation in all builds")
	static := fs.Bool("static", false, "pin statically resolved branches and check fits against the static envelope")
	pgo := fs.String("pgo", "", "profile-guided passes beyond placement: comma-separated subset of inline,pagepack, or all/none")
	pageCost := fs.Int("pagecost", 0, "flash page-crossing penalty in cycles charged by the mote (0 = uniform flash)")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	usage := cli.Usage(fs, stderr, "ctomo", "[flags] file.mc")
	if fs.NArg() != 1 {
		return usage("expected exactly one source file, got %d args", fs.NArg())
	}
	if *tick < 1 {
		return usage("invalid -tick: %d cycles", *tick)
	}
	passes, err := cli.ParsePGOPasses(*pgo)
	if err != nil {
		return usage("invalid -pgo: %v", err)
	}
	if *pageCost < 0 {
		return usage("invalid -pagecost: %d cycles", *pageCost)
	}

	cfg := codetomo.Config{Workload: *regime, Seed: *seed, TickDiv: *tick,
		FuseCompares: *fuse, RotateLoops: *rotate, StaticResolve: *static,
		PGOInline: passes.Inline, PGOPagePack: passes.PagePack,
		PageCrossPenalty: *pageCost}
	est, err := cli.Estimator(*estName, *tick)
	if err != nil {
		return usage("invalid -estimator: %v", err)
	}
	cfg.Estimator = est

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "ctomo:", err)
		return cli.ExitFailure
	}
	res, err := codetomo.Run(string(src), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ctomo:", err)
		return cli.ExitFailure
	}

	fmt.Fprintln(stdout, "estimates (per procedure):")
	for _, pe := range res.Estimates {
		if pe.Fallback {
			fmt.Fprintf(stdout, "  %-14s %5d samples  (untrusted model; layout left unchanged)\n", pe.Proc, pe.SampleCount)
			continue
		}
		fmt.Fprintf(stdout, "  %-14s %5d samples  MAE vs oracle %.4f\n", pe.Proc, pe.SampleCount, pe.MAE)
		for _, b := range pe.Branches {
			warn := ""
			if b.Ambiguity > 0.9 {
				warn = "  [structurally ambiguous at this timer resolution]"
			}
			fmt.Fprintf(stdout, "      b%-3d -> b%-3d  est %.3f  oracle %.3f%s\n", b.FromBlock, b.ToBlock, b.Prob, b.Oracle, warn)
		}
	}

	fmt.Fprintln(stdout, "\nplacement result (uninstrumented, identical workload):")
	fmt.Fprintf(stdout, "  %-22s %14s %14s\n", "", "original", "optimized")
	fmt.Fprintf(stdout, "  %-22s %14d %14d\n", "cycles", res.Before.Cycles, res.After.Cycles)
	fmt.Fprintf(stdout, "  %-22s %14d %14d\n", "cond branches", res.Before.CondBranches, res.After.CondBranches)
	fmt.Fprintf(stdout, "  %-22s %14d %14d\n", "mispredicts", res.Before.Mispredicts, res.After.Mispredicts)
	fmt.Fprintf(stdout, "  %-22s %13.2f%% %13.2f%%\n", "mispredict rate",
		100*res.Before.MispredictRate(), 100*res.After.MispredictRate())
	fmt.Fprintf(stdout, "  %-22s %14.1f %14.1f\n", "energy (uJ)", res.Before.EnergyUJ, res.After.EnergyUJ)
	fmt.Fprintf(stdout, "\n  misprediction reduction: %.1f%%   speedup: %.3fx\n",
		100*res.MispredictReduction(), res.Speedup())
	return cli.ExitOK
}

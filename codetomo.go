// Package codetomo is the public face of the Code Tomography
// reproduction: estimation-based profiling for code placement optimization
// in sensor network programs (Wan, Cao, Zhou — ISPASS 2015).
//
// The pipeline it exposes is the paper's workflow end to end:
//
//  1. compile a MiniC sensor program with timestamp instrumentation at
//     procedure boundaries (the only measurement Code Tomography needs);
//  2. run it on the simulated M16 mote under a nondeterministic workload,
//     collecting the quantized entry/exit timer readings;
//  3. model each procedure as a discrete-time Markov chain over its basic
//     blocks and estimate the branch probabilities from the end-to-end
//     duration samples alone;
//  4. feed the estimates back to the compiler's block-placement pass
//     (Pettis–Hansen chaining) and rebuild without instrumentation;
//  5. re-run and report the branch misprediction and cycle improvements.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the full
// evaluation; package internal/bench regenerates every table and figure.
package codetomo

import (
	"errors"
	"fmt"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
	"codetomo/internal/profile"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
	"codetomo/internal/trace"
	"codetomo/internal/workload"
)

// Config tunes a pipeline run. The zero value is usable: it profiles with
// the Gaussian workload, an 8-cycle timer tick, and the predict-not-taken
// pipeline.
type Config struct {
	// Workload names the input regime: gaussian, uniform, bursty, regime,
	// or diurnal (default gaussian). Sensor, if non-nil, overrides it.
	Workload string
	Sensor   mote.SampleSource
	// Seed drives all randomness (default 1).
	Seed int64
	// TickDiv is the hardware timer prescaler in cycles (default 8).
	TickDiv int
	// Predictor is the static branch predictor (default predict-not-taken).
	Predictor mote.Predictor
	// Estimator selects the estimation strategy (default EM tuned to the
	// timer resolution).
	Estimator tomography.Estimator
	// MinSamples is the fewest observations required to estimate a
	// procedure; below it the static Ball–Larus heuristic is used
	// (default 50).
	MinSamples int
	// MaxCycles bounds each simulated run (default 2e9).
	MaxCycles uint64
	// MaxVisits bounds loop unrolling during path enumeration (default 12).
	MaxVisits int
	// MinCoverage is the fraction of duration samples the path model must
	// explain for an estimate to be trusted; below it the procedure falls
	// back to static heuristics (default 0.85).
	MinCoverage float64
	// FuseCompares and RotateLoops enable the backend's optional
	// optimization passes in every build of the pipeline.
	FuseCompares bool
	RotateLoops  bool
	// StaticResolve feeds the compiler's value-range analysis into the
	// estimator: branches proven one-way are pinned instead of estimated
	// (fewer free parameters, fewer spurious mixture components), and each
	// fitted estimate is sanity-checked against the procedure's static
	// feasible duration envelope. Off by default.
	StaticResolve bool
	// PGOInline and PGOPagePack enable the profile-guided optimization
	// passes beyond placement in the optimized rebuild (see
	// compile.PGOOptions), driven by the same estimated probabilities that
	// drive placement: inlining of small leaf callees at hot call sites,
	// and flash-page-aware padding of weighted procedures. Both off by
	// default.
	PGOInline   bool
	PGOPagePack bool
	// PageCrossPenalty, when positive, charges that many cycles on every
	// executed control transfer landing on a different flash page — in the
	// simulated mote and the timing metadata of every build of the
	// pipeline (default 0: uniform flash).
	PageCrossPenalty int
}

// Validate rejects configurations Run cannot honor. Zero values are legal
// everywhere — they select the documented defaults — but negative knobs
// and out-of-range fractions are configuration bugs and fail loudly
// instead of being silently clamped.
func (c Config) Validate() error {
	if c.TickDiv < 0 {
		return fmt.Errorf("codetomo: TickDiv = %d; must be positive (zero selects the default of 8)", c.TickDiv)
	}
	if c.MinSamples < 0 {
		return fmt.Errorf("codetomo: MinSamples = %d; must be positive (zero selects the default of 50)", c.MinSamples)
	}
	if c.MaxVisits < 0 {
		return fmt.Errorf("codetomo: MaxVisits = %d; must be positive (zero selects the default of 12)", c.MaxVisits)
	}
	if c.MinCoverage < 0 || c.MinCoverage > 1 {
		return fmt.Errorf("codetomo: MinCoverage = %v; must be a fraction in [0, 1] (zero selects the default of 0.85)", c.MinCoverage)
	}
	if c.PageCrossPenalty < 0 {
		return fmt.Errorf("codetomo: PageCrossPenalty = %d; must be non-negative (zero models uniform flash)", c.PageCrossPenalty)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workload == "" {
		c.Workload = "gaussian"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TickDiv <= 0 {
		c.TickDiv = 8
	}
	if c.Predictor == nil {
		c.Predictor = mote.StaticNotTaken{}
	}
	if c.Estimator == nil {
		c.Estimator = tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: float64(c.TickDiv)}}
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 50
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 2_000_000_000
	}
	if c.MaxVisits <= 0 {
		c.MaxVisits = 12
	}
	if c.MinCoverage <= 0 {
		c.MinCoverage = 0.85
	}
	return c
}

// RunStats summarizes one execution.
type RunStats struct {
	Cycles        uint64
	Instructions  uint64
	CondBranches  uint64
	TakenBranches uint64
	Mispredicts   uint64
	EnergyUJ      float64
}

// MispredictRate is Mispredicts / CondBranches (0 when no branches ran).
func (s RunStats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

func runStats(m *mote.Machine) RunStats {
	s := m.Stats()
	return RunStats{
		Cycles:        s.Cycles,
		Instructions:  s.Instructions,
		CondBranches:  s.CondBranches,
		TakenBranches: s.TakenBranches,
		Mispredicts:   s.Mispredicts,
		EnergyUJ:      mote.DefaultEnergyModel().Energy(s),
	}
}

// BranchEstimate is one estimated branch edge.
type BranchEstimate struct {
	// FromBlock and ToBlock are CFG block IDs within the procedure.
	FromBlock, ToBlock int
	// Prob is the Code Tomography estimate; Oracle is the simulator's
	// ground truth for the same run.
	Prob, Oracle float64
	// Ambiguity is the structural identifiability diagnostic for the
	// source branch (tomography.Model.BranchAmbiguity): mass of execution
	// paths whose durations cannot reveal this branch's direction at the
	// measured timer resolution. Values near 1 mean Prob should not be
	// trusted even when the estimator converged.
	Ambiguity float64
}

// ProcEstimate is the estimation outcome for one procedure.
type ProcEstimate struct {
	Proc string
	// SampleCount is the number of duration observations used.
	SampleCount int
	// Branches lists the branch edges with estimated and true
	// probabilities; empty when the procedure was below MinSamples and
	// fell back to static heuristics.
	Branches []BranchEstimate
	// MAE is the mean absolute error against the oracle.
	MAE float64
	// Fallback reports the static heuristic was used instead.
	Fallback bool
	// TrimmedSamples counts observations the robust estimator discarded
	// as model-implausible outliers (0 under plain estimation).
	TrimmedSamples int
	// LostPartials counts invocations of this procedure that were
	// power-truncated mid-execution (intermittent fleets only). They carry
	// no duration, but their count corrects the survival bias of the
	// completed samples.
	LostPartials int
	// LowConfidence reports the robust estimator did not trust its own
	// result (excessive trimming or non-convergence); the procedure's
	// layout was left at the baseline instead of being optimized on it.
	LowConfidence bool
	// ResolvedBranches counts branch blocks the static value-range
	// analysis proved one-way under Config.StaticResolve; they were pinned
	// rather than estimated and are excluded from Branches and MAE.
	ResolvedBranches int
	// EnvelopeViolation reports that the fitted estimate implied an
	// expected duration outside the procedure's static feasible envelope
	// (Config.StaticResolve only); the estimate was discarded and the
	// procedure's layout left at the baseline.
	EnvelopeViolation bool
}

// Result is the outcome of one full pipeline run.
type Result struct {
	// Estimates holds per-procedure estimation results (procedures with
	// branches only).
	Estimates []ProcEstimate
	// Before and After are the uninstrumented runs under the original and
	// the tomography-optimized layout, on the identical workload.
	Before, After RunStats
	// Output is the optimized binary's debug-port output (must equal the
	// original's; the pipeline verifies this).
	Output []uint16
}

// MispredictReduction returns the relative misprediction-rate improvement
// (0.25 = 25% fewer mispredicts per branch).
func (r *Result) MispredictReduction() float64 {
	b := r.Before.MispredictRate()
	if b == 0 {
		return 0
	}
	return (b - r.After.MispredictRate()) / b
}

// Speedup returns Before.Cycles / After.Cycles.
func (r *Result) Speedup() float64 {
	if r.After.Cycles == 0 {
		return 0
	}
	return float64(r.Before.Cycles) / float64(r.After.Cycles)
}

// ErrOutputChanged reports that the optimized binary produced different
// output — a pipeline bug, never expected.
var ErrOutputChanged = errors.New("codetomo: optimized layout changed program output")

// ambiguityWindow is the collision distance used for the identifiability
// diagnostic: paths closer than ~a quarter tick produce essentially
// identical tick distributions and carry no separating signal.
func ambiguityWindow(tickDiv int) float64 {
	w := float64(tickDiv) / 4
	if w < 1 {
		w = 1
	}
	return w
}

// sensorPair builds the workload and entropy sources for one run. It is
// called once per execution so every run of a pipeline sees the identical
// input stream.
func (c Config) sensorPair() (mote.SampleSource, mote.SampleSource, error) {
	rng := stats.NewRNG(c.Seed)
	entropy := workload.NewEntropy(stats.NewRNG(c.Seed + 7919))
	if c.Sensor != nil {
		return c.Sensor, entropy, nil
	}
	s, ok := workload.Named(c.Workload, rng)
	if !ok {
		return nil, nil, fmt.Errorf("codetomo: unknown workload %q", c.Workload)
	}
	return s, entropy, nil
}

// execute builds source with opts (plus the config's optimization flags)
// and runs it to completion on a fresh mote. Callers must pass a config
// whose defaults are already filled in.
func (c Config) execute(source string, opts compile.Options) (*compile.Output, *mote.Machine, error) {
	opts.FuseCompares = c.FuseCompares
	opts.RotateLoops = c.RotateLoops
	if c.PageCrossPenalty > 0 && opts.Cost == nil {
		cost := isa.DefaultCostModel()
		cost.PageCrossPenalty = uint32(c.PageCrossPenalty)
		opts.Cost = cost
	}
	out, err := compile.Build(source, opts)
	if err != nil {
		return nil, nil, err
	}
	sensor, entropy, err := c.sensorPair()
	if err != nil {
		return nil, nil, err
	}
	mc := mote.DefaultConfig()
	mc.TickDiv = c.TickDiv
	mc.Predictor = c.Predictor
	mc.Sensor = sensor
	mc.Entropy = entropy
	if opts.Cost != nil {
		mc.Cost = opts.Cost
	}
	m := mote.New(out.Code, mc)
	if err := m.Run(c.MaxCycles); err != nil {
		return nil, nil, err
	}
	return out, m, nil
}

// pgoEnabled reports whether any profile-guided pass beyond placement is
// selected.
func (c Config) pgoEnabled() bool {
	return c.PGOInline || c.PGOPagePack
}

// pgoOptions converts the trusted per-procedure probability estimates into
// compile.PGOOptions: each estimated procedure gets expected edge traversal
// weights (the same conversion placement uses), and the selected passes are
// enabled. Procedures without a trusted estimate get no weights and are
// left untouched by every pass.
func (c Config) pgoOptions(prog *cfg.Program, probs map[string]markov.EdgeProbs) *compile.PGOOptions {
	weights := make(map[string]compile.ProcWeights, len(probs))
	for _, p := range prog.Procs {
		ep, ok := probs[p.Name]
		if !ok {
			continue
		}
		// Branchless procedures carry a markov.Uniform placeholder so
		// placement has deterministic chain weights; that is not profile
		// data, and letting it drive the PGO passes (page packing in
		// particular reorders and pads whatever it has weights for) would
		// transform code the estimator knows nothing about.
		if len(p.BranchBlocks()) == 0 {
			continue
		}
		weights[p.Name] = compile.ProcWeights(layout.FromProbs(p, ep))
	}
	return &compile.PGOOptions{
		Weights:  weights,
		Inline:   c.PGOInline,
		PagePack: c.PGOPagePack,
	}
}

// measureLayouts is the pipeline's tail: run the uninstrumented binary
// under the original and the optimized layout on the identical workload,
// and verify the optimization preserved the program's output. When pgo is
// non-nil the optimized build additionally runs the selected
// profile-guided passes; layouts and hints are then recomputed inside the
// build from the (pass-transformed) weights, so the plan is ignored.
func (c Config) measureLayouts(source string, plan layout.Plan, pgo *compile.PGOOptions) (before, after RunStats, output []uint16, err error) {
	_, beforeM, err := c.execute(source, compile.Options{})
	if err != nil {
		return RunStats{}, RunStats{}, nil, err
	}
	afterOpts := compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints}
	if pgo != nil {
		afterOpts.PGO = pgo
	}
	_, afterM, err := c.execute(source, afterOpts)
	if err != nil {
		return RunStats{}, RunStats{}, nil, err
	}
	b, a := beforeM.DebugOutput(), afterM.DebugOutput()
	if len(b) != len(a) {
		return RunStats{}, RunStats{}, nil, ErrOutputChanged
	}
	for i := range b {
		if b[i] != a[i] {
			return RunStats{}, RunStats{}, nil, ErrOutputChanged
		}
	}
	return runStats(beforeM), runStats(afterM), a, nil
}

// resolvedBranchCount counts the branch blocks the model pinned from
// static analysis (each contributes its full out-edge set to Pinned).
func resolvedBranchCount(m *tomography.Model) int {
	blocks := make(map[int]bool)
	for e := range m.Pinned {
		blocks[int(e[0])] = true
	}
	return len(blocks)
}

// branchEstimates assembles the per-edge report for one estimated
// procedure: estimate vs oracle per branch edge, the identifiability
// diagnostic, and the mean absolute error.
func branchEstimates(model *tomography.Model, est, oracle markov.EdgeProbs, tickDiv int) ([]BranchEstimate, float64) {
	ambiguity := model.BranchAmbiguity(ambiguityWindow(tickDiv))
	var branches []BranchEstimate
	mae := 0.0
	for _, e := range model.BranchEdgeList() {
		be := BranchEstimate{
			FromBlock: int(e[0]), ToBlock: int(e[1]),
			Prob: est[e], Oracle: oracle[e],
			Ambiguity: ambiguity[ir.BlockID(e[0])],
		}
		branches = append(branches, be)
		d := be.Prob - be.Oracle
		if d < 0 {
			d = -d
		}
		mae += d
	}
	if len(branches) > 0 {
		mae /= float64(len(branches))
	}
	return branches, mae
}

// Run executes the full Code Tomography pipeline on MiniC source text.
func Run(source string, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	enum := markov.EnumerateOptions{MaxVisits: cfg.MaxVisits, MaxPaths: 30000}

	// 1–2. Profile run with timestamp instrumentation.
	prof, profM, err := cfg.execute(source, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return nil, err
	}
	ivs, err := trace.Extract(profM.Trace())
	if err != nil {
		return nil, err
	}
	byProc := trace.ExclusiveByProc(ivs)

	// 3. Estimate each procedure.
	res := &Result{}
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range prof.CFG.Procs {
		pm := prof.Meta.ProcByName[p.Name]
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			continue
		}
		pe := ProcEstimate{Proc: p.Name, SampleCount: len(byProc[pm.Index])}
		oracle := profile.OracleProbs(pm, p, profM.BranchStats())
		var est markov.EdgeProbs
		var model *tomography.Model
		if pe.SampleCount >= cfg.MinSamples {
			m, err := tomography.NewModelOpts(prof, p.Name, cfg.Predictor, enum,
				tomography.ModelOptions{StaticResolve: cfg.StaticResolve})
			if err != nil {
				return nil, fmt.Errorf("codetomo: model %s: %w", p.Name, err)
			}
			pe.ResolvedBranches = resolvedBranchCount(m)
			samples := trace.DurationsCycles(byProc[pm.Index], cfg.TickDiv)
			// Trust the path model only when it explains the data —
			// loops that exceed the unrolling bound show up here.
			if m.Coverage(samples, float64(cfg.TickDiv)) >= cfg.MinCoverage {
				est, err = cfg.Estimator.Estimate(m, samples)
				if err != nil {
					return nil, fmt.Errorf("codetomo: estimate %s: %w", p.Name, err)
				}
				// A fit whose expected duration is statically infeasible is
				// noise; do not let it drive placement.
				if !m.EnvelopeCheck(est, float64(cfg.TickDiv)) {
					pe.EnvelopeViolation = true
					est = nil
				} else {
					model = m
				}
			}
		}
		if model == nil {
			// Untrusted estimate: report the fallback and leave this
			// procedure's layout alone (excluded from probs below).
			pe.Fallback = true
			res.Estimates = append(res.Estimates, pe)
			continue
		}
		pe.Branches, pe.MAE = branchEstimates(model, est, oracle, cfg.TickDiv)
		probs[p.Name] = est
		res.Estimates = append(res.Estimates, pe)
	}

	// 4–5. Optimize placement, rebuild uninstrumented, verify, report.
	plan := layout.PlanAll(prof.CFG, probs)
	var pgo *compile.PGOOptions
	if cfg.pgoEnabled() {
		pgo = cfg.pgoOptions(prof.CFG, probs)
	}
	res.Before, res.After, res.Output, err = cfg.measureLayouts(source, plan, pgo)
	if err != nil {
		return nil, err
	}
	return res, nil
}

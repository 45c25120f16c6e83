package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"codetomo"
	"codetomo/internal/apps"
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

// The corpus runs codetomo.Run with the two profile-guided passes the PGO
// sweep shows paying (inlining and flash-page packing) under a 5-cycle
// page-crossing penalty.
const pageCrossPenalty = 5

// Run's fixed pipeline constants, which the traced replay must repeat to
// reproduce Run's results.
const (
	tickDiv     = 8
	maxCycles   = 2_000_000_000
	minSamples  = 50
	minCoverage = 0.85
	entropySalt = 7919
)

var enumOpts = markov.EnumerateOptions{MaxVisits: 12, MaxPaths: 30000}

// corpusCalWindow is how many reference samples on each side of a Run
// call scale it: one per call, so about one pass of the corpus.
const corpusCalWindow = 9

type corpusApp struct{ name, workload, src string }

func corpusInputs(iters int) ([]corpusApp, error) {
	var out []corpusApp
	for _, a := range append(apps.All(), apps.CallChain) {
		src, err := a.Source(iters)
		if err != nil {
			return nil, err
		}
		out = append(out, corpusApp{a.Name, a.Workload, src})
	}
	if len(out) != len(appNames) {
		return nil, fmt.Errorf("corpus has %d apps, want %d", len(out), len(appNames))
	}
	return out, nil
}

// variantSeed derives the v-th input seed of a run. Each variant is a
// different draw of the same workloads; cycling through a few of them per
// run keeps the estimation-quality metrics from hanging on one draw.
func variantSeed(seed int64, v int) int64 { return seed*7 + int64(v)*1_000_003 + 1 }

func corpusConfig(a corpusApp, seed int64) codetomo.Config {
	return codetomo.Config{
		Seed: seed, Workload: a.workload,
		PGOInline: true, PGOPagePack: true, PageCrossPenalty: pageCrossPenalty,
	}
}

// outcome is the part of a pipeline result the output checks compare
// across passes with the same inputs: it must repeat exactly.
type outcome struct {
	Before, After uint64
	MAE           []float64 // trusted procedures, in report order
	Probs         []float64 // their branch-edge estimates
	Fallbacks     []string
}

func outcomeOf(est []codetomo.ProcEstimate, before, after uint64) outcome {
	o := outcome{Before: before, After: after}
	for _, e := range est {
		if e.Fallback || e.LowConfidence {
			o.Fallbacks = append(o.Fallbacks, e.Proc)
			continue
		}
		o.MAE = append(o.MAE, e.MAE)
		for _, b := range e.Branches {
			o.Probs = append(o.Probs, b.Prob)
		}
	}
	return o
}

// checkRepeat fails when a pass with the same inputs as an earlier one
// produced a different result.
func checkRepeat(what string, want, got outcome) error {
	if !reflect.DeepEqual(want, got) {
		return fmt.Errorf("%s: result changed between passes with the same seed: %+v, then %+v", what, want, got)
	}
	return nil
}

func penaltyCost() *isa.CostModel {
	c := isa.DefaultCostModel()
	c.PageCrossPenalty = pageCrossPenalty
	return c
}

func runCorpus(o options, ck *checker) (*result, error) {
	corpus, err := corpusInputs(o.sizes.corpusIters)
	if err != nil {
		return nil, err
	}
	res := newResult(o.trace)
	cal := newParseCalibrator()
	defer cal.close()

	// Set-up: build every program in the two modes whose inputs do not
	// depend on a profile (instrumented and plain).
	setup := func() error {
		for _, a := range corpus {
			for _, opts := range []compile.Options{{Instrument: compile.ModeTimestamps, Cost: penaltyCost()}, {Cost: penaltyCost()}} {
				if _, err := compile.Build(a.src, opts); err != nil {
					return fmt.Errorf("build %s: %w", a.name, err)
				}
			}
		}
		return nil
	}
	var setups scaled

	// Timed phase: a closed loop with one caller, one Run per app per
	// pass, variants cycled pass by pass. At least two passes per variant
	// so the repeat check always runs.
	variants := o.sizes.corpusVariants
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	first := make([][]*outcome, variants)
	for v := range first {
		first[v] = make([]*outcome, len(corpus))
	}
	lat := make([]scaled, len(corpus))
	var ratios []float64
	maeSum, maeN := 0.0, 0
	ph := startPhase()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	calls := 0
	for pass := 0; pass < 2*variants || time.Now().Before(deadline); pass++ {
		if err := ph.timeSetup(cal, o.sizes.corpusSetupBatch, setup, &setups); err != nil {
			return nil, err
		}
		v := pass % variants
		for i, a := range corpus {
			mark := cal.sample(1)
			t0 := time.Now()
			r, err := codetomo.Run(a.src, corpusConfig(a, variantSeed(o.seed, v)))
			d := time.Since(t0)
			res.Attempted++
			if err != nil {
				res.Failed++
				ck.add(fmt.Errorf("corpus %s: %w", a.name, err))
				continue
			}
			calls++
			lat[i].add(ms(d), mark)
			oc := outcomeOf(r.Estimates, r.Before.Cycles, r.After.Cycles)
			if first[v][i] == nil {
				first[v][i] = &oc
				ratios = append(ratios, float64(r.After.Cycles)/float64(r.Before.Cycles))
				for _, m := range oc.MAE {
					maeSum += m
					maeN++
				}
				continue
			}
			ck.add(checkRepeat(fmt.Sprintf("corpus %s seed %d", a.name, variantSeed(o.seed, v)), *first[v][i], oc))
		}
		ph.mark()
	}
	use := ph.end()
	cal.sample(corpusCalWindow)

	if !o.trace {
		var medians []float64
		passMS := 0.0
		for i := range corpus {
			m := lat[i].median(cal, corpusCalWindow)
			medians = append(medians, m)
			passMS += m
		}
		var rawMed []float64
		rawPass := 0.0
		for i := range corpus {
			rawMed = append(rawMed, lat[i].rawMedian())
			rawPass += rawMed[i]
		}
		logUnscaled(float64(len(rawMed))/rawPass*1e3, geomean(rawMed), setups.rawMedian())
		res.set("setup_s", setups.median(cal, corpusCalWindow))
		res.set("ops_per_s", float64(len(medians))/passMS*1e3)
		res.set("latency_ms_geomean", geomean(medians))
		res.set("cycles_saved_pct", 100*(1-geomean(ratios)))
		res.set("mae", maeSum/float64(maeN))
		res.set("alloc_kb_per_op", float64(use.alloc)/float64(calls)/1024)
		res.set("peak_heap_mb", median(use.peaks)/(1<<20))
		return res, nil
	}

	// Traced replay: one pass of the first variant through the layer
	// entry points, compared against the untraced results.
	res.set("bench.ref_ms", cal.refMS())
	untracedWall := 0.0
	for i, a := range corpus {
		m := lat[i].rawMedian()
		res.set("run_ms."+a.name, m)
		untracedWall += m
		if oc := first[0][i]; oc != nil {
			res.set("cycles_saved_pct."+a.name, 100*(1-float64(oc.After)/float64(oc.Before)))
		}
	}
	tr := newTracer()
	match := 1.0
	var st replayStats
	for i, a := range corpus {
		oc, err := replayRun(tr, a, variantSeed(o.seed, 0), &st)
		if err != nil {
			return nil, fmt.Errorf("traced replay %s: %w", a.name, err)
		}
		if first[0][i] == nil || !reflect.DeepEqual(*first[0][i], oc) {
			match = 0
		}
	}
	tracedWall := ms(tr.opWall())
	res.set("trace_overhead_pct", 100*(tracedWall-untracedWall)/untracedWall)
	res.set("untraced_share_pct", untracedShare(tr))
	res.set("replay_match", match)
	st.report(tr, res)
	return res, tr.write(o.outDir, o.workload, o.seed)
}

// replayStats are the counts the traced replays gather at the layer
// boundaries.
type replayStats struct {
	instructions uint64
	paths        int
	models       int
	trusted      int
}

// report turns the spans and counts of a corpus or fleet replay into the
// per-layer metrics shared by both.
func (st *replayStats) report(tr *tracer, res *result) {
	d, _, _ := tr.self("compile.build_profile")
	res.set("compile.build_profile_ms", ms(d))
	d, _, _ = tr.self("compile.build_opt")
	res.set("compile.build_opt_ms", ms(d))
	_, a, _ := tr.self("compile.")
	res.set("compile.alloc_kb", float64(a)/1024)
	run, _, n := tr.self("mote.run")
	res.set("mote.run_ms", ms(run))
	res.set("mote.minstr_per_s", float64(st.instructions)/run.Seconds()/1e6)
	if n > 0 {
		res.set("mote.run_us_per_mote", us(run)/float64(n))
	}
	if d, _, n := tr.self("mote.reset"); n > 0 {
		res.set("mote.reset_us", us(d)/float64(n))
	}
	if d, a, n := tr.self("stats.rng"); n > 0 {
		res.set("stats.rng_us_per_mote", us(d)/float64(n))
		res.set("stats.rng_kb_per_mote", float64(a)/float64(n)/1024)
	}
	d, _, _ = tr.self("trace.extract")
	res.set("trace.extract_ms", ms(d))
	res.set("markov.paths", float64(st.paths))
	d, _, _ = tr.self("tomography.model")
	res.set("tomography.model_ms", ms(d))
	d, _, _ = tr.self("tomography.coverage")
	res.set("tomography.coverage_ms", ms(d))
	d, _, _ = tr.self("tomography.em")
	res.set("tomography.em_ms", ms(d))
	if st.models > 0 {
		res.set("tomography.trusted_frac", float64(st.trusted)/float64(st.models))
	}
	d, _, _ = tr.self("layout.")
	res.set("layout.plan_ms", ms(d))
}

// machineRun builds a mote for code under the seeded workload and runs it
// to completion, one span per layer: the seeded random streams, the
// machine construction, and the run.
func machineRun(tr *tracer, code []isa.Instr, cost *isa.CostModel, wl string, seed int64, st *replayStats) (*mote.Machine, error) {
	mc := mote.DefaultConfig()
	if cost != nil {
		mc.Cost = cost
	}
	tr.begin("stats.rng")
	sensor, ok := workload.Named(wl, stats.NewRNG(seed))
	mc.Entropy = workload.NewEntropy(stats.NewRNG(seed + entropySalt))
	tr.end()
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	mc.Sensor = sensor
	var m *mote.Machine
	tr.do("mote.reset", func() error { m = mote.New(code, mc); return nil })
	if err := tr.do("mote.run", func() error { return m.Run(maxCycles) }); err != nil {
		return nil, err
	}
	st.instructions += m.Stats().Instructions
	return m, nil
}

// replayRun is codetomo.Run's pipeline called layer by layer, in Run's
// order, inside one traced operation.
func replayRun(tr *tracer, a corpusApp, seed int64, st *replayStats) (outcome, error) {
	tr.op("codetomo.Run")
	defer tr.end()
	var prof *compile.Output
	err := tr.do("compile.build_profile", func() (err error) {
		prof, err = compile.Build(a.src, compile.Options{Instrument: compile.ModeTimestamps, Cost: penaltyCost()})
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	profM, err := machineRun(tr, prof.Code, penaltyCost(), a.workload, seed, st)
	if err != nil {
		return outcome{}, err
	}
	var byProc map[int][]uint64
	err = tr.do("trace.extract", func() error {
		ivs, err := trace.Extract(profM.Trace())
		byProc = trace.ExclusiveByProc(ivs)
		return err
	})
	if err != nil {
		return outcome{}, err
	}

	var est []codetomo.ProcEstimate
	probs := make(map[string]markov.EdgeProbs)
	em := tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: tickDiv}}
	for _, p := range prof.CFG.Procs {
		pm := prof.Meta.ProcByName[p.Name]
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			continue
		}
		pe := codetomo.ProcEstimate{Proc: p.Name, SampleCount: len(byProc[pm.Index]), Fallback: true}
		var oracle markov.EdgeProbs
		tr.do("profile.oracle", func() error { oracle = profile.OracleProbs(pm, p, profM.BranchStats()); return nil })
		if pe.SampleCount >= minSamples {
			var m *tomography.Model
			err := tr.do("tomography.model", func() (err error) {
				m, err = tomography.NewModelOpts(prof, p.Name, mote.StaticNotTaken{}, enumOpts, tomography.ModelOptions{})
				return err
			})
			if err != nil {
				return outcome{}, err
			}
			st.models++
			st.paths += len(m.Paths)
			var samples []float64
			tr.do("trace.extract", func() error { samples = trace.DurationsCycles(byProc[pm.Index], tickDiv); return nil })
			var cov float64
			tr.do("tomography.coverage", func() error { cov = m.Coverage(samples, tickDiv); return nil })
			if cov >= minCoverage {
				var probsP markov.EdgeProbs
				err := tr.do("tomography.em", func() (err error) {
					probsP, err = em.Estimate(m, samples)
					if err == nil && !m.EnvelopeCheck(probsP, tickDiv) {
						probsP = nil
					}
					return err
				})
				if err != nil {
					return outcome{}, err
				}
				if probsP != nil {
					tr.do("tomography.em", func() error { m.BranchAmbiguity(tickDiv / 4); return nil })
					pe.Fallback = false
					pe.MAE = edgeMAE(m.BranchEdgeList(), probsP, oracle)
					pe.Branches = branchList(m, probsP)
					probs[p.Name] = probsP
					st.trusted++
				}
			}
		}
		est = append(est, pe)
	}

	var plan layout.Plan
	pgo := &compile.PGOOptions{Weights: make(map[string]compile.ProcWeights), Inline: true, PagePack: true}
	tr.do("layout.plan", func() error {
		plan = layout.PlanAll(prof.CFG, probs)
		for _, p := range prof.CFG.Procs {
			if ep, ok := probs[p.Name]; ok && len(p.BranchBlocks()) > 0 {
				pgo.Weights[p.Name] = compile.ProcWeights(layout.FromProbs(p, ep))
			}
		}
		return nil
	})

	before, after, err := measurePair(tr, a.src, a.workload, seed, penaltyCost,
		compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints, PGO: pgo}, st)
	if err != nil {
		return outcome{}, err
	}
	return outcomeOf(est, before, after), nil
}

// measurePair is the pipeline's tail: the plain build and the optimized
// build, each run on the identical workload, outputs compared.
func measurePair(tr *tracer, src, wl string, seed int64, cost func() *isa.CostModel, opt compile.Options, st *replayStats) (before, after uint64, err error) {
	var plain, optimized *compile.Output
	if err := tr.do("compile.build_plain", func() (err error) {
		plain, err = compile.Build(src, compile.Options{Cost: cost()})
		return err
	}); err != nil {
		return 0, 0, err
	}
	bm, err := machineRun(tr, plain.Code, cost(), wl, seed, st)
	if err != nil {
		return 0, 0, err
	}
	opt.Cost = cost()
	if err := tr.do("compile.build_opt", func() (err error) {
		optimized, err = compile.Build(src, opt)
		return err
	}); err != nil {
		return 0, 0, err
	}
	am, err := machineRun(tr, optimized.Code, cost(), wl, seed, st)
	if err != nil {
		return 0, 0, err
	}
	if !reflect.DeepEqual(bm.DebugOutput(), am.DebugOutput()) {
		return 0, 0, codetomo.ErrOutputChanged
	}
	return bm.Stats().Cycles, am.Stats().Cycles, nil
}

// edgeMAE is the mean absolute error of est against oracle over the
// listed edges (codetomo's per-procedure MAE).
func edgeMAE(edges [][2]ir.BlockID, est, oracle markov.EdgeProbs) float64 {
	if len(edges) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range edges {
		s += math.Abs(est[e] - oracle[e])
	}
	return s / float64(len(edges))
}

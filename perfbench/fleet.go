package main

import (
	"fmt"
	"reflect"
	"time"

	"codetomo"
	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/fleet"
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

// The fleet workload is fl3's shape: sense at 4 invocations per mote, a
// dense fleet where fixed per-mote costs dominate, over a lossy channel
// with ARQ.
const (
	fleetApp       = "sense"
	fleetPerMote   = 4
	fleetBatches   = 8
	convergeTol    = 1e-3
	convergeRounds = 2

	// fleetCalSamples reference samples are taken before each RunFleet
	// call; a call is scaled by the samples of the two calls on each
	// side.
	fleetCalSamples = 3
)

var fleetWorkloads = []string{"gaussian", "bursty", "regime", "diurnal"}

// RunFleet's per-mote seed derivations, which the traced replay must
// repeat to simulate the same motes.
const (
	moteSeedStride = 104729
	offsetSeed     = 7253
	linkSeed       = 104659
	linkMoteStride = 6151
)

func fleetConfig(motes int, seed int64) codetomo.FleetConfig {
	return codetomo.FleetConfig{
		Config:    codetomo.Config{Seed: seed},
		Motes:     motes,
		Workloads: fleetWorkloads,
		Workers:   maxGoWorkers,
		DropProb:  0.05, DupProb: 0.02, ReorderProb: 0.05, CorruptProb: 0.02,
		ARQRetries: 3,
	}
}

// fleetOutcome is the repeat-checked part of a RunFleet result.
func fleetOutcome(r *codetomo.FleetResult) outcome {
	return outcomeOf(r.Estimates, r.Before.Cycles, r.After.Cycles)
}

func runFleet(o options, ck *checker) (*result, error) {
	app, ok := apps.ByName(fleetApp)
	if !ok {
		return nil, fmt.Errorf("app %q missing", fleetApp)
	}
	src, err := app.Source(fleetPerMote)
	if err != nil {
		return nil, err
	}
	measureSrc, err := app.Source(measureIters)
	if err != nil {
		return nil, err
	}
	prof, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
	if err != nil {
		return nil, err
	}
	res := newResult(o.trace)
	motes := o.sizes.fleetMotes
	cal := newArithCalibrator()
	defer cal.close()

	// Set-up: the builds whose inputs do not depend on a profile.
	setup := func() error {
		for _, opts := range []compile.Options{{Instrument: compile.ModeTimestamps}, {}} {
			if _, err := compile.Build(src, opts); err != nil {
				return fmt.Errorf("build %s: %w", fleetApp, err)
			}
		}
		return nil
	}
	var setups scaled

	// Timed phase: a batch job, one RunFleet call at a time, variants
	// cycled call by call, at least two calls per variant.
	variants := o.sizes.fleetVariants
	seconds := o.seconds
	if o.trace {
		seconds /= 2
	}
	first := make([]*codetomo.FleetResult, variants)
	var lat scaled
	ph := startPhase()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	calls := 0
	for call := 0; call < 2*variants || time.Now().Before(deadline); call++ {
		if err := ph.timeSetup(cal, o.sizes.fleetSetupBatch, setup, &setups); err != nil {
			return nil, err
		}
		v := call % variants
		mark := cal.sample(fleetCalSamples)
		t0 := time.Now()
		r, err := codetomo.RunFleet(src, fleetConfig(motes, variantSeed(o.seed, v)))
		d := time.Since(t0)
		ph.mark()
		res.Attempted++
		if err != nil {
			res.Failed++
			ck.add(fmt.Errorf("fleet: %w", err))
			continue
		}
		calls++
		lat.add(ms(d), mark)
		if first[v] == nil {
			first[v] = r
			continue
		}
		ck.add(checkRepeat(fmt.Sprintf("fleet seed %d", variantSeed(o.seed, v)), fleetOutcome(first[v]), fleetOutcome(r)))
	}
	use := ph.end()
	cal.sample(fleetCalSamples)
	if calls == 0 {
		return res, nil
	}
	var ratios []float64
	maeSum, maeN := 0.0, 0
	for v, r := range first {
		if r == nil {
			continue
		}
		ratio, err := layoutRatio(prof, r.Estimates, measureSrc, variantSeed(o.seed, v))
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, ratio)
		for _, m := range fleetOutcome(r).MAE {
			maeSum += m
			maeN++
		}
	}
	if !o.trace {
		callMS := lat.median(cal, 2*fleetCalSamples)
		logUnscaled(float64(motes)/lat.rawMedian()*1e3, lat.rawMedian(), setups.rawMedian())
		res.set("setup_s", setups.median(cal, 2*fleetCalSamples))
		res.set("ops_per_s", float64(motes)/callMS*1e3)
		res.set("latency_ms_geomean", callMS)
		res.set("cycles_saved_pct", 100*(1-geomean(ratios)))
		res.set("mae", maeSum/float64(maeN))
		res.set("alloc_kb_per_op", float64(use.alloc)/float64(motes*calls)/1024)
		res.set("peak_heap_mb", median(use.peaks)/(1<<20))
		return res, nil
	}
	if first[0] == nil {
		return nil, fmt.Errorf("fleet: no successful call to replay")
	}
	res.set("bench.ref_ms", cal.refMS())
	return res, traceFleet(o, res, src, first[0], lat.rawMedian())
}

// layoutRatio is After/Before cycles of the layout the fleet's estimates
// imply, measured on the app at measureIters invocations. RunFleet's own
// Before and After run the deployed program, whose 4 invocations are too
// few for a figure that does not hang on the draw.
func layoutRatio(prof *compile.Output, est []codetomo.ProcEstimate, src string, seed int64) (float64, error) {
	trusted := make(map[string]codetomo.ProcEstimate)
	for _, e := range est {
		if !e.Fallback && !e.LowConfidence {
			trusted[e.Proc] = e
		}
	}
	probs := make(map[string]markov.EdgeProbs)
	for _, p := range prof.CFG.Procs {
		e, ok := trusted[p.Name]
		if len(p.BranchBlocks()) > 0 && !ok {
			continue
		}
		ep := markov.Uniform(p)
		for _, b := range e.Branches {
			ep[[2]ir.BlockID{ir.BlockID(b.FromBlock), ir.BlockID(b.ToBlock)}] = b.Prob
		}
		probs[p.Name] = ep
	}
	plan := layout.PlanAll(prof.CFG, probs)
	before, after, err := measurePair(nil, src, "gaussian", seed, func() *isa.CostModel { return nil },
		compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints}, &replayStats{})
	if err != nil {
		return 0, err
	}
	return float64(after) / float64(before), nil
}

// fleetSpecs repeats RunFleet's deployment derivation.
func fleetSpecs(motes int, seed int64) []fleet.MoteSpec {
	off := stats.NewRNG(seed + offsetSeed)
	specs := make([]fleet.MoteSpec, motes)
	for i := range specs {
		specs[i] = fleet.MoteSpec{
			ID:               uint16(i),
			Workload:         fleetWorkloads[i%len(fleetWorkloads)],
			Seed:             seed + int64(i+1)*moteSeedStride,
			ClockOffsetTicks: uint64(off.Intn(1 << 20)),
		}
	}
	return specs
}

// sampled is what the streaming pipeline reported for one sampled mote.
type sampled struct {
	events int
	link   fleet.LinkStats
	arq    fleet.ARQStats
}

// traceFleet runs the traced replay: RunFleet's pipeline layer by layer
// as one traced operation, then a fixed sample of motes through the
// layers the fused simulation span hides, which splits that span into
// layer shares.
func traceFleet(o options, res *result, src string, want *codetomo.FleetResult, untracedMS float64) error {
	cfg := fleetConfig(o.sizes.fleetMotes, variantSeed(o.seed, 0))
	specs := fleetSpecs(cfg.Motes, cfg.Seed)
	every := max(1, len(specs)/o.sizes.fleetSample)
	sim := fleet.SimConfig{
		Mote: mote.DefaultConfig(), MaxCycles: maxCycles, Workers: cfg.Workers,
		Link: fleet.LinkConfig{
			DropProb: cfg.DropProb, DupProb: cfg.DupProb, ReorderProb: cfg.ReorderProb, CorruptProb: cfg.CorruptProb,
			EventsPerPacket: trace.DefaultEventsPerPacket,
			ARQ:             fleet.ARQConfig{MaxRetries: cfg.ARQRetries},
			Seed:            cfg.Seed + linkSeed,
		},
	}

	tr := newTracer()
	var st replayStats
	tr.op("codetomo.RunFleet")
	var prof *compile.Output
	if err := tr.do("compile.build_profile", func() (err error) {
		prof, err = compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
		return err
	}); err != nil {
		return err
	}
	sim.Prog = prof.Code

	pool := fleet.NewPool(cfg.Workers)
	perMote := make([]map[int][]float64, len(specs))
	samples := make(map[uint16]sampled)
	var events, delivered int
	var oracleDense []mote.BranchStat
	if err := tr.do("fleet.simulate", func() (err error) {
		oracleDense, err = fleet.SimulateStreamOn(pool, sim, specs, func(first int, cohort []fleet.MoteResult) error {
			for j := range cohort {
				up := &cohort[j]
				perMote[first+j] = up.Durations
				events += up.EventsLogged
				delivered += up.Uplink.PacketsDelivered
				if (first+j)%every == 0 {
					samples[up.Spec.ID] = sampled{up.EventsLogged, up.Link, up.ARQ}
				}
			}
			return nil
		})
		return err
	}); err != nil {
		return err
	}
	var rounds map[int][][]float64
	tr.do("fleet.batch", func() error { rounds = fleet.BatchStreams(perMote, fleetBatches); return nil })

	type pending struct {
		pe     codetomo.ProcEstimate
		stream int
		model  *tomography.Model
		oracle markov.EdgeProbs
	}
	var pendings []pending
	var streams []fleet.ProcStream
	probs := make(map[string]markov.EdgeProbs)
	var oracleStats map[int32]*mote.BranchStat
	tr.do("profile.oracle", func() error { oracleStats = fleet.DenseBranchStats(oracleDense); return nil })
	for _, p := range prof.CFG.Procs {
		pm := prof.Meta.ProcByName[p.Name]
		if len(p.BranchBlocks()) == 0 {
			probs[p.Name] = markov.Uniform(p)
			continue
		}
		// RunFleet builds every model but reports a build error only for
		// a procedure that passes the sample gate.
		var m *tomography.Model
		merr := tr.do("tomography.model", func() (err error) {
			m, err = tomography.NewModel(prof, p.Name, mote.StaticNotTaken{}, enumOpts)
			return err
		})
		var all []float64
		for _, b := range rounds[pm.Index] {
			all = append(all, b...)
		}
		pd := pending{pe: codetomo.ProcEstimate{Proc: p.Name, SampleCount: len(all), Fallback: true}, stream: -1}
		if merr == nil {
			st.models++
			st.paths += len(m.Paths)
		}
		if len(all) >= minSamples {
			if merr != nil {
				return merr
			}
			var cov float64
			tr.do("tomography.coverage", func() error { cov = m.Coverage(all, tickDiv); return nil })
			if cov >= minCoverage {
				pd.model, pd.stream, pd.pe.Fallback = m, len(streams), false
				tr.do("profile.oracle", func() error { pd.oracle = profile.OracleProbs(pm, p, oracleStats); return nil })
				streams = append(streams, fleet.ProcStream{Name: p.Name, Model: m, Batches: rounds[pm.Index]})
			}
		}
		pendings = append(pendings, pd)
	}
	var outcomes []fleet.ProcOutcome
	em := tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: tickDiv}}
	if err := tr.do("fleet.estimate", func() (err error) {
		outcomes, err = fleet.EstimateStreamsOn(pool, streams, em, convergeTol, convergeRounds)
		return err
	}); err != nil {
		return err
	}
	var est []codetomo.ProcEstimate
	for _, pd := range pendings {
		if pd.stream >= 0 {
			o := outcomes[pd.stream]
			tr.do("tomography.em", func() error {
				pd.model.BranchAmbiguity(tickDiv / 4)
				pd.pe.Branches = branchList(pd.model, o.Probs)
				return nil
			})
			pd.pe.MAE = edgeMAE(pd.model.BranchEdgeList(), o.Probs, pd.oracle)
			probs[pd.pe.Proc] = o.Probs
			st.trusted++
		}
		est = append(est, pd.pe)
	}
	var plan layout.Plan
	tr.do("layout.plan", func() error { plan = layout.PlanAll(prof.CFG, probs); return nil })
	before, after, err := measurePair(tr, src, "gaussian", cfg.Seed, func() *isa.CostModel { return nil },
		compile.Options{Layouts: plan.Layouts, BranchHints: plan.Hints}, &st)
	if err != nil {
		return err
	}
	tr.end()

	match := reflect.DeepEqual(outcomeOf(est, before, after), fleetOutcome(want)) &&
		events == want.Fleet.EventsLogged && delivered == want.Fleet.Uplink.PacketsDelivered

	// The sampled motes, layer by layer, on one reused machine as the
	// streaming pipeline does.
	ts := newTracer()
	var m *mote.Machine
	var sentFrames, decFrames, decBytes, encFrames int
	var sampleInstr uint64
	for i := 0; i < len(specs); i += every {
		spec := specs[i]
		got, ok := samples[spec.ID]
		if !ok {
			match = false
			continue
		}
		ts.op("fleet.mote")
		var linkRNG *stats.RNG
		mcm := sim.Mote
		if err := ts.do("stats.rng", func() error {
			sensor, ok := workload.Named(spec.Workload, stats.NewRNG(spec.Seed))
			if !ok {
				return fmt.Errorf("unknown workload %q", spec.Workload)
			}
			mcm.Sensor = sensor
			mcm.Entropy = workload.NewEntropy(stats.NewRNG(spec.Seed + entropySalt))
			linkRNG = stats.NewRNG(sim.Link.Seed + int64(spec.ID)*linkMoteStride + 1)
			return nil
		}); err != nil {
			return err
		}
		mcm.ClockOffsetTicks = spec.ClockOffsetTicks
		ts.do("mote.reset", func() error {
			if m == nil {
				m = mote.New(sim.Prog, mcm)
			} else {
				m.Reset(mcm)
			}
			return nil
		})
		if err := ts.do("mote.run", func() error { return m.Run(maxCycles) }); err != nil {
			ts.end()
			return err
		}
		sampleInstr += m.Stats().Instructions
		var frames [][]byte
		nEvents := len(m.Trace())
		if err := ts.do("trace.encode", func() error {
			pkts := trace.Packetize(spec.ID, m.Trace(), sim.Link.EventsPerPacket)
			for k := range pkts {
				b, err := pkts[k].MarshalBinary()
				if err != nil {
					return err
				}
				frames = append(frames, b)
			}
			return nil
		}); err != nil {
			ts.end()
			return err
		}
		encFrames += len(frames)
		var out [][]byte
		var ls fleet.LinkStats
		var ast fleet.ARQStats
		ts.do("fleet.link", func() error { out, ls, ast = sim.Link.TransmitARQ(frames, linkRNG); return nil })
		sentFrames += ls.Sent
		var pkts []trace.Packet
		ts.do("trace.decode", func() error {
			for _, f := range out {
				var p trace.Packet
				if p.UnmarshalBinary(f) == nil {
					pkts = append(pkts, p)
				}
				decBytes += len(f)
			}
			return nil
		})
		decFrames += len(out)
		var ivs []trace.Interval
		if err := ts.do("trace.reassemble", func() error {
			r := trace.NewReassembler(spec.ID)
			for _, p := range pkts {
				if err := r.Add(p); err != nil {
					return err
				}
			}
			ivs, _ = r.Recover()
			return nil
		}); err != nil {
			ts.end()
			return err
		}
		ts.do("trace.extract", func() error {
			for _, ticks := range trace.ExclusiveByProc(ivs) {
				trace.DurationsCycles(ticks, tickDiv)
			}
			return nil
		})
		ts.end()
		if nEvents != got.events || ls != got.link || ast != got.arq {
			match = false
		}
	}

	st.report(tr, res)
	n := float64(ts.ops)
	rng, rngAlloc, _ := ts.self("stats.rng")
	res.set("stats.rng_us_per_mote", us(rng)/n)
	res.set("stats.rng_kb_per_mote", float64(rngAlloc)/n/1024)
	reset, _, _ := ts.self("mote.reset")
	res.set("mote.reset_us", us(reset)/n)
	run, _, _ := ts.self("mote.run")
	res.set("mote.run_us_per_mote", us(run)/n)
	res.set("mote.minstr_per_s", float64(sampleInstr)/run.Seconds()/1e6)
	enc, _, _ := ts.self("trace.encode")
	res.set("trace.encode_ns_per_frame", float64(enc)/float64(encFrames))
	dec, _, _ := ts.self("trace.decode")
	res.set("trace.decode_ns_per_frame", float64(dec)/float64(decFrames))
	res.set("trace.decode_mb_per_s", float64(decBytes)/dec.Seconds()/1e6)
	reasm, _, _ := ts.self("trace.reassemble")
	res.set("trace.reassemble_ns_per_frame", float64(reasm)/float64(decFrames))
	ext, _, _ := ts.self("trace.extract")
	res.set("trace.extract_ms", ms(ext)/n*float64(len(specs)))
	link, _, _ := ts.self("fleet.link")
	res.set("fleet.link_ns_per_frame", float64(link)/float64(sentFrames))
	res.set("fleet.retx_per_frame", float64(want.Fleet.ARQ.Retransmissions)/float64(want.Fleet.Link.Sent))
	simD, simAlloc, _ := tr.self("fleet.simulate")
	res.set("fleet.simulate_share_pct", 100*float64(simD)/float64(tr.opWall()))
	res.set("fleet.bytes_per_mote", float64(simAlloc)/float64(len(specs)))
	estD, _, _ := tr.self("fleet.estimate")
	res.set("fleet.estimate_ms", ms(estD))
	res.set("trace_overhead_pct", 100*(ms(tr.opWall())-untracedMS)/untracedMS)
	res.set("untraced_share_pct", untracedShare(tr, ts))
	res.set("replay_match", boolMetric(match))
	if err := tr.write(o.outDir, o.workload, o.seed); err != nil {
		return err
	}
	return ts.write(o.outDir, o.workload+"-motes", o.seed)
}

// branchList is the per-edge estimate list codetomo reports.
func branchList(m *tomography.Model, probs markov.EdgeProbs) []codetomo.BranchEstimate {
	var out []codetomo.BranchEstimate
	for _, e := range m.BranchEdgeList() {
		out = append(out, codetomo.BranchEstimate{FromBlock: int(e[0]), ToBlock: int(e[1]), Prob: probs[e]})
	}
	return out
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

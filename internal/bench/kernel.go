package bench

import (
	"time"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/report"
	"codetomo/internal/stats"
	"codetomo/internal/tomography"
)

// KernelBench (experiment k1) measures the estimation kernel itself rather
// than any paper figure: the dense EstimateEM against the retained
// map-based reference at 256/1024/4096 enumerated paths, and a warm
// Incremental.Observe round against the cold first round at equal
// accumulated sample counts. `ctbench -exp k1 -json` emits the
// machine-readable form committed as BENCH_PR4.json.
func KernelBench(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "K1: estimation kernel (dense vs reference, warm vs cold)",
		Header: []string{"case", "paths", "samples", "baseline ms", "optimized ms", "speedup"},
		Note:   "medians of 5 runs; estimate-em: baseline = map-based reference kernel, optimized = dense kernel; observe-round: baseline = cold round one over all samples, optimized = warm round folding in the last 100 at the same accumulated count",
	}
	for _, diamonds := range []int{8, 10, 12} {
		m, samples := kernelModel(diamonds, 2000, c.Seed)
		emCfg := tomography.EMConfig{KernelHalfWidth: 8, MaxIter: 30}
		ref := medianSecs(5, func() error {
			_, _, err := tomography.EstimateEMReference(m, samples, emCfg)
			return err
		})
		dense := medianSecs(5, func() error {
			_, _, err := tomography.EstimateEM(m, samples, emCfg)
			return err
		})
		t.AddRow("estimate-em", report.I(1<<diamonds), report.I(len(samples)),
			report.F(ref*1e3, 2), report.F(dense*1e3, 2), report.F(ref/dense, 1)+"x")
	}

	// Warm streaming round vs the cold first round, both ending at the
	// same accumulated sample count.
	m, samples := kernelModel(10, 2000, c.Seed)
	est := tomography.EM{Config: tomography.EMConfig{KernelHalfWidth: 4, Tol: 1e-4}}
	cold := medianSecs(5, func() error {
		inc := tomography.NewIncremental(m, est, 1e-3, 1<<30)
		_, err := inc.Observe(samples)
		return err
	})
	// medianSecs times the whole closure, so the warm-up happens outside
	// the timed region: one pre-warmed stream per run.
	warmRuns := make([]*tomography.Incremental, 5)
	for i := range warmRuns {
		inc := tomography.NewIncremental(m, est, 1e-3, 1<<30)
		if _, err := inc.Observe(samples[:1900]); err != nil {
			return nil, err
		}
		warmRuns[i] = inc
	}
	i := 0
	warm := medianSecs(5, func() error {
		inc := warmRuns[i]
		i++
		_, err := inc.Observe(samples[1900:])
		return err
	})
	t.AddRow("observe-round", report.I(1<<10), report.I(len(samples)),
		report.F(cold*1e3, 2), report.F(warm*1e3, 2), report.F(cold/warm, 1)+"x")
	return t, nil
}

// kernelModel builds a chain of `diamonds` two-way branches (2^diamonds
// enumerated paths) with seeded random costs, plus a quantized sample set
// drawn from seeded random branch probabilities — the same corpus shape
// the tomography property tests pin dense-vs-reference on.
func kernelModel(diamonds, n int, seed int64) (*tomography.Model, []float64) {
	rng := stats.NewRNG(seed + int64(diamonds)*1009)
	var blocks []*cfg.Block
	for d := 0; d < diamonds; d++ {
		base := ir.BlockID(3 * d)
		blocks = append(blocks,
			&cfg.Block{ID: base, Term: ir.Br{Cond: 0, True: base + 1, False: base + 2}},
			&cfg.Block{ID: base + 1, Term: ir.Jmp{Target: base + 3}},
			&cfg.Block{ID: base + 2, Term: ir.Jmp{Target: base + 3}},
		)
	}
	blocks = append(blocks, &cfg.Block{ID: ir.BlockID(3 * diamonds), Term: ir.Ret{Val: -1}})
	p := &cfg.Proc{Name: "kernel", Entry: 0, Blocks: blocks}

	costs := &markov.Costs{
		Block:         make([]float64, len(blocks)),
		Edge:          make(map[[2]ir.BlockID]float64),
		EntryOverhead: float64(rng.Intn(20)),
	}
	for i := range costs.Block {
		costs.Block[i] = float64(rng.Intn(120))
	}
	for _, e := range p.Edges() {
		costs.Edge[[2]ir.BlockID{e.From, e.To}] = float64(rng.Intn(8))
	}

	m := &tomography.Model{Proc: p, Costs: costs}
	m.Paths, m.Truncated = markov.Enumerate(p, markov.EnumerateOptions{MaxVisits: 4, MaxPaths: 1 << 13})
	m.PathTimes = markov.PathTimes(p, m.Paths, costs)
	for _, bb := range p.BranchBlocks() {
		u := tomography.Unknown{Block: bb}
		for _, s := range p.Block(bb).Succs() {
			u.Edges = append(u.Edges, [2]ir.BlockID{bb, s})
		}
		m.Unknowns = append(m.Unknowns, u)
	}

	truth := markov.Uniform(p)
	for _, u := range m.Unknowns {
		pr := 0.1 + 0.8*rng.Float64()
		truth[u.Edges[0]] = pr
		truth[u.Edges[1]] = 1 - pr
	}
	chain, err := markov.New(p, truth)
	if err != nil {
		panic(err) // structurally impossible: truth covers every edge
	}
	const tickDiv = 4.0
	samples := make([]float64, 0, n)
	for len(samples) < n {
		path := chain.SamplePath(rng.Float64, 1_000_000)
		if path == nil {
			continue
		}
		d := markov.PathTime(path, costs)
		// Tick quantization with a uniform start phase, as on the mote.
		phase := float64(rng.Intn(tickDiv))
		d = (float64(int((d+phase)/tickDiv)) - float64(int(phase/tickDiv))) * tickDiv
		samples = append(samples, d)
	}
	return m, samples
}

// medianSecs runs f `runs` times and returns the median wall time in
// seconds, or -1 on the first error so a broken case is obvious in the
// table.
func medianSecs(runs int, f func() error) float64 {
	times := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return -1
		}
		times = append(times, time.Since(start).Seconds())
	}
	// Insertion sort: runs is tiny.
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2]
}

package bench

import (
	"fmt"

	"codetomo/internal/apps"
	"codetomo/internal/compile"
	"codetomo/internal/isa"
	"codetomo/internal/layout"
	"codetomo/internal/report"
)

// pgoPageCrossPenalty is the flash-page refill cost the PGO sweep charges
// per page-crossing redirect — the regime where page packing has something
// to optimize. Both the compiler and the mote run under the same model.
const pgoPageCrossPenalty = 5

// pgoPasses enumerates the single-pass configurations of the sweep, in
// pipeline order. With two passes, each single-pass column is also the
// other pass's leave-one-out: the stack without it.
var pgoPasses = []struct {
	name string
	set  func(*compile.PGOOptions)
}{
	{"inline", func(o *compile.PGOOptions) { o.Inline = true }},
	{"pagepack", func(o *compile.PGOOptions) { o.PagePack = true }},
}

// PGOSweep measures what each profile-guided pass adds on top of
// estimation-based placement: every app is profiled once via timestamps,
// the estimated probabilities feed both the placement plan and the PGO
// edge weights, and then the identical workload runs under placement
// alone, under each single pass stacked on placement, and under both
// passes together — all with the same flash-page penalty in force.
func PGOSweep(c Config) (*report.Table, error) {
	t := &report.Table{
		Title:  "PG1: execution cycles by profile-guided pass, normalized to placement-only",
		Header: []string{"app", "placed cycles", "inline", "pagepack", "stacked", "saved"},
		Note: fmt.Sprintf("lower is better; 1.0000 = estimation-based placement under a %d-cycle page-cross penalty; "+
			"each single-pass column is also the other pass's leave-one-out (stacked minus that pass); saved = placed - stacked cycles",
			pgoPageCrossPenalty),
	}

	cost := isa.DefaultCostModel()
	cost.PageCrossPenalty = pgoPageCrossPenalty

	// The placement corpus is branch-heavy; CallChain adds the call-heavy
	// shape the inlining pass exists for.
	suite := append(apps.All(), apps.CallChain)
	for i, a := range suite {
		seedOffset := int64(1000 + i)

		// One profiling run; its estimates drive every optimized build.
		prof, err := c.execute(a, compile.Options{Instrument: compile.ModeTimestamps}, seedOffset)
		if err != nil {
			return nil, err
		}
		ctProbs, err := c.estimateAllProcs(prof)
		if err != nil {
			return nil, err
		}
		plan := layout.PlanAll(prof.Out.CFG, ctProbs)
		weights := make(map[string]compile.ProcWeights, len(ctProbs))
		for _, p := range prof.Out.CFG.Procs {
			if probs, ok := ctProbs[p.Name]; ok {
				weights[p.Name] = compile.ProcWeights(layout.FromProbs(p, probs))
			}
		}

		measure := func(pgo *compile.PGOOptions) (uint64, error) {
			r, err := c.execute(a, compile.Options{
				Layouts:     plan.Layouts,
				BranchHints: plan.Hints,
				Cost:        cost,
				PGO:         pgo,
			}, seedOffset)
			if err != nil {
				return 0, err
			}
			return r.Machine.Stats().Cycles, nil
		}

		placed, err := measure(nil)
		if err != nil {
			return nil, fmt.Errorf("%s/placement: %w", a.Name, err)
		}
		row := []string{a.Name, report.I(int(placed))}
		for _, pass := range pgoPasses {
			pgo := &compile.PGOOptions{Weights: weights}
			pass.set(pgo)
			cycles, err := measure(pgo)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", a.Name, pass.name, err)
			}
			row = append(row, report.F(float64(cycles)/float64(placed), 4))
		}
		all := &compile.PGOOptions{Weights: weights}
		for _, pass := range pgoPasses {
			pass.set(all)
		}
		stacked, err := measure(all)
		if err != nil {
			return nil, fmt.Errorf("%s/stacked: %w", a.Name, err)
		}
		row = append(row,
			report.F(float64(stacked)/float64(placed), 4),
			report.I(int(placed)-int(stacked)))
		t.AddRow(row...)
	}
	return t, nil
}

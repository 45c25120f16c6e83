// Package profile provides the profiling baselines Code Tomography is
// compared against, and the cost models for what each profiling strategy
// costs on a mote:
//
//   - Oracle: exact edge probabilities from the simulator's ground-truth
//     branch statistics (what an ideal profiler would report).
//   - EdgeCounter: the PROFCNT arc counters of a ModeEdgeCounters build —
//     the classical full instrumentation approach, with its
//     RAM/flash/runtime cost.
//   - Sampling: PC-sampling profiler that estimates block weights only.
//   - BallLarus: static branch-prediction heuristics needing no profiling
//     at all (the zero-cost baseline).
package profile

import (
	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
)

// OracleProbs converts the simulator's per-branch outcome counts into edge
// probabilities for one procedure — the ground truth estimators are scored
// against. Branches never executed stay at the uniform prior.
func OracleProbs(pm *compile.ProcMeta, proc *cfg.Proc, branchStats map[int32]*mote.BranchStat) markov.EdgeProbs {
	probs := markov.Uniform(proc)
	for _, bb := range proc.BranchBlocks() {
		for _, s := range proc.Block(bb).Succs() {
			key := [2]ir.BlockID{bb, s}
			info, ok := pm.Edges[compile.EdgeKey{From: bb, To: s}]
			if !ok || info.BranchPC < 0 {
				continue
			}
			st := branchStats[info.BranchPC]
			if st == nil {
				continue
			}
			total := st.Taken + st.NotTaken
			if total == 0 {
				continue
			}
			if info.Taken {
				probs[key] = float64(st.Taken) / float64(total)
			} else {
				probs[key] = float64(st.NotTaken) / float64(total)
			}
		}
	}
	return probs
}

// OracleEdgeCounts converts branch statistics into absolute edge traversal
// counts (the layout pass prefers counts over probabilities so hot code
// dominates).
// It is a differential oracle for tests of the probability conversion.
func OracleEdgeCounts(pm *compile.ProcMeta, proc *cfg.Proc, branchStats map[int32]*mote.BranchStat) map[[2]ir.BlockID]float64 {
	out := make(map[[2]ir.BlockID]float64)
	for _, bb := range proc.BranchBlocks() {
		for _, s := range proc.Block(bb).Succs() {
			info, ok := pm.Edges[compile.EdgeKey{From: bb, To: s}]
			if !ok || info.BranchPC < 0 {
				continue
			}
			st := branchStats[info.BranchPC]
			if st == nil {
				continue
			}
			if info.Taken {
				out[[2]ir.BlockID{bb, s}] = float64(st.Taken)
			} else {
				out[[2]ir.BlockID{bb, s}] = float64(st.NotTaken)
			}
		}
	}
	return out
}

package compile

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/layout"
)

// ProcWeights are expected edge-traversal counts for one procedure per
// invocation, keyed by CFG edge — the same shape as layout.Weights, which
// the estimator derives from its branch-probability estimates via the
// Markov chain.
type ProcWeights = map[[2]ir.BlockID]float64

// PGOOptions configures the profile-guided optimization pipeline that runs
// between the middle-end passes and code generation. The pipeline consumes
// the same edge weights block placement does and goes beyond placement:
// inlining hot call sites and packing procedures to flash pages.
//
// Inlining transforms both the CFG and the weights; the pipeline then
// computes layouts and polarity hints from the transformed weights, and
// caller-supplied Options.Layouts/BranchHints entries for weighted
// procedures are overridden. Weights must be keyed by the block IDs of the
// CFG as it stands after the deterministic pre-PGO pipeline
// (DeadBranchElim, RotateLoops) — exactly the CFG an instrumented build
// with the same flags produced, which is what makes estimated
// probabilities transferable.
type PGOOptions struct {
	// Weights holds per-procedure edge weights. Procedures without an
	// entry are left untouched by every pass (no information, no
	// transformation).
	Weights map[string]ProcWeights

	// Inline replaces small leaf calls at hot call sites with the callee
	// body (fresh locals and temps per site).
	Inline bool
	// PagePack pads each weighted procedure with NOPs to the flash-page
	// shift that minimizes its profile-weighted page-crossing redirects
	// (requires a cost model with PageSizeBytes > 0).
	PagePack bool

	// InlineMaxInstrs caps the callee body size in IR instructions
	// (default 24); InlineMinWeight is the minimum expected executions
	// per invocation of the call-site block (default 0.5); InlineBudget
	// caps total inlined IR instructions per caller (default 96).
	InlineMaxInstrs int
	InlineMinWeight float64
	InlineBudget    int
}

func (o *PGOOptions) withDefaults() PGOOptions {
	p := *o
	if p.InlineMaxInstrs <= 0 {
		p.InlineMaxInstrs = 24
	}
	if p.InlineMinWeight <= 0 {
		p.InlineMinWeight = 0.5
	}
	if p.InlineBudget <= 0 {
		p.InlineBudget = 96
	}
	return p
}

// runPGO executes the profile-guided pipeline on the lowered program,
// rewriting opts in place: the CFG is transformed and Layouts/BranchHints
// are recomputed from the transformed weights. Inlining is followed by the
// same stage checking the middle-end pipeline uses.
func runPGO(prog *cfg.Program, opts *Options) error {
	pgo := opts.PGO.withDefaults()
	opts.PGO = &pgo

	// The passes redistribute weight across transformed edges; work on a
	// copy so the caller's maps survive intact.
	weights := make(map[string]ProcWeights, len(pgo.Weights))
	for name, w := range pgo.Weights {
		cw := make(ProcWeights, len(w))
		for k, v := range w {
			cw[k] = v
		}
		weights[name] = cw
	}

	if pgo.Inline {
		inlineHotCalls(prog, weights, pgo)
		if err := checkStage(prog, "pgo-inline", *opts); err != nil {
			return err
		}
	}

	// Placement and polarity from the transformed weights.
	if opts.Layouts == nil {
		opts.Layouts = make(map[string][]ir.BlockID)
	}
	if opts.BranchHints == nil {
		opts.BranchHints = make(map[string]map[ir.BlockID]bool)
	}
	for _, p := range prog.Procs {
		w, ok := weights[p.Name]
		if !ok {
			continue
		}
		opts.Layouts[p.Name] = layout.Optimize(p, w)
		opts.BranchHints[p.Name] = layout.Hints(p, w)
	}
	opts.pgoWeights = weights
	return nil
}

// blockWeights derives per-block expected traversal counts from edge
// weights: the entry executes once per invocation, every other block as
// often as its in-edges are traversed.
func blockWeights(p *cfg.Proc, w ProcWeights) map[ir.BlockID]float64 {
	bw := make(map[ir.BlockID]float64, len(p.Blocks))
	bw[p.Entry] = 1
	for _, e := range p.Edges() {
		bw[e.To] += w[[2]ir.BlockID{e.From, e.To}]
	}
	return bw
}

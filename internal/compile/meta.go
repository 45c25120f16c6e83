package compile

import (
	"fmt"

	"codetomo/internal/ir"
	"codetomo/internal/isa"
)

// Mode selects the instrumentation inserted at code generation.
type Mode int

// Instrumentation modes.
const (
	// ModeNone builds the plain binary (used for optimized final builds).
	ModeNone Mode = iota
	// ModeTimestamps inserts a TRACE at each procedure entry and before
	// each return — the only measurement Code Tomography needs.
	ModeTimestamps
	// ModeEdgeCounters inserts per-arc PROFCNT counters at every
	// conditional branch — the classical full-profiling baseline.
	ModeEdgeCounters
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeTimestamps:
		return "timestamps"
	case ModeEdgeCounters:
		return "edge-counters"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// EdgeKey identifies a CFG edge within a procedure.
type EdgeKey struct {
	From, To ir.BlockID
}

// EdgeInfo describes the machine-level realization of a CFG edge under the
// layout the binary was generated with. Together with a Predictor it yields
// the edge's extra cycle cost (mispredict penalty and/or an explicit JMP).
type EdgeInfo struct {
	// BranchPC is the address of the conditional branch instruction that
	// decides this edge, or -1 for edges out of unconditional blocks.
	BranchPC int32
	// Taken reports whether traversing this edge takes that branch (as
	// opposed to falling through it).
	Taken bool
	// ViaJmp reports whether the edge additionally executes a JMP; JmpPC
	// is that JMP's address (meaningful only when ViaJmp).
	ViaJmp bool
	JmpPC  int32
	// PageCrosses is how many flash-page boundaries the edge's redirects
	// cross (the taken branch and/or the JMP, 0–2); each traversal pays
	// Cost.PageCrossPenalty per crossing. Computed after fixup resolution
	// whenever the cost model has a page size.
	PageCrosses uint8
	// Extra is a deterministic per-edge cycle cost beyond branch penalty
	// and JMP (e.g. the arc counter in ModeEdgeCounters builds).
	Extra uint64
}

// pageExtra is the deterministic page-refill cost paid on every traversal
// of the edge.
func (m *Meta) pageExtra(info EdgeInfo) uint64 {
	return uint64(info.PageCrosses) * uint64(m.Cost.PageCrossPenalty)
}

// Predictor is the slice of the mote's branch predictor interface the
// timing model needs. mote.Predictor satisfies it.
type Predictor interface {
	PredictTaken(pc int32, in isa.Instr) bool
}

// ProcMeta is the per-procedure timing/placement metadata emitted by the
// backend. It is the bridge between the binary and the Markov model: block
// base costs and per-edge descriptors let the estimator predict end-to-end
// durations for any path.
type ProcMeta struct {
	Name  string
	Index int
	// EntryAddr is the CALL target; EndAddr is one past the procedure's
	// last instruction.
	EntryAddr, EndAddr int32
	// EntryBlock is the CFG entry block's ID.
	EntryBlock ir.BlockID
	// Layout is the block emission order used.
	Layout []ir.BlockID
	// BlockAddr is each block's first instruction address.
	BlockAddr map[ir.BlockID]int32
	// BlockCycles is the deterministic cycle cost attributed to each block
	// under the measured-interval convention: return blocks exclude the
	// exit TRACE and the epilogue (those cycles land in the caller's
	// exclusive time and are charged to the call site); call sites include
	// the full caller-side and callee-boundary overhead.
	BlockCycles map[ir.BlockID]uint64
	// EntryOverhead is the once-per-invocation cost of the entry TRACE (if
	// instrumented) and the prologue, kept separate from the entry block's
	// cost so that revisits of the entry region are not overcharged.
	EntryOverhead uint64
	// Edges describes every CFG edge's machine realization.
	Edges map[EdgeKey]EdgeInfo
	// EnterTraceID/ExitTraceID are the TRACE operands in ModeTimestamps.
	EnterTraceID, ExitTraceID int32
	// ArcCounters maps branch edges to PROFCNT ids in ModeEdgeCounters.
	ArcCounters map[EdgeKey]int32
}

// Meta is the whole-program metadata.
type Meta struct {
	Procs      []*ProcMeta
	ProcByName map[string]*ProcMeta
	GlobalAddr map[string]int32
	// GlobalWords is the number of RAM words occupied by globals.
	GlobalWords int
	// CodeBytes is the encoded program size.
	CodeBytes uint32
	// NumArcCounters is the total PROFCNT counters allocated.
	NumArcCounters int
	Mode           Mode
	Cost           *isa.CostModel
	// Code is the emitted program (shared with Output.Code); the timing
	// model reads branch encodings from it.
	Code []isa.Instr
}

// EdgeExtraCycles returns the additional cycles incurred when leaving a
// block via the given edge, under the given static predictor: the
// mispredict penalty if the predictor guesses the realized direction wrong,
// plus the cost of an explicit JMP on edges that need one.
func (m *Meta) EdgeExtraCycles(pm *ProcMeta, e EdgeKey, pred Predictor) (uint64, error) {
	info, ok := pm.Edges[e]
	if !ok {
		return 0, fmt.Errorf("compile: proc %s has no edge %v->%v", pm.Name, e.From, e.To)
	}
	var extra uint64
	if info.BranchPC >= 0 {
		if int(info.BranchPC) >= len(m.Code) {
			return 0, fmt.Errorf("compile: edge branch pc %d out of range", info.BranchPC)
		}
		in := m.Code[info.BranchPC]
		if pred.PredictTaken(info.BranchPC, in) != info.Taken {
			extra += uint64(m.Cost.TakenPenalty)
		}
	}
	if info.ViaJmp {
		extra += uint64(m.Cost.Cycles[isa.JMP])
	}
	return extra + info.Extra + m.pageExtra(info), nil
}

// PathCycles returns the deterministic duration of one complete execution
// path through the procedure (a block sequence starting at the entry and
// ending at a return block), under the measured-interval convention: the
// sum of block costs plus per-edge extras. Callee time is excluded by
// construction (call sites charge only the boundary overhead).
// It is a differential oracle for tests of the measured timing model.
func (m *Meta) PathCycles(pm *ProcMeta, path []ir.BlockID, pred Predictor) (uint64, error) {
	total := pm.EntryOverhead
	for i, b := range path {
		c, ok := pm.BlockCycles[b]
		if !ok {
			return 0, fmt.Errorf("compile: proc %s has no block %v", pm.Name, b)
		}
		total += c
		if i+1 < len(path) {
			extra, err := m.EdgeExtraCycles(pm, EdgeKey{From: b, To: path[i+1]}, pred)
			if err != nil {
				return 0, err
			}
			total += extra
		}
	}
	return total, nil
}

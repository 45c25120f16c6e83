package profile

import (
	"fmt"
	"sort"

	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
	"codetomo/internal/mote"
)

// BlockSamples holds PC-sampling hit counts per procedure and block.
type BlockSamples map[string]map[ir.BlockID]uint64

// blockRange maps a code address range to a (proc, block) pair.
type blockRange struct {
	start, end int32
	proc       string
	block      ir.BlockID
}

// buildRanges derives sorted address ranges for every block from metadata.
func buildRanges(meta *compile.Meta) []blockRange {
	var rs []blockRange
	for _, pm := range meta.Procs {
		type ba struct {
			id   ir.BlockID
			addr int32
		}
		var blocks []ba
		for id, addr := range pm.BlockAddr {
			blocks = append(blocks, ba{id: id, addr: addr})
		}
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].addr < blocks[j].addr })
		for i, b := range blocks {
			end := pm.EndAddr
			if i+1 < len(blocks) {
				end = blocks[i+1].addr
			}
			rs = append(rs, blockRange{start: b.addr, end: end, proc: pm.Name, block: b.id})
		}
		// The entry preamble belongs to the entry block.
		if len(blocks) > 0 && pm.EntryAddr < blocks[0].addr {
			rs = append(rs, blockRange{start: pm.EntryAddr, end: blocks[0].addr, proc: pm.Name, block: pm.EntryBlock})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	return rs
}

// SampleRun executes the machine to completion, recording which block the
// PC is in every period cycles — a host-side model of a timer-interrupt
// PC-sampling profiler. It returns the hit counts.
func SampleRun(m *mote.Machine, meta *compile.Meta, period uint64, maxCycles uint64) (BlockSamples, error) {
	if period == 0 {
		return nil, fmt.Errorf("profile: sampling period must be positive")
	}
	ranges := buildRanges(meta)
	locate := func(pc int32) (string, ir.BlockID, bool) {
		i := sort.Search(len(ranges), func(i int) bool { return ranges[i].end > pc })
		if i < len(ranges) && pc >= ranges[i].start {
			return ranges[i].proc, ranges[i].block, true
		}
		return "", 0, false
	}

	samples := make(BlockSamples)
	nextSample := period
	for !m.Halted() {
		if m.Stats().Cycles >= maxCycles {
			return nil, fmt.Errorf("profile: %w", mote.ErrCycleBudget)
		}
		if m.Stats().Cycles >= nextSample {
			if proc, blk, ok := locate(m.PC()); ok {
				if samples[proc] == nil {
					samples[proc] = make(map[ir.BlockID]uint64)
				}
				samples[proc][blk]++
			}
			for nextSample <= m.Stats().Cycles {
				nextSample += period
			}
		}
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return samples, nil
}

// SamplingProbs derives branch probabilities from block sample weights:
// the probability of a branch edge is approximated by the relative sample
// weight of its successor blocks. This is the classical weakness of
// PC sampling — successors shared with other paths smear the estimate —
// kept deliberately as the "cheap but crude" comparator.
func SamplingProbs(proc *cfg.Proc, samples map[ir.BlockID]uint64) markov.EdgeProbs {
	probs := markov.Uniform(proc)
	for _, bb := range proc.BranchBlocks() {
		succs := proc.Block(bb).Succs()
		var total uint64
		for _, s := range succs {
			total += samples[s]
		}
		if total == 0 {
			continue
		}
		for _, s := range succs {
			probs[[2]ir.BlockID{bb, s}] = float64(samples[s]) / float64(total)
		}
	}
	return probs
}

package markov

import (
	"math"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// Arc is one traversed edge of a path with its traversal count.
type Arc struct {
	Edge  [2]ir.BlockID
	Count int
}

// Path is one complete execution path: a block sequence from the entry to
// a return block.
type Path struct {
	Blocks []ir.BlockID
	// Arcs lists the traversed edges in order of first traversal, each with
	// how many times the path traverses it (loops can traverse an edge
	// repeatedly). All arithmetic over paths iterates Arcs in this order so
	// results are bit-for-bit reproducible across runs.
	Arcs []Arc
	// edges[i] is Arcs[i].Edge's index in NewEdgeIndex of the enumerated
	// procedure, so Compile and PathTimes never look an arc up by key.
	// Enumerate always records it; Compile and PathTimes require it.
	edges []int32
}

// edgeIndices returns the edge indices Enumerate recorded for the path's
// arcs. Compile and PathTimes accept only enumerated paths.
func (p *Path) edgeIndices() []int32 {
	if len(p.edges) != len(p.Arcs) {
		panic("markov: path was not built by Enumerate")
	}
	return p.edges
}

// Prob returns the path's probability under the given edge probabilities:
// the product of edge probabilities over traversals.
func (p *Path) Prob(probs EdgeProbs) float64 {
	logp := 0.0
	for _, a := range p.Arcs {
		q := probs[a.Edge]
		if q <= 0 {
			return 0
		}
		logp += float64(a.Count) * math.Log(q)
	}
	return math.Exp(logp)
}

// PipelineMaxPaths is the path cap every production pipeline enumerates
// under: Run, RunFleet, the station, the experiments and the examples.
// Each handler's path set is at most this large; the unrolling bound is
// the caller's MaxVisits.
const PipelineMaxPaths = 30000

// EnumerateOptions bounds the path enumeration.
type EnumerateOptions struct {
	// MaxVisits caps how many times any single block may appear on a path
	// (the loop unrolling bound). Minimum 1.
	MaxVisits int
	// MaxPaths caps the number of paths returned.
	MaxPaths int
}

// Enumerate lists execution paths of the procedure by depth-first search
// with a per-block visit cap. truncated reports whether any path was cut
// off by the caps (its probability mass is missing from the returned set;
// estimators renormalize over the enumerated paths).
//
// The search keeps the current path's arcs in dense form: a traversal
// counter per CFG edge, raised on descent and lowered on backtrack, and a
// stack of the edges in order of first traversal. An edge is pushed when
// its counter leaves 0 and popped when it returns there; the edges first
// traversed deeper are always popped first, so the stack is exactly the
// path's arc order. A leaf copies the block sequence, the stack and the
// counts into slices carved from shared chunks, with no per-path maps.
func Enumerate(p *cfg.Proc, opts EnumerateOptions) (paths []*Path, truncated bool) {
	if opts.MaxVisits < 1 {
		opts.MaxVisits = 1
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 4096
	}
	ix := NewEdgeIndex(p)
	succs := make([][]ir.BlockID, len(p.Blocks))
	succEdge := make([][]int32, len(p.Blocks))
	for _, b := range p.Blocks {
		succs[int(b.ID)] = b.Succs()
		for _, s := range succs[int(b.ID)] {
			succEdge[int(b.ID)] = append(succEdge[int(b.ID)], ix.index[[2]ir.BlockID{b.ID, s}])
		}
	}
	visits := make([]int, len(p.Blocks))
	count := make([]int, ix.Len())
	var seq []ir.BlockID
	var first []int32
	var (
		pathMem  chunks[Path]
		blockMem chunks[ir.BlockID]
		arcMem   chunks[Arc]
		edgeMem  chunks[int32]
	)

	var walk func(id ir.BlockID)
	walk = func(id ir.BlockID) {
		if len(paths) >= opts.MaxPaths {
			truncated = true
			return
		}
		if visits[int(id)] >= opts.MaxVisits {
			truncated = true
			return
		}
		visits[int(id)]++
		seq = append(seq, id)

		if len(succs[int(id)]) == 0 {
			path := &pathMem.take(1)[0]
			path.Blocks = blockMem.take(len(seq))
			copy(path.Blocks, seq)
			path.edges = edgeMem.take(len(first))
			copy(path.edges, first)
			path.Arcs = arcMem.take(len(first))
			for i, e := range first {
				path.Arcs[i] = Arc{Edge: ix.edges[e], Count: count[e]}
			}
			paths = append(paths, path)
		} else {
			for k, s := range succs[int(id)] {
				e := succEdge[int(id)][k]
				if count[e]++; count[e] == 1 {
					first = append(first, e)
				}
				walk(s)
				if count[e]--; count[e] == 0 {
					first = first[:len(first)-1]
				}
			}
		}

		seq = seq[:len(seq)-1]
		visits[int(id)]--
	}
	walk(p.Entry)
	return paths, truncated
}

// chunks hands out slices carved from shared backing arrays, so a path set
// costs a few large allocations instead of several per path. A chunk is
// never reallocated, so every carved slice stays valid; chunk sizes double
// from chunkMin to chunkMax, which keeps small path sets small.
type chunks[T any] struct {
	free []T
	size int
}

const (
	chunkMin = 64
	chunkMax = 1 << 16
)

// take returns a fresh slice of n elements with capacity n.
func (c *chunks[T]) take(n int) []T {
	if len(c.free) < n {
		c.size = min(max(2*c.size, chunkMin), chunkMax)
		c.free = make([]T, max(n, c.size))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// PathTimes returns the deterministic duration of every path enumerated
// from p: entry overhead, then the blocks in order, then count × edge cost
// in arc order. Edge costs come from a dense table by each arc's recorded
// edge index; the enumeration oracle test pins the results bit-for-bit
// against the same sum over the Costs.Edge map.
func PathTimes(p *cfg.Proc, paths []*Path, costs *Costs) []float64 {
	ix := NewEdgeIndex(p)
	edgeCost := ix.Dense(costs.Edge)
	out := make([]float64, len(paths))
	for j, path := range paths {
		t := costs.EntryOverhead
		for _, b := range path.Blocks {
			t += costs.Block[int(b)]
		}
		for i, e := range path.edgeIndices() {
			t += float64(path.Arcs[i].Count) * edgeCost[e]
		}
		out[j] = t
	}
	return out
}

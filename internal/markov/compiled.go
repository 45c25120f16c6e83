package markov

import (
	"math"
	"sort"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// EdgeIndex assigns every CFG edge of one procedure a dense index so the
// estimation hot loops can replace map lookups with slice indexing. Indices
// are assigned in (block ID, successor order) — a deterministic layout that
// matches the iteration order of the reference (map-based) estimators at
// the API boundary.
type EdgeIndex struct {
	edges [][2]ir.BlockID
	index map[[2]ir.BlockID]int32
}

// NewEdgeIndex builds the dense edge numbering of a procedure.
func NewEdgeIndex(p *cfg.Proc) *EdgeIndex {
	ix := &EdgeIndex{index: make(map[[2]ir.BlockID]int32)}
	for _, b := range p.Blocks {
		for _, s := range b.Succs() {
			e := [2]ir.BlockID{b.ID, s}
			if _, ok := ix.index[e]; ok {
				continue
			}
			ix.index[e] = int32(len(ix.edges))
			ix.edges = append(ix.edges, e)
		}
	}
	return ix
}

// Len returns the number of indexed edges.
func (ix *EdgeIndex) Len() int { return len(ix.edges) }

// Edge returns the edge at a dense index.
func (ix *EdgeIndex) Edge(i int) [2]ir.BlockID { return ix.edges[i] }

// Index returns the dense index of an edge.
func (ix *EdgeIndex) Index(e [2]ir.BlockID) (int32, bool) {
	i, ok := ix.index[e]
	return i, ok
}

// Dense projects an EdgeProbs map onto the dense layout. Edges missing from
// the map get probability 0.
func (ix *EdgeIndex) Dense(ep EdgeProbs) []float64 {
	out := make([]float64, len(ix.edges))
	for i, e := range ix.edges {
		out[i] = ep[e]
	}
	return out
}

// Probs converts a dense probability vector back to the map form used at
// the API boundary.
func (ix *EdgeIndex) Probs(v []float64) EdgeProbs {
	out := make(EdgeProbs, len(ix.edges))
	for i, e := range ix.edges {
		out[e] = v[i]
	}
	return out
}

// CompiledPaths is the dense, cache-friendly form of an enumerated path
// set: every path's arcs stored back to back in CSR layout as
// (edge index, traversal count) pairs. Path.Prob over the map form and
// PathProbs over this form are bit-for-bit identical — same arc order, same
// sequence of floating-point operations — so estimators can switch freely.
type CompiledPaths struct {
	Index *EdgeIndex
	// arcStart[j] .. arcStart[j+1] bounds path j's arcs in arcEdge/arcCount.
	arcStart []int32
	arcEdge  []int32
	// arcCount holds float64(Arc.Count) so the inner loop is a pure fused
	// multiply-sum with no int→float conversions.
	arcCount []float64
}

// Compile builds the dense form of a path set enumerated from p, from the
// edge indices Enumerate recorded on every arc.
func Compile(p *cfg.Proc, paths []*Path) *CompiledPaths {
	ix := NewEdgeIndex(p)
	cp := &CompiledPaths{Index: ix, arcStart: make([]int32, len(paths)+1)}
	n := 0
	for _, path := range paths {
		n += len(path.Arcs)
	}
	cp.arcEdge = make([]int32, 0, n)
	cp.arcCount = make([]float64, 0, n)
	for j, path := range paths {
		cp.arcEdge = append(cp.arcEdge, path.edgeIndices()...)
		for _, a := range path.Arcs {
			cp.arcCount = append(cp.arcCount, float64(a.Count))
		}
		cp.arcStart[j+1] = int32(len(cp.arcEdge))
	}
	return cp
}

// NumPaths returns the number of compiled paths.
func (cp *CompiledPaths) NumPaths() int { return len(cp.arcStart) - 1 }

// LogProbs fills logq[i] = log(q[i]) for every indexed edge, with
// non-positive probabilities mapped to -Inf (so a path using such an edge
// gets probability exp(-Inf) = 0, exactly like Path.Prob's early return).
// This is the shared per-iteration table: one log per edge instead of one
// per arc per path.
func (cp *CompiledPaths) LogProbs(q, logq []float64) {
	for i, p := range q {
		if p <= 0 {
			logq[i] = math.Inf(-1)
		} else {
			logq[i] = math.Log(p)
		}
	}
}

// PathProbs computes every path's probability from the shared log table:
// out[j] = exp(Σ count·logq[edge]) over path j's arcs in order. The sum
// runs in the same arc order with the same operations as Path.Prob, so the
// results are bit-identical to the map-based form.
func (cp *CompiledPaths) PathProbs(logq, out []float64) {
	for j := 0; j+1 < len(cp.arcStart); j++ {
		logp := 0.0
		for a := cp.arcStart[j]; a < cp.arcStart[j+1]; a++ {
			logp += cp.arcCount[a] * logq[cp.arcEdge[a]]
		}
		out[j] = math.Exp(logp)
	}
}

// Arcs returns path j's arcs as parallel slices of dense edge indices and
// traversal counts, in arc order.
func (cp *CompiledPaths) Arcs(j int) (edges []int32, counts []float64) {
	lo, hi := cp.arcStart[j], cp.arcStart[j+1]
	return cp.arcEdge[lo:hi], cp.arcCount[lo:hi]
}

// AccumulateArcs adds gamma·count to w[edge] for each arc of path j, in
// arc order — the estimators' M-step accumulation. The fixed order keeps
// floating-point sums reproducible run to run.
func (cp *CompiledPaths) AccumulateArcs(j int, gamma float64, w []float64) {
	for a := cp.arcStart[j]; a < cp.arcStart[j+1]; a++ {
		w[cp.arcEdge[a]] += gamma * cp.arcCount[a]
	}
}

// SortedTimes is the binary-search index over a path set's deterministic
// durations: times ascending, ties broken by path index, with Idx mapping
// each sorted position back to the original path index.
type SortedTimes struct {
	Times []float64
	Idx   []int32
}

// NewSortedTimes indexes a PathTimes slice for O(log n) window and
// nearest-path queries.
func NewSortedTimes(times []float64) *SortedTimes {
	st := &SortedTimes{Times: make([]float64, len(times)), Idx: make([]int32, len(times))}
	for i := range st.Idx {
		st.Idx[i] = int32(i)
	}
	sort.Slice(st.Idx, func(a, b int) bool {
		i, j := st.Idx[a], st.Idx[b]
		if times[i] != times[j] {
			return times[i] < times[j]
		}
		return i < j
	})
	for i, j := range st.Idx {
		st.Times[i] = times[j]
	}
	return st
}

// Window returns the half-open sorted-position range [lo, hi) of paths with
// |t − time| <= hw, under the exact floating-point predicate
// math.Abs(t−τ) <= hw that the reference estimator scans for. Correctness
// rests on IEEE-754 subtraction being monotone: fl(t−τ) is nonincreasing in
// τ, so the predicate region is contiguous and both boundaries binary
// search.
func (st *SortedTimes) Window(t, hw float64) (lo, hi int) {
	lo = sort.Search(len(st.Times), func(i int) bool { return t-st.Times[i] <= hw })
	hi = sort.Search(len(st.Times), func(i int) bool { return st.Times[i]-t > hw })
	return lo, hi
}

// Within reports whether any path time lies within width of t (the exact
// predicate math.Abs(t−τ) <= width).
func (st *SortedTimes) Within(t, width float64) bool {
	lo, hi := st.Window(t, width)
	return lo < hi
}

// Nearest returns the original index of the path whose time is closest to
// t, replicating the reference scan exactly: among all paths achieving the
// minimal math.Abs(t−τ), the smallest path index wins. Returns -1 on an
// empty set.
func (st *SortedTimes) Nearest(t float64) int {
	n := len(st.Times)
	if n == 0 {
		return -1
	}
	// Insertion point: first time >= t.
	p := sort.SearchFloat64s(st.Times, t)
	best := math.Inf(1)
	if p > 0 {
		best = math.Abs(t - st.Times[p-1])
	}
	if p < n {
		if d := math.Abs(t - st.Times[p]); d < best {
			best = d
		}
	}
	// Distances are nondecreasing moving away from the insertion point, so
	// every path achieving the minimum sits in the two runs adjacent to it.
	idx := -1
	for i := p - 1; i >= 0 && math.Abs(t-st.Times[i]) == best; i-- {
		if j := int(st.Idx[i]); idx < 0 || j < idx {
			idx = j
		}
	}
	for i := p; i < n && math.Abs(t-st.Times[i]) == best; i++ {
		if j := int(st.Idx[i]); idx < 0 || j < idx {
			idx = j
		}
	}
	return idx
}

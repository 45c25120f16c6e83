package layout

// Pins the incremental chain-emission loop in Optimize to the quadratic
// rescan it replaced: optimizeReference below is that original emission,
// and the property test requires bit-identical layouts (float ties
// included) across random CFGs and weight distributions.

import (
	"sort"
	"testing"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/stats"
)

// optimizeReference is Optimize with the original emission loop: per round,
// every unplaced chain rescans every CFG edge to compute its connection to
// the placed set. It carries the same colder-arm rule as Optimize (no
// chain headed by a colder arm of the last placed block while another
// remains), so the property test pins the incremental sums, not the rule.
func optimizeReference(proc *cfg.Proc, weights Weights) []ir.BlockID {
	n := len(proc.Blocks)
	chainOf := make([]int, n)
	chains := make([][]ir.BlockID, n)
	for i := 0; i < n; i++ {
		chainOf[i] = i
		chains[i] = []ir.BlockID{ir.BlockID(i)}
	}

	type wedge struct {
		e [2]ir.BlockID
		w float64
	}
	var edges []wedge
	for _, e := range proc.Edges() {
		key := [2]ir.BlockID{e.From, e.To}
		edges = append(edges, wedge{e: key, w: weights[key]})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].e[0] != edges[j].e[0] {
			return edges[i].e[0] < edges[j].e[0]
		}
		return edges[i].e[1] < edges[j].e[1]
	})

	maxOut := make(map[ir.BlockID]float64, n)
	for _, we := range edges {
		if we.w > maxOut[we.e[0]] {
			maxOut[we.e[0]] = we.w
		}
	}
	colder := make(map[[2]ir.BlockID]bool)
	for _, we := range edges {
		if we.w < maxOut[we.e[0]] {
			colder[we.e] = true
		}
	}

	for _, we := range edges {
		a, b := we.e[0], we.e[1]
		if we.w < maxOut[a] {
			continue
		}
		ca, cb := chainOf[a], chainOf[b]
		if ca == cb {
			continue
		}
		tailA := chains[ca][len(chains[ca])-1]
		headB := chains[cb][0]
		if tailA != a || headB != b {
			continue
		}
		for _, blk := range chains[cb] {
			chainOf[blk] = ca
		}
		chains[ca] = append(chains[ca], chains[cb]...)
		chains[cb] = nil
	}

	placed := make(map[int]bool)
	var order []ir.BlockID
	emit := func(ci int) {
		order = append(order, chains[ci]...)
		placed[ci] = true
	}
	emit(chainOf[proc.Entry])
	for len(order) < n {
		last := order[len(order)-1]
		best, bestW, bestCold := -1, -1.0, false
		for ci, ch := range chains {
			if ch == nil || placed[ci] {
				continue
			}
			w := 0.0
			for _, e := range proc.Edges() {
				if chainOf[e.From] != ci && placed[chainOf[e.From]] && chainOf[e.To] == ci {
					w += weights[[2]ir.BlockID{e.From, e.To}]
				}
			}
			cold := colder[[2]ir.BlockID{last, ch[0]}]
			if best == -1 || (bestCold && !cold) ||
				(cold == bestCold && (w > bestW || (w == bestW && ch[0] < chains[best][0]))) {
				best, bestW, bestCold = ci, w, cold
			}
		}
		if best == -1 {
			break
		}
		emit(best)
	}
	return order
}

// randomLayoutProc builds an arbitrary control-flow shape: entry 0, random
// jumps/branches (never back to the entry), a sprinkling of returns, and
// possibly-unreachable regions.
func randomLayoutProc(seed int64, n int) *cfg.Proc {
	rng := stats.NewRNG(seed)
	blocks := make([]*cfg.Block, n)
	target := func() ir.BlockID { return ir.BlockID(1 + rng.Intn(n-1)) }
	for i := 0; i < n; i++ {
		var term ir.Terminator
		switch {
		case n == 1 || rng.Float64() < 0.08:
			term = ir.Ret{Val: -1}
		case rng.Float64() < 0.45:
			term = ir.Jmp{Target: target()}
		default:
			term = ir.Br{Cond: 0, True: target(), False: target()}
		}
		blocks[i] = &cfg.Block{ID: ir.BlockID(i), Term: term}
	}
	return &cfg.Proc{Name: "r", Entry: 0, Blocks: blocks}
}

// randomLayoutWeights mixes continuous weights with small-integer ones so
// exact float ties (and the tie-break path) occur regularly.
func randomLayoutWeights(p *cfg.Proc, seed int64) Weights {
	rng := stats.NewRNG(seed)
	w := Weights{}
	for _, e := range p.Edges() {
		v := rng.Float64() * 10
		if rng.Bernoulli(0.5) {
			v = float64(rng.Intn(5))
		}
		w[[2]ir.BlockID{e.From, e.To}] = v
	}
	return w
}

func TestOptimizeMatchesReferenceEmission(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		n := 2 + int(seed%60)
		p := randomLayoutProc(seed, n)
		w := randomLayoutWeights(p, seed*7+1)
		got := Optimize(p, w)
		want := optimizeReference(p, w)
		if len(got) != len(want) {
			t.Fatalf("seed %d: len %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order differs at %d:\n got %v\nwant %v", seed, i, got, want)
			}
		}
	}
}

func BenchmarkOptimize1kBlocks(b *testing.B) {
	p := randomLayoutProc(42, 1000)
	w := randomLayoutWeights(p, 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Optimize(p, w)
	}
}

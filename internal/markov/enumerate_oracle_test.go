package markov_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"codetomo/internal/apps"
	"codetomo/internal/cfg"
	"codetomo/internal/compile"
	"codetomo/internal/ir"
	"codetomo/internal/markov"
)

// enumerateMaps is the map-based path enumeration the dense enumerator
// replaced, kept as its differential oracle: the same depth-first search,
// but each leaf rebuilds its arcs by scanning the block sequence through a
// per-path edge-count map.
func enumerateMaps(p *cfg.Proc, opts markov.EnumerateOptions) (paths []*markov.Path, truncated bool) {
	if opts.MaxVisits < 1 {
		opts.MaxVisits = 1
	}
	if opts.MaxPaths <= 0 {
		opts.MaxPaths = 4096
	}
	visits := make([]int, len(p.Blocks))
	var seq []ir.BlockID

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

		succs := p.Block(id).Succs()
		if len(succs) == 0 {
			path := &markov.Path{Blocks: append([]ir.BlockID(nil), seq...)}
			counts := make(map[[2]ir.BlockID]int)
			for i := 0; i+1 < len(path.Blocks); i++ {
				e := [2]ir.BlockID{path.Blocks[i], path.Blocks[i+1]}
				if counts[e] == 0 {
					path.Arcs = append(path.Arcs, markov.Arc{Edge: e})
				}
				counts[e]++
			}
			for i := range path.Arcs {
				path.Arcs[i].Count = counts[path.Arcs[i].Edge]
			}
			paths = append(paths, path)
		} else {
			for _, s := range succs {
				walk(s)
			}
		}

		seq = seq[:len(seq)-1]
		visits[int(id)]--
	}
	walk(p.Entry)
	return paths, truncated
}

// oraclePathTime is a path's duration summed in the reference order:
// entry overhead, then blocks in order, then count × edge cost in arc
// order, with each arc's cost looked up in the cost map.
func oraclePathTime(path *markov.Path, costs *markov.Costs) float64 {
	t := costs.EntryOverhead
	for _, b := range path.Blocks {
		t += costs.Block[int(b)]
	}
	for _, a := range path.Arcs {
		t += float64(a.Count) * costs.Edge[a.Edge]
	}
	return t
}

// oracleCosts gives every block and edge a distinct non-integer cost, so
// any change in PathTimes' summation order shows in the rounding.
func oracleCosts(p *cfg.Proc) *markov.Costs {
	c := &markov.Costs{Block: make([]float64, len(p.Blocks)), Edge: make(map[[2]ir.BlockID]float64), EntryOverhead: 7.3}
	for i := range c.Block {
		c.Block[i] = 1.1*float64(i) + 0.37
	}
	for _, e := range p.Edges() {
		c.Edge[[2]ir.BlockID{e.From, e.To}] = 0.71*float64(e.From) + 0.13*float64(e.To) + 0.01
	}
	return c
}

// diffEnumerate compares Enumerate against the map-based oracle on one
// procedure: path order, blocks, arcs (edge, count, order), the recorded
// edge indices, the truncated flag, and every PathTimes value bit for bit.
// It returns a description of the first difference, or "".
func diffEnumerate(p *cfg.Proc, opts markov.EnumerateOptions) string {
	got, gotTrunc := markov.Enumerate(p, opts)
	want, wantTrunc := enumerateMaps(p, opts)
	if gotTrunc != wantTrunc {
		return fmt.Sprintf("truncated = %v, oracle %v", gotTrunc, wantTrunc)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, oracle %d", len(got), len(want))
	}
	ix := markov.NewEdgeIndex(p)
	for j := range got {
		g, w := got[j], want[j]
		if !slices.Equal(g.Blocks, w.Blocks) {
			return fmt.Sprintf("path %d blocks %v, oracle %v", j, g.Blocks, w.Blocks)
		}
		if !slices.Equal(g.Arcs, w.Arcs) {
			return fmt.Sprintf("path %d arcs %v, oracle %v", j, g.Arcs, w.Arcs)
		}
		edges := markov.RecordedEdges(g)
		if len(edges) != len(g.Arcs) {
			return fmt.Sprintf("path %d: %d edge indices for %d arcs", j, len(edges), len(g.Arcs))
		}
		for i, a := range g.Arcs {
			if e, _ := ix.Index(a.Edge); e != edges[i] {
				return fmt.Sprintf("path %d arc %d: edge index %d, want %d", j, i, edges[i], e)
			}
		}
	}
	costs := oracleCosts(p)
	for j, tm := range markov.PathTimes(p, got, costs) {
		if want := oraclePathTime(want[j], costs); math.Float64bits(tm) != math.Float64bits(want) {
			return fmt.Sprintf("path %d time %v, oracle %v", j, tm, want)
		}
	}
	return ""
}

// TestEnumerateMatchesOracle runs the differential check on every
// procedure of the app corpus, at the pipeline's bounds (where crc8 and
// sendpacket hit the path cap) and at small caps.
func TestEnumerateMatchesOracle(t *testing.T) {
	bounds := []markov.EnumerateOptions{
		{MaxVisits: 12, MaxPaths: markov.PipelineMaxPaths},
		{MaxVisits: 3, MaxPaths: 50},
		{MaxVisits: 1, MaxPaths: 7},
	}
	for _, a := range append(apps.All(), apps.CallChain) {
		src, err := a.Source(10)
		if err != nil {
			t.Fatal(err)
		}
		out, err := compile.Build(src, compile.Options{Instrument: compile.ModeTimestamps})
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, p := range out.CFG.Procs {
			for _, opts := range bounds {
				if d := diffEnumerate(p, opts); d != "" {
					t.Errorf("%s/%s at %+v: %s", a.Name, p.Name, opts, d)
				}
			}
		}
	}
}

// decodeProc builds a small CFG and enumeration caps from fuzz bytes: up to
// 6 blocks, each a jump, a two-way branch (possibly with both arms to one
// block) or a return, with targets anywhere in the procedure.
func decodeProc(data []byte) (*cfg.Proc, markov.EnumerateOptions) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%6
	opts := markov.EnumerateOptions{MaxVisits: 1 + next()%3, MaxPaths: 1 + next()%64}
	p := &cfg.Proc{Name: "fuzz", Entry: 0}
	for i := 0; i < n; i++ {
		id := ir.BlockID(i)
		var term ir.Terminator
		switch next() % 3 {
		case 0:
			term = ir.Jmp{Target: ir.BlockID(next() % n)}
		case 1:
			term = ir.Br{Cond: 0, True: ir.BlockID(next() % n), False: ir.BlockID(next() % n)}
		default:
			term = ir.Ret{Val: -1}
		}
		p.Blocks = append(p.Blocks, &cfg.Block{ID: id, Term: term})
	}
	return p, opts
}

// FuzzEnumerate compares Enumerate against the map-based oracle on random
// small CFGs and caps; any difference is a crash.
func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{3, 2, 10, 1, 1, 2, 0, 2})
	f.Add([]byte{4, 2, 40, 0, 1, 1, 2, 3, 0, 1, 2})
	f.Add([]byte{5, 1, 63, 1, 1, 1, 1, 2, 4, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, opts := decodeProc(data)
		if d := diffEnumerate(p, opts); d != "" {
			t.Fatalf("%+v: %s", opts, d)
		}
	})
}

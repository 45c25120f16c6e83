package analysis

import (
	"codetomo/internal/cfg"
	"codetomo/internal/ir"
)

// Liveness is a per-block liveness fixpoint: LiveIn[b] holds the facts
// live at the top of block b, LiveOut[b] at the bottom.
type Liveness struct {
	LiveIn, LiveOut []Bits
}

func inRange(t ir.Temp, n int) bool { return t >= 0 && int(t) < n }

// VarSpace indexes the named scalar variables of one procedure for
// bit-vector analyses: parameters first, then locals, in declaration
// order. Globals and arrays are excluded — globals are observable outside
// the procedure and arrays are accessed through indices the analyses do
// not model.
type VarSpace struct {
	Names []string
	index map[string]int
	// NumParams counts how many leading Names are parameters.
	NumParams int
}

// NewVarSpace builds the variable index of a procedure.
func NewVarSpace(p *cfg.Proc) *VarSpace {
	vs := &VarSpace{index: make(map[string]int)}
	add := func(name string) {
		if _, dup := vs.index[name]; dup {
			return
		}
		vs.index[name] = len(vs.Names)
		vs.Names = append(vs.Names, name)
	}
	for _, name := range p.Params {
		add(name)
	}
	vs.NumParams = len(vs.Names)
	for _, name := range p.Locals {
		add(name)
	}
	return vs
}

// Index returns the bit index of name, or -1 when the name is not a local
// scalar (i.e. it is a global or an array).
func (vs *VarSpace) Index(name string) int {
	if i, ok := vs.index[name]; ok {
		return i
	}
	return -1
}

// VarLiveness computes live local scalars (parameters and locals) per
// block. Reads are LoadVar, writes are StoreVar; calls cannot touch
// another frame's locals (MiniC has no pointers), so they neither use nor
// kill anything here.
func VarLiveness(p *cfg.Proc, vs *VarSpace) *Liveness {
	n := len(vs.Names)
	prob := &Problem{
		Dir:  Backward,
		May:  true,
		Bits: n,
		Gen:  make([]Bits, len(p.Blocks)),
		Kill: make([]Bits, len(p.Blocks)),
	}
	for i, b := range p.Blocks {
		gen, kill := NewBits(n), NewBits(n)
		for _, in := range b.Instrs {
			switch v := in.(type) {
			case ir.LoadVar:
				if j := vs.Index(v.Name); j >= 0 && !kill.Get(j) {
					gen.Set(j)
				}
			case ir.StoreVar:
				if j := vs.Index(v.Name); j >= 0 {
					kill.Set(j)
				}
			}
		}
		prob.Gen[i], prob.Kill[i] = gen, kill
	}
	res := Solve(p, prob)
	return &Liveness{LiveIn: res.In, LiveOut: res.Out}
}

// DeadStore is a StoreVar whose value can never be read: no path from the
// store reaches a load of the variable before the next store or the
// procedure exit.
type DeadStore struct {
	Block ir.BlockID
	Index int // instruction index within the block
	Name  string
	Pos   ir.Pos
}

// DeadStores finds dead stores to local scalars (parameters and locals)
// in the reachable part of the procedure. Stores to globals are never
// reported: they stay observable to other procedures.
func DeadStores(p *cfg.Proc) []DeadStore {
	vs := NewVarSpace(p)
	if len(vs.Names) == 0 {
		return nil
	}
	live := VarLiveness(p, vs)
	reach := p.Reachable()
	var out []DeadStore
	for _, b := range p.Blocks {
		if !reach[b.ID] {
			continue
		}
		// Walk the block backward tracking the live set.
		cur := live.LiveOut[b.ID].Clone()
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			switch v := b.Instrs[i].(type) {
			case ir.StoreVar:
				if j := vs.Index(v.Name); j >= 0 {
					if !cur.Get(j) {
						out = append(out, DeadStore{
							Block: b.ID, Index: i, Name: v.Name, Pos: b.InstrPos(i),
						})
					}
					cur.Clear(j)
				}
			case ir.LoadVar:
				if j := vs.Index(v.Name); j >= 0 {
					cur.Set(j)
				}
			}
		}
	}
	return out
}

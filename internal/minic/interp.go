package minic

import (
	"errors"
	"fmt"

	"codetomo/internal/isa"
)

// This file implements a reference interpreter that executes MiniC directly
// over the AST with the language's 16-bit wraparound semantics. It exists
// for differential testing: the compiler + mote simulator must produce
// exactly the outputs this interpreter produces, for any program. It is
// deliberately independent of the backend (no CFG, no machine code).

// Env supplies the hardware intrinsics to the interpreter.
type Env struct {
	// Sense and Rand produce the next ADC / entropy reading.
	Sense func() uint16
	Rand  func() uint16
	// Now produces the current timer tick. The reference interpreter has
	// no cycle model, so tests normally supply a constant.
	Now func() uint16
	// Debug receives debug(w) values; Send receives send(w) values; LED
	// receives led(v) values. Any may be nil.
	Debug func(uint16)
	Send  func(uint16)
	LED   func(uint16)
}

// ErrInterpLimit is returned when execution exceeds the step budget
// (runaway loop in a generated program).
var ErrInterpLimit = errors.New("minic: interpreter step limit exceeded")

type interp struct {
	file    *File
	env     Env
	globals map[string]uint16
	garrs   map[string][]uint16
	steps   int
	maxStep int
}

type frameEnv struct {
	vars map[string]uint16
	arrs map[string][]uint16
}

// control-flow signals inside the interpreter.
type signal int

const (
	sigNone signal = iota
	sigBreak
	sigContinue
	sigReturn
)

// Interpret runs a checked MiniC file under the given environment,
// executing at most maxSteps statements/expressions.
// It is a differential oracle for tests: compiled programs must match it.
func Interpret(f *File, env Env, maxSteps int) error {
	if env.Sense == nil {
		env.Sense = func() uint16 { return 0 }
	}
	if env.Rand == nil {
		env.Rand = func() uint16 { return 0 }
	}
	if env.Now == nil {
		env.Now = func() uint16 { return 0 }
	}
	if maxSteps <= 0 {
		maxSteps = 10_000_000
	}
	in := &interp{
		file:    f,
		env:     env,
		globals: make(map[string]uint16),
		garrs:   make(map[string][]uint16),
		maxStep: maxSteps,
	}
	for _, g := range f.Globals {
		if g.ArrayLen > 0 {
			in.garrs[g.Name] = make([]uint16, g.ArrayLen)
			continue
		}
		v := 0
		if g.Init != nil {
			c, err := EvalConst(g.Init)
			if err != nil {
				return err
			}
			v = c
		}
		in.globals[g.Name] = uint16(v)
	}
	_, _, err := in.callFunc(f.Func("main"), nil)
	return err
}

func (in *interp) tick() error {
	in.steps++
	if in.steps > in.maxStep {
		return ErrInterpLimit
	}
	return nil
}

func (in *interp) callFunc(fn *FuncDecl, args []uint16) (uint16, bool, error) {
	fr := &frameEnv{vars: make(map[string]uint16), arrs: make(map[string][]uint16)}
	for i, p := range fn.Params {
		fr.vars[p] = args[i]
	}
	sig, ret, err := in.block(fn.Body, fr)
	if err != nil {
		return 0, false, err
	}
	return ret, sig == sigReturn, nil
}

func (in *interp) block(b *BlockStmt, fr *frameEnv) (signal, uint16, error) {
	for _, s := range b.Stmts {
		sig, ret, err := in.stmt(s, fr)
		if err != nil || sig != sigNone {
			return sig, ret, err
		}
	}
	return sigNone, 0, nil
}

func (in *interp) stmt(s Stmt, fr *frameEnv) (signal, uint16, error) {
	if err := in.tick(); err != nil {
		return sigNone, 0, err
	}
	switch st := s.(type) {
	case *BlockStmt:
		return in.block(st, fr)
	case *DeclStmt:
		d := st.Decl
		if d.ArrayLen > 0 {
			fr.arrs[d.Name] = make([]uint16, d.ArrayLen)
			return sigNone, 0, nil
		}
		v := uint16(0)
		if d.Init != nil {
			x, err := in.expr(d.Init, fr)
			if err != nil {
				return sigNone, 0, err
			}
			v = x
		}
		fr.vars[d.Name] = v
		return sigNone, 0, nil
	case *AssignStmt:
		v, err := in.expr(st.Value, fr)
		if err != nil {
			return sigNone, 0, err
		}
		if st.Index == nil {
			if _, ok := fr.vars[st.Name]; ok {
				fr.vars[st.Name] = v
			} else {
				in.globals[st.Name] = v
			}
			return sigNone, 0, nil
		}
		idx, err := in.expr(st.Index, fr)
		if err != nil {
			return sigNone, 0, err
		}
		arr := fr.arrs[st.Name]
		if arr == nil {
			arr = in.garrs[st.Name]
		}
		if int(int16(idx)) < 0 || int(int16(idx)) >= len(arr) {
			return sigNone, 0, fmt.Errorf("minic: %s: index %d out of range [0,%d)", st.Name, int16(idx), len(arr))
		}
		arr[int16(idx)] = v
		return sigNone, 0, nil
	case *IfStmt:
		c, err := in.expr(st.Cond, fr)
		if err != nil {
			return sigNone, 0, err
		}
		if c != 0 {
			return in.block(st.Then, fr)
		}
		if st.Else != nil {
			return in.block(st.Else, fr)
		}
		return sigNone, 0, nil
	case *WhileStmt:
		for {
			if err := in.tick(); err != nil {
				return sigNone, 0, err
			}
			c, err := in.expr(st.Cond, fr)
			if err != nil {
				return sigNone, 0, err
			}
			if c == 0 {
				return sigNone, 0, nil
			}
			sig, ret, err := in.block(st.Body, fr)
			if err != nil {
				return sigNone, 0, err
			}
			switch sig {
			case sigBreak:
				return sigNone, 0, nil
			case sigReturn:
				return sig, ret, nil
			}
		}
	case *ForStmt:
		if st.Init != nil {
			if sig, ret, err := in.stmt(st.Init, fr); err != nil || sig != sigNone {
				return sig, ret, err
			}
		}
		for {
			if err := in.tick(); err != nil {
				return sigNone, 0, err
			}
			if st.Cond != nil {
				c, err := in.expr(st.Cond, fr)
				if err != nil {
					return sigNone, 0, err
				}
				if c == 0 {
					return sigNone, 0, nil
				}
			}
			sig, ret, err := in.block(st.Body, fr)
			if err != nil {
				return sigNone, 0, err
			}
			switch sig {
			case sigBreak:
				return sigNone, 0, nil
			case sigReturn:
				return sig, ret, nil
			}
			if st.Post != nil {
				if sig, ret, err := in.stmt(st.Post, fr); err != nil || sig != sigNone {
					return sig, ret, err
				}
			}
		}
	case *ReturnStmt:
		if st.Value == nil {
			return sigReturn, 0, nil
		}
		v, err := in.expr(st.Value, fr)
		return sigReturn, v, err
	case *BreakStmt:
		return sigBreak, 0, nil
	case *ContinueStmt:
		return sigContinue, 0, nil
	case *ExprStmt:
		_, err := in.expr(st.X, fr)
		return sigNone, 0, err
	}
	return sigNone, 0, fmt.Errorf("minic: unknown statement %T", s)
}

func (in *interp) expr(e Expr, fr *frameEnv) (uint16, error) {
	if err := in.tick(); err != nil {
		return 0, err
	}
	switch ex := e.(type) {
	case *NumLit:
		return uint16(ex.Val), nil
	case *VarRef:
		if v, ok := fr.vars[ex.Name]; ok {
			return v, nil
		}
		return in.globals[ex.Name], nil
	case *IndexExpr:
		idx, err := in.expr(ex.Index, fr)
		if err != nil {
			return 0, err
		}
		arr := fr.arrs[ex.Name]
		if arr == nil {
			arr = in.garrs[ex.Name]
		}
		if int(int16(idx)) < 0 || int(int16(idx)) >= len(arr) {
			return 0, fmt.Errorf("minic: %s: index %d out of range [0,%d)", ex.Name, int16(idx), len(arr))
		}
		return arr[int16(idx)], nil
	case *UnExpr:
		x, err := in.expr(ex.X, fr)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case Minus:
			return -x, nil
		case Tilde:
			return ^x, nil
		case Not:
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("minic: unknown unary %v", ex.Op)
	case *BinExpr:
		// Short-circuit forms evaluate lazily.
		if ex.Op == AndAnd {
			l, err := in.expr(ex.L, fr)
			if err != nil {
				return 0, err
			}
			if l == 0 {
				return 0, nil
			}
			r, err := in.expr(ex.R, fr)
			if err != nil {
				return 0, err
			}
			return boolWord(r != 0), nil
		}
		if ex.Op == OrOr {
			l, err := in.expr(ex.L, fr)
			if err != nil {
				return 0, err
			}
			if l != 0 {
				return 1, nil
			}
			r, err := in.expr(ex.R, fr)
			if err != nil {
				return 0, err
			}
			return boolWord(r != 0), nil
		}
		l, err := in.expr(ex.L, fr)
		if err != nil {
			return 0, err
		}
		r, err := in.expr(ex.R, fr)
		if err != nil {
			return 0, err
		}
		return binOp(ex.Op, l, r)
	case *CallExpr:
		args := make([]uint16, len(ex.Args))
		for i, a := range ex.Args {
			v, err := in.expr(a, fr)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		if _, ok := Builtins[ex.Name]; ok {
			return in.builtin(ex.Name, args), nil
		}
		v, _, err := in.callFunc(in.file.Func(ex.Name), args)
		return v, err
	}
	return 0, fmt.Errorf("minic: unknown expression %T", e)
}

func (in *interp) builtin(name string, args []uint16) uint16 {
	switch name {
	case "sense":
		// The ADC saturates at its rails (mirrors the mote's SENSE).
		return isa.ClampADC(in.env.Sense())
	case "rand":
		return in.env.Rand()
	case "now":
		return in.env.Now()
	case "send":
		if in.env.Send != nil {
			in.env.Send(args[0])
		}
	case "led":
		if in.env.LED != nil {
			in.env.LED(args[0])
		}
	case "debug":
		if in.env.Debug != nil {
			in.env.Debug(args[0])
		}
	}
	return 0
}

func binOp(op Kind, l, r uint16) (uint16, error) {
	ls, rs := int16(l), int16(r)
	switch op {
	case Plus:
		return l + r, nil
	case Minus:
		return l - r, nil
	case Star:
		return uint16(ls * rs), nil
	case Slash:
		if r == 0 {
			return 0, errors.New("minic: division by zero")
		}
		return uint16(ls / rs), nil
	case Percent:
		if r == 0 {
			return 0, errors.New("minic: modulo by zero")
		}
		return uint16(ls % rs), nil
	case Amp:
		return l & r, nil
	case Pipe:
		return l | r, nil
	case Caret:
		return l ^ r, nil
	case Shl:
		return l << (r & 15), nil
	case Shr:
		// MiniC >> is arithmetic (ints are signed).
		return uint16(ls >> (r & 15)), nil
	case Lt:
		return boolWord(ls < rs), nil
	case Le:
		return boolWord(ls <= rs), nil
	case Gt:
		return boolWord(ls > rs), nil
	case Ge:
		return boolWord(ls >= rs), nil
	case EqEq:
		return boolWord(l == r), nil
	case NotEq:
		return boolWord(l != r), nil
	}
	return 0, fmt.Errorf("minic: unknown operator %v", op)
}

func boolWord(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

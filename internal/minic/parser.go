package minic

// Parser is a recursive-descent parser for MiniC.
type Parser struct {
	lex *Lexer
	tok Token // current token
	err error
}

// Parse parses a MiniC source file.
func Parse(src string) (*File, error) {
	p := &Parser{lex: NewLexer(src)}
	p.next()
	if p.err != nil {
		return nil, p.err
	}
	f := &File{}
	for p.tok.Kind != EOF {
		switch p.tok.Kind {
		case KwVar:
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			f.Globals = append(f.Globals, d)
		case KwFunc:
			fn, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		default:
			return nil, errorf(p.tok.Pos, "expected 'var' or 'func' at top level, found %s", p.tok)
		}
		if p.err != nil {
			return nil, p.err
		}
	}
	return f, nil
}

func (p *Parser) next() {
	if p.err != nil {
		return
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		p.tok = Token{Kind: EOF}
		return
	}
	p.tok = t
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.err != nil {
		return Token{}, p.err
	}
	if p.tok.Kind != k {
		return Token{}, errorf(p.tok.Pos, "expected %s, found %s", k, p.tok)
	}
	t := p.tok
	p.next()
	return t, p.err
}

func (p *Parser) accept(k Kind) bool {
	if p.err == nil && p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// varDecl := "var" IDENT ("[" NUMBER "]")? "int" ("=" expr)? ";"
func (p *Parser) varDecl() (*VarDecl, error) {
	start, err := p.expect(KwVar)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Pos: start.Pos, Name: name.Text}
	if p.accept(LBracket) {
		n, err := p.expect(NUMBER)
		if err != nil {
			return nil, err
		}
		if n.Val <= 0 {
			return nil, errorf(n.Pos, "array length must be positive, got %d", n.Val)
		}
		d.ArrayLen = n.Val
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(KwInt); err != nil {
		return nil, err
	}
	if p.accept(Assign) {
		if d.ArrayLen > 0 {
			return nil, errorf(d.Pos, "array %s cannot have an initializer", d.Name)
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return d, nil
}

// funcDecl := "func" IDENT "(" (IDENT "int" ("," IDENT "int")*)? ")" "int"? block
func (p *Parser) funcDecl() (*FuncDecl, error) {
	start, err := p.expect(KwFunc)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	fn := &FuncDecl{Pos: start.Pos, Name: name.Text}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if p.tok.Kind != RParen {
		for {
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(KwInt); err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, pn.Text)
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if p.accept(KwInt) {
		fn.HasRet = true
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) block() (*BlockStmt, error) {
	start, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Pos: start.Pos}
	for p.err == nil && p.tok.Kind != RBrace && p.tok.Kind != EOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return b, nil
}

func (p *Parser) stmt() (Stmt, error) {
	switch p.tok.Kind {
	case KwVar:
		d, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		return &DeclStmt{Decl: d}, nil
	case KwIf:
		return p.ifStmt()
	case KwWhile:
		return p.whileStmt()
	case KwFor:
		return p.forStmt()
	case KwReturn:
		start := p.tok.Pos
		p.next()
		r := &ReturnStmt{Pos: start}
		if p.tok.Kind != Semicolon {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.Value = e
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return r, nil
	case KwBreak:
		start := p.tok.Pos
		p.next()
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: start}, nil
	case KwContinue:
		start := p.tok.Pos
		p.next()
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: start}, nil
	case LBrace:
		return p.block()
	case IDENT:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, errorf(p.tok.Pos, "expected a statement, found %s", p.tok)
}

// simpleStmt parses an assignment or an expression statement starting at an
// identifier (used by statements and for-loop clauses).
func (p *Parser) simpleStmt() (Stmt, error) {
	name := p.tok
	p.next()
	switch p.tok.Kind {
	case Assign:
		p.next()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: name.Pos, Name: name.Text, Value: v}, nil
	case LBracket:
		p.next()
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBracket); err != nil {
			return nil, err
		}
		if _, err := p.expect(Assign); err != nil {
			return nil, err
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: name.Pos, Name: name.Text, Index: idx, Value: v}, nil
	case LParen:
		call, err := p.callTail(name)
		if err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: name.Pos, X: call}, nil
	}
	return nil, errorf(p.tok.Pos, "expected '=', '[' or '(' after %q, found %s", name.Text, p.tok)
}

func (p *Parser) assignClause() (*AssignStmt, error) {
	s, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	a, ok := s.(*AssignStmt)
	if !ok {
		return nil, errorf(p.tok.Pos, "for-loop clause must be an assignment")
	}
	return a, nil
}

func (p *Parser) ifStmt() (Stmt, error) {
	start, err := p.expect(KwIf)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: start.Pos, Cond: cond, Then: then}
	if p.accept(KwElse) {
		if p.tok.Kind == KwIf {
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			st.Else = &BlockStmt{Pos: p.tok.Pos, Stmts: []Stmt{nested}}
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *Parser) whileStmt() (Stmt, error) {
	start, err := p.expect(KwWhile)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: start.Pos, Cond: cond, Body: body}, nil
}

func (p *Parser) forStmt() (Stmt, error) {
	start, err := p.expect(KwFor)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	st := &ForStmt{Pos: start.Pos}
	if p.tok.Kind != Semicolon {
		init, err := p.assignClause()
		if err != nil {
			return nil, err
		}
		st.Init = init
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	if p.tok.Kind != Semicolon {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	if p.tok.Kind != RParen {
		post, err := p.assignClause()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

// Expression parsing: precedence climbing.

type precLevel struct {
	ops []Kind
}

// Precedence levels from loosest to tightest (C-like, with && above ||).
var precedence = []precLevel{
	{[]Kind{OrOr}},
	{[]Kind{AndAnd}},
	{[]Kind{Pipe}},
	{[]Kind{Caret}},
	{[]Kind{Amp}},
	{[]Kind{EqEq, NotEq}},
	{[]Kind{Lt, Le, Gt, Ge}},
	{[]Kind{Shl, Shr}},
	{[]Kind{Plus, Minus}},
	{[]Kind{Star, Slash, Percent}},
}

func (p *Parser) expr() (Expr, error) { return p.binExpr(0) }

func (p *Parser) binExpr(level int) (Expr, error) {
	if level >= len(precedence) {
		return p.unary()
	}
	left, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precedence[level].ops {
			if p.tok.Kind == op {
				pos := p.tok.Pos
				p.next()
				right, err := p.binExpr(level + 1)
				if err != nil {
					return nil, err
				}
				left = &BinExpr{Pos: pos, Op: op, L: left, R: right}
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *Parser) unary() (Expr, error) {
	switch p.tok.Kind {
	case Minus, Not, Tilde:
		pos, op := p.tok.Pos, p.tok.Kind
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Pos: pos, Op: op, X: x}, nil
	}
	return p.primary()
}

func (p *Parser) primary() (Expr, error) {
	switch p.tok.Kind {
	case NUMBER:
		t := p.tok
		p.next()
		return &NumLit{Pos: t.Pos, Val: t.Val}, nil
	case LParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		name := p.tok
		p.next()
		switch p.tok.Kind {
		case LParen:
			return p.callTail(name)
		case LBracket:
			p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			return &IndexExpr{Pos: name.Pos, Name: name.Text, Index: idx}, nil
		}
		return &VarRef{Pos: name.Pos, Name: name.Text}, nil
	}
	return nil, errorf(p.tok.Pos, "expected an expression, found %s", p.tok)
}

func (p *Parser) callTail(name Token) (*CallExpr, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	call := &CallExpr{Pos: name.Pos, Name: name.Text}
	if p.tok.Kind != RParen {
		for {
			a, err := p.expr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, a)
			if !p.accept(Comma) {
				break
			}
		}
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	return call, nil
}

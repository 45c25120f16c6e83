package minic

import (
	"fmt"
	"strings"
	"testing"
)

// lexAll tokenizes the whole input, EOF token included.
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

// mustParse parses src and panics on error.
func mustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("minic.mustParse: %v", err))
	}
	return f
}

func TestLexBasics(t *testing.T) {
	toks, err := lexAll("var x int = 0x1F; // comment\nfunc f() { }")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwVar, IDENT, KwInt, Assign, NUMBER, Semicolon, KwFunc, IDENT, LParen, RParen, LBrace, RBrace, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count = %d, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i], k)
		}
	}
	if toks[4].Val != 31 {
		t.Fatalf("hex literal = %d, want 31", toks[4].Val)
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lexAll("a << b >> c <= d >= e == f != g && h || i & j | k ^ ~m !n")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tk := range toks {
		if tk.Kind != IDENT && tk.Kind != EOF {
			kinds = append(kinds, tk.Kind)
		}
	}
	want := []Kind{Shl, Shr, Le, Ge, EqEq, NotEq, AndAnd, OrOr, Amp, Pipe, Caret, Tilde, Not}
	if len(kinds) != len(want) {
		t.Fatalf("ops = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("op %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "0x", "99999"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) accepted", src)
		}
	}
}

func TestLexBlockComment(t *testing.T) {
	toks, err := lexAll("a /* hi\nthere */ b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].Text != "b" {
		t.Fatalf("toks = %v", toks)
	}
	if toks[1].Pos.Line != 2 {
		t.Fatalf("b at line %d, want 2", toks[1].Pos.Line)
	}
}

const goodProgram = `
var threshold int = 50 + 2*25;
var buf[8] int;

func classify(x int) int {
	var y int;
	if (x > threshold && x < 900) {
		y = 1;
	} else if (x == 0) {
		y = 2;
	} else {
		y = 0;
	}
	return y;
}

func fill() {
	var i int;
	for (i = 0; i < 8; i = i + 1) {
		buf[i] = sense();
		if (buf[i] > 1000) { break; }
	}
}

func main() {
	var n int;
	n = 0;
	while (n < 10) {
		fill();
		if (classify(buf[0]) != 0) {
			send(buf[0]);
		}
		led(n & 1);
		n = n + 1;
	}
	debug(now());
}
`

func TestParseAndCheckGood(t *testing.T) {
	f, err := Parse(goodProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 2 || len(f.Funcs) != 3 {
		t.Fatalf("globals=%d funcs=%d", len(f.Globals), len(f.Funcs))
	}
	if f.Globals[1].ArrayLen != 8 {
		t.Fatalf("buf length = %d", f.Globals[1].ArrayLen)
	}
	cl := f.Func("classify")
	if cl == nil || !cl.HasRet || len(cl.Params) != 1 {
		t.Fatalf("classify signature wrong: %+v", cl)
	}
	if err := Check(f); err != nil {
		t.Fatal(err)
	}
	// The global initializer must be constant-foldable.
	v, err := EvalConst(f.Globals[0].Init)
	if err != nil || v != 100 {
		t.Fatalf("threshold init = %d, %v", v, err)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := mustParse("func main() { var x int; x = 1 + 2 * 3; }")
	asg := f.Funcs[0].Body.Stmts[1].(*AssignStmt)
	bin := asg.Value.(*BinExpr)
	if bin.Op != Plus {
		t.Fatalf("top op = %v, want +", bin.Op)
	}
	if inner, ok := bin.R.(*BinExpr); !ok || inner.Op != Star {
		t.Fatalf("rhs = %#v, want multiplication", bin.R)
	}
}

func TestParseLogicalPrecedence(t *testing.T) {
	f := mustParse("func main() { var x int; x = 1 || 2 && 3; }")
	asg := f.Funcs[0].Body.Stmts[1].(*AssignStmt)
	bin := asg.Value.(*BinExpr)
	if bin.Op != OrOr {
		t.Fatalf("top op = %v, want ||", bin.Op)
	}
}

func TestParseElseIfChain(t *testing.T) {
	f := mustParse(`func main() { var x int; if (x == 1) { x = 1; } else if (x == 2) { x = 2; } else { x = 3; } }`)
	ifs := f.Funcs[0].Body.Stmts[1].(*IfStmt)
	if ifs.Else == nil {
		t.Fatal("else missing")
	}
	nested, ok := ifs.Else.Stmts[0].(*IfStmt)
	if !ok || nested.Else == nil {
		t.Fatal("else-if chain not nested")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"func",
		"var x;",
		"var x int",
		"var a[0] int;",
		"var a[4] int = 3;",
		"func f( { }",
		"func f() { if x { } }",
		"func f() { x = ; }",
		"func f() { 3; }",
		"garbage",
		"func f() { for (break;;) {} }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	bad := map[string]string{
		"no main":          `func f() { }`,
		"main params":      `func main(x int) { }`,
		"undeclared var":   `func main() { x = 1; }`,
		"undeclared call":  `func main() { f(); }`,
		"arity":            `func f(a int) { } func main() { f(); }`,
		"void as value":    `func f() { } func main() { var x int; x = f(); }`,
		"scalar as array":  `var x int; func main() { x[0] = 1; }`,
		"array as scalar":  `var a[4] int; func main() { a = 1; }`,
		"dup global":       `var x int; var x int; func main() { }`,
		"dup local":        `func main() { var x int; var x int; }`,
		"dup param":        `func f(a int, a int) { } func main() { }`,
		"break outside":    `func main() { break; }`,
		"continue outside": `func main() { continue; }`,
		"missing return":   `func f() int { var x int; x = 1; } func main() { }`,
		"return value":     `func f() { return 3; } func main() { f(); }`,
		"return void":      `func f() int { return; } func main() { }`,
		"builtin arity":    `func main() { send(); }`,
		"builtin as value": `func main() { var x int; x = led(1); }`,
		"shadow builtin":   `func sense() int { return 0; } func main() { }`,
		"nonconst global":  `var x int = sense(); func main() { }`,
	}
	for name, src := range bad {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("%s: parse error %v (should fail in Check)", name, err)
			continue
		}
		if err := Check(f); err == nil {
			t.Errorf("%s: Check accepted %q", name, src)
		}
	}
}

func TestCheckIfWithoutElseReturn(t *testing.T) {
	// if-without-else cannot satisfy the must-return rule.
	src := `func f(x int) int { if (x > 0) { return 1; } } func main() { }`
	f := mustParse(src)
	if err := Check(f); err == nil {
		t.Fatal("accepted function whose control can reach the end")
	}
	// With both sides returning it must pass.
	src2 := `func f(x int) int { if (x > 0) { return 1; } else { return 0; } } func main() { }`
	if err := Check(mustParse(src2)); err != nil {
		t.Fatal(err)
	}
}

func TestEvalConst(t *testing.T) {
	cases := map[string]int{
		"1+2":      3,
		"2*3-1":    5,
		"~0 & 255": 255,
		"1 << 4":   16,
		"-5":       -5,
		"!0":       1,
		"!7":       0,
		"7 % 3":    1,
		"8 / 2":    4,
		"6 ^ 3":    5,
		"6 | 1":    7,
	}
	for src, want := range cases {
		f := mustParse("var g int = " + src + "; func main() { }")
		v, err := EvalConst(f.Globals[0].Init)
		if err != nil {
			t.Errorf("EvalConst(%q): %v", src, err)
			continue
		}
		if v != want {
			t.Errorf("EvalConst(%q) = %d, want %d", src, v, want)
		}
	}
	for _, src := range []string{"1/0", "5%0"} {
		f := mustParse("var g int = " + src + "; func main() { }")
		if _, err := EvalConst(f.Globals[0].Init); err == nil {
			t.Errorf("EvalConst(%q) accepted", src)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Parse("func main() {\n  x = ;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error %q lacks line info", err)
	}
}

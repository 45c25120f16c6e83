package minic

import (
	"fmt"
	"strconv"
)

// Error is a positioned front-end diagnostic.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errorf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Lexer turns MiniC source text into tokens.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errorf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && (isIdentStart(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil

	case isDigit(c):
		start := l.off
		base := 10
		if c == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			l.advance()
			l.advance()
			base = 16
			start = l.off
			for l.off < len(l.src) && isHexDigit(l.peek()) {
				l.advance()
			}
			if l.off == start {
				return Token{}, errorf(pos, "malformed hex literal")
			}
		} else {
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		v, err := strconv.ParseInt(text, base, 64)
		if err != nil {
			return Token{}, errorf(pos, "malformed number %q", text)
		}
		if v > 0xFFFF {
			return Token{}, errorf(pos, "literal %d exceeds 16 bits", v)
		}
		return Token{Kind: NUMBER, Text: text, Val: int(v), Pos: pos}, nil
	}

	// Operators and punctuation.
	two := func(k Kind) (Token, error) {
		l.advance()
		l.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	one := func(k Kind) (Token, error) {
		l.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	switch c {
	case '(':
		return one(LParen)
	case ')':
		return one(RParen)
	case '{':
		return one(LBrace)
	case '}':
		return one(RBrace)
	case '[':
		return one(LBracket)
	case ']':
		return one(RBracket)
	case ',':
		return one(Comma)
	case ';':
		return one(Semicolon)
	case '+':
		return one(Plus)
	case '-':
		return one(Minus)
	case '*':
		return one(Star)
	case '/':
		return one(Slash)
	case '%':
		return one(Percent)
	case '^':
		return one(Caret)
	case '~':
		return one(Tilde)
	case '&':
		if l.peek2() == '&' {
			return two(AndAnd)
		}
		return one(Amp)
	case '|':
		if l.peek2() == '|' {
			return two(OrOr)
		}
		return one(Pipe)
	case '<':
		if l.peek2() == '<' {
			return two(Shl)
		}
		if l.peek2() == '=' {
			return two(Le)
		}
		return one(Lt)
	case '>':
		if l.peek2() == '>' {
			return two(Shr)
		}
		if l.peek2() == '=' {
			return two(Ge)
		}
		return one(Gt)
	case '=':
		if l.peek2() == '=' {
			return two(EqEq)
		}
		return one(Assign)
	case '!':
		if l.peek2() == '=' {
			return two(NotEq)
		}
		return one(Not)
	}
	return Token{}, errorf(pos, "unexpected character %q", string(c))
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

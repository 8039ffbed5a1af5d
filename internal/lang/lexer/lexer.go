// Package lexer tokenizes MiniJava-style source text.
package lexer

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"thinslice/internal/lang/token"
)

// Error is a lexical error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans a source buffer into tokens. Comments are skipped.
type Lexer struct {
	file   string
	src    string
	off    int // byte offset of current rune
	line   int
	col    int
	errors []*Error
}

// New returns a lexer over src, reporting positions in file.
func New(file, src string) *Lexer {
	// Normalize line endings so positions are stable across platforms.
	src = strings.ReplaceAll(src, "\r\n", "\n")
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Errors returns lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errors }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{File: l.file, Line: l.line, Col: l.col}
}

// peek returns the current rune without consuming it, or -1 at EOF.
// Source text is overwhelmingly ASCII, so the single-byte case skips
// UTF-8 decoding entirely (it shows up in whole-pipeline profiles).
func (l *Lexer) peek() rune {
	if l.off >= len(l.src) {
		return -1
	}
	if c := l.src[l.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

// peek2 returns the rune after the current one, or -1.
func (l *Lexer) peek2() rune {
	if l.off >= len(l.src) {
		return -1
	}
	w := 1
	if l.src[l.off] >= utf8.RuneSelf {
		_, w = utf8.DecodeRuneInString(l.src[l.off:])
	}
	if l.off+w >= len(l.src) {
		return -1
	}
	if c := l.src[l.off+w]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.off+w:])
	return r
}

func (l *Lexer) next() rune {
	if l.off >= len(l.src) {
		return -1
	}
	var r rune
	if c := l.src[l.off]; c < utf8.RuneSelf {
		r = rune(c)
		l.off++
	} else {
		var w int
		r, w = utf8.DecodeRuneInString(l.src[l.off:])
		l.off += w
	}
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func isLetter(r rune) bool {
	return r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') ||
		(r >= utf8.RuneSelf && unicode.IsLetter(r))
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

func (l *Lexer) skipSpaceAndComments() {
	for {
		r := l.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\n' || r == '\r':
			l.next()
		case r == '/' && l.peek2() == '/':
			for l.peek() != '\n' && l.peek() != -1 {
				l.next()
			}
		case r == '/' && l.peek2() == '*':
			start := l.pos()
			l.next()
			l.next()
			closed := false
			for l.peek() != -1 {
				if l.peek() == '*' && l.peek2() == '/' {
					l.next()
					l.next()
					closed = true
					break
				}
				l.next()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next scans and returns the next token. At end of input it returns EOF
// tokens forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	off := l.off
	kind := l.scan(pos)
	return token.Token{Kind: kind, Line: int32(pos.Line), Col: int32(pos.Col), Off: int32(off), End: int32(l.off)}
}

// scan consumes one token starting at pos and returns its kind.
func (l *Lexer) scan(pos token.Pos) token.Kind {
	r := l.peek()
	switch {
	case r == -1:
		return token.EOF
	case isLetter(r):
		start := l.off
		for isLetter(l.peek()) || isDigit(l.peek()) {
			l.next()
		}
		return token.Lookup(l.src[start:l.off])
	case isDigit(r):
		for isDigit(l.peek()) {
			l.next()
		}
		if isLetter(l.peek()) {
			l.errorf(pos, "identifier cannot start with a digit")
		}
		return token.INT
	case r == '"':
		l.scanString(pos, nil)
		return token.STRING
	case r == '\'':
		l.scanChar(pos)
		return token.CHAR
	}
	l.next()
	two := func(second rune, twoKind, oneKind token.Kind) token.Kind {
		if l.peek() == second {
			l.next()
			return twoKind
		}
		return oneKind
	}
	switch r {
	case '+':
		if l.peek() == '+' {
			l.next()
			return token.INCR
		}
		return two('=', token.PLUSEQ, token.ADD)
	case '-':
		if l.peek() == '-' {
			l.next()
			return token.DECR
		}
		return two('=', token.MINUSEQ, token.SUB)
	case '*':
		return token.MUL
	case '/':
		return token.QUO
	case '%':
		return token.REM
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '<':
		return two('=', token.LEQ, token.LSS)
	case '>':
		return two('=', token.GEQ, token.GTR)
	case '&':
		if l.peek() == '&' {
			l.next()
			return token.LAND
		}
		l.errorf(pos, "unexpected character %q (did you mean &&?)", r)
		return token.ILLEGAL
	case '|':
		if l.peek() == '|' {
			l.next()
			return token.LOR
		}
		l.errorf(pos, "unexpected character %q (did you mean ||?)", r)
		return token.ILLEGAL
	case '(':
		return token.LPAREN
	case ')':
		return token.RPAREN
	case '{':
		return token.LBRACE
	case '}':
		return token.RBRACE
	case '[':
		return token.LBRACK
	case ']':
		return token.RBRACK
	case ',':
		return token.COMMA
	case ';':
		return token.SEMI
	case '.':
		return token.DOT
	}
	l.errorf(pos, "unexpected character %q", r)
	return token.ILLEGAL
}

// scanString consumes a string literal from its opening quote through
// its closing quote, or up to the end of its line when unterminated.
// When val is non-nil it also receives the literal's decoded value.
func (l *Lexer) scanString(pos token.Pos, val *strings.Builder) {
	l.next() // opening quote
	for {
		r := l.peek()
		switch r {
		case -1, '\n':
			l.errorf(pos, "unterminated string literal")
			return
		case '"':
			l.next()
			return
		case '\\':
			l.next()
			r = l.unescape(pos)
		default:
			l.next()
		}
		if val != nil {
			val.WriteRune(r)
		}
	}
}

// scanChar consumes a character literal and returns its value; ok is
// false when the literal ends before its first character.
func (l *Lexer) scanChar(pos token.Pos) (val rune, ok bool) {
	l.next() // opening quote
	switch r := l.peek(); r {
	case -1, '\n':
		l.errorf(pos, "unterminated character literal")
		return 0, false
	case '\\':
		l.next()
		val = l.unescape(pos)
	default:
		l.next()
		val = r
	}
	if l.peek() != '\'' {
		l.errorf(pos, "unterminated character literal")
	} else {
		l.next()
	}
	return val, true
}

func (l *Lexer) unescape(pos token.Pos) rune {
	r := l.next()
	switch r {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '\\':
		return '\\'
	case '"':
		return '"'
	case '\'':
		return '\''
	case '0':
		return 0
	}
	l.errorf(pos, "invalid escape sequence \\%c", r)
	return r
}

// Lit returns the literal text of t, a token that ScanAll scanned from
// the normalized source src: the spelling of an identifier, keyword or
// integer, the decoded value of a string or character literal, and the
// character of an ILLEGAL token. Other kinds have none. A string body
// without escapes that is valid UTF-8 is returned as a substring of src
// without copying; every other literal decodes exactly as the lexer
// reads it, an invalid UTF-8 byte becoming U+FFFD.
func Lit(src string, t token.Token) string {
	text := src[t.Off:t.End]
	switch {
	case t.Kind == token.IDENT || t.Kind == token.INT || t.Kind.IsKeyword():
		return text
	case t.Kind == token.ILLEGAL:
		r, _ := utf8.DecodeRuneInString(text)
		return string(r)
	case t.Kind != token.STRING && t.Kind != token.CHAR:
		return ""
	}
	if body := text[1:]; t.Kind == token.STRING && strings.IndexByte(body, '\\') < 0 && utf8.ValidString(body) {
		// Without escapes the only quote in the body is the closing one.
		return strings.TrimSuffix(body, `"`)
	}
	// Rescan the literal alone; the lexer already reported its errors.
	l := &Lexer{src: src[:t.End], off: int(t.Off), line: 1, col: 1}
	if t.Kind == token.CHAR {
		if val, ok := l.scanChar(token.Pos{}); ok {
			return string(val)
		}
		return ""
	}
	var val strings.Builder
	l.scanString(token.Pos{}, &val)
	return val.String()
}

// maxSource is the largest source, in bytes, whose token offsets fit
// in a Token's int32 fields.
var maxSource = math.MaxInt32

// ScanAll tokenizes the entire input, excluding the trailing EOF token.
// It returns the CRLF-normalized source that the tokens' offsets index
// (pass it to Lit). A source of 2 GiB or more is rejected with one error
// and no tokens.
func ScanAll(file, src string) (string, []token.Token, []*Error) {
	if len(src) > maxSource {
		return "", nil, []*Error{{Pos: token.Pos{File: file, Line: 1, Col: 1}, Msg: fmt.Sprintf("source of %d bytes exceeds the %d-byte limit", len(src), maxSource)}}
	}
	l := New(file, src)
	// Dense machine-written source runs about 3.6 bytes per token, so
	// /3 gives every realistic input a single allocation that holds the
	// whole stream.
	toks := make([]token.Token, 0, len(src)/3+16)
	for {
		t := l.Next()
		if t.Kind == token.EOF {
			return l.src, toks, l.Errors()
		}
		toks = append(toks, t)
	}
}

package lexer

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"thinslice/internal/lang/token"
)

// lits returns each token's literal text.
func lits(src string, toks []token.Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = Lit(src, t)
	}
	return out
}

func kinds(toks []token.Token) []token.Kind {
	out := make([]token.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	src := `class Foo extends Bar { int x; }`
	_, toks, errs := ScanAll("t.mj", src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []token.Kind{
		token.CLASS, token.IDENT, token.EXTENDS, token.IDENT,
		token.LBRACE, token.INTK, token.IDENT, token.SEMI, token.RBRACE,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestOperators(t *testing.T) {
	src := `+ - * / % && || ! == != < <= > >= = ++ -- += -=`
	_, toks, errs := ScanAll("t.mj", src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []token.Kind{
		token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.LAND, token.LOR, token.NOT,
		token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
		token.ASSIGN, token.INCR, token.DECR, token.PLUSEQ, token.MINUSEQ,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestStringLiteral(t *testing.T) {
	src, toks, errs := ScanAll("t.mj", "\"hello \\\"world\\\"\\n\" \"plain\" \"caf\u00e9\" \"bad\xff\"")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(toks) != 4 || toks[0].Kind != token.STRING {
		t.Fatalf("got %v", toks)
	}
	// Escapes decode; a plain body is the source text without its
	// quotes; an invalid UTF-8 byte decodes to U+FFFD, as it scans.
	want := []string{"hello \"world\"\n", "plain", "caf\u00e9", "bad\uFFFD"}
	got := lits(src, toks)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("string %d = %q, want %q", i, got[i], want[i])
		}
	}
	if unsafe.StringData(got[1]) != unsafe.StringData(src[toks[1].Off+1:]) {
		t.Error("a plain string body was copied, not sliced from the source")
	}
}

func TestCharLiteral(t *testing.T) {
	src, toks, errs := ScanAll("t.mj", `'a' '\n' ' '`)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(toks) != 3 {
		t.Fatalf("got %d tokens", len(toks))
	}
	wantLits := []string{"a", "\n", " "}
	for i, w := range wantLits {
		if lit := Lit(src, toks[i]); toks[i].Kind != token.CHAR || lit != w {
			t.Errorf("token %d: got %v lit=%q, want CHAR %q", i, toks[i].Kind, lit, w)
		}
	}
}

func TestComments(t *testing.T) {
	src := "x // line comment\r\n/* block\ncomment */ y"
	norm, toks, errs := ScanAll("t.mj", src)
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(toks) != 2 || Lit(norm, toks[0]) != "x" || Lit(norm, toks[1]) != "y" {
		t.Fatalf("got %v", toks)
	}
	if toks[1].Line != 3 {
		t.Errorf("y at line %d, want 3", toks[1].Line)
	}
}

func TestPositions(t *testing.T) {
	// Columns count runes, not bytes.
	src := "a\n  bb\n    ccc\néé dd"
	_, toks, _ := ScanAll("f.mj", src)
	wantPos := []struct{ line, col, off, end int32 }{{1, 1, 0, 1}, {2, 3, 4, 6}, {3, 5, 11, 14}, {4, 1, 15, 19}, {4, 4, 20, 22}}
	for i, w := range wantPos {
		if tk := toks[i]; tk.Line != w.line || tk.Col != w.col || tk.Off != w.off || tk.End != w.end {
			t.Errorf("token %d at %d:%d [%d,%d), want %d:%d [%d,%d)", i, tk.Line, tk.Col, tk.Off, tk.End, w.line, w.col, w.off, w.end)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	src, toks, errs := ScanAll("t.mj", "\"abc\n\"a\\\"")
	if len(errs) != 2 {
		t.Fatalf("want 2 unterminated-string errors, got %v", errs)
	}
	// Each literal holds what was read before its line or the input
	// ended; the second ends on an escaped quote.
	if got := lits(src, toks); len(got) != 2 || got[0] != "abc" || got[1] != "a\"" {
		t.Errorf("literals %q", got)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, _, errs := ScanAll("t.mj", `/* abc`)
	if len(errs) == 0 {
		t.Fatal("expected an error for unterminated comment")
	}
}

func TestIllegalCharacter(t *testing.T) {
	src, toks, errs := ScanAll("t.mj", "x # y \xff")
	if len(errs) != 2 {
		t.Fatalf("want 2 illegal-character errors, got %v", errs)
	}
	if len(toks) != 4 || toks[1].Kind != token.ILLEGAL || toks[3].Kind != token.ILLEGAL {
		t.Fatalf("got %v", toks)
	}
	// An ILLEGAL token's literal is its decoded character.
	if got := lits(src, toks); got[1] != "#" || got[3] != "\uFFFD" {
		t.Errorf("literals %q", got)
	}
}

func TestSingleAmpersandAndPipe(t *testing.T) {
	_, _, errs := ScanAll("t.mj", `a & b | c`)
	if len(errs) != 2 {
		t.Fatalf("want 2 errors, got %v", errs)
	}
}

func TestKeywordsNotIdents(t *testing.T) {
	for _, kw := range []string{"class", "while", "instanceof", "null", "this", "new", "assert"} {
		src, toks, _ := ScanAll("t.mj", kw)
		if len(toks) != 1 || toks[0].Kind == token.IDENT || Lit(src, toks[0]) != kw {
			t.Errorf("%q lexed as %v, want keyword", kw, toks)
		}
	}
	// Prefix of a keyword is an identifier.
	src, toks, _ := ScanAll("t.mj", "classy whiled nullx")
	for _, tok := range toks {
		if tok.Kind != token.IDENT {
			t.Errorf("%q lexed as %v, want IDENT", Lit(src, tok), tok.Kind)
		}
	}
}

func TestDigitPrefixedIdentRejected(t *testing.T) {
	_, _, errs := ScanAll("t.mj", "123abc")
	if len(errs) == 0 {
		t.Fatal("expected error for digit-prefixed identifier")
	}
}

// Property: lexing never panics and always terminates on arbitrary input.
func TestLexerTotalOnArbitraryInput(t *testing.T) {
	f := func(s string) bool {
		norm, toks, _ := ScanAll("t.mj", s)
		for _, tok := range toks {
			if tok.Kind == token.EOF {
				return false // EOF must not appear in ScanAll output
			}
			if tok.Off < 0 || tok.Off >= tok.End || int(tok.End) > len(norm) {
				return false // every token spans source bytes
			}
			Lit(norm, tok)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: for identifier-and-space-only inputs, the concatenation of
// literals equals the input with spaces removed.
func TestLexerPreservesIdentText(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			var b strings.Builder
			for _, r := range w {
				if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
					b.WriteRune(r)
				}
			}
			if b.Len() > 0 && token.Lookup(b.String()) == token.IDENT {
				clean = append(clean, b.String())
			}
		}
		src := strings.Join(clean, " ")
		norm, toks, errs := ScanAll("t.mj", src)
		if len(errs) != 0 || len(toks) != len(clean) {
			return false
		}
		for i, tok := range toks {
			if Lit(norm, tok) != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEOFIsSticky(t *testing.T) {
	l := New("t.mj", "x")
	l.Next()
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d: got %v, want EOF", i, tok)
		}
	}
}

func TestSourceSizeLimit(t *testing.T) {
	defer func(n int) { maxSource = n }(maxSource)
	maxSource = 8
	if _, toks, errs := ScanAll("big.mj", "class A {}"); len(toks) != 0 || len(errs) != 1 ||
		errs[0].Error() != "big.mj:1:1: source of 10 bytes exceeds the 8-byte limit" {
		t.Fatalf("oversized source: %d tokens, errors %v", len(toks), errs)
	}
	if _, toks, errs := ScanAll("ok.mj", "class A"); len(toks) != 2 || len(errs) != 0 {
		t.Fatalf("source at the limit: %d tokens, errors %v", len(toks), errs)
	}
}

func TestTokenIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(token.Token{}); size != 24 {
		t.Errorf("token.Token is %d bytes, want 24", size)
	}
}

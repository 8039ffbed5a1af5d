package token

import (
	"testing"
	"testing/quick"
)

func TestLookupKeywords(t *testing.T) {
	cases := map[string]Kind{
		"class": CLASS, "extends": EXTENDS, "static": STATIC, "final": FINAL,
		"void": VOID, "int": INTK, "boolean": BOOLK, "string": STRK,
		"if": IF, "else": ELSE, "while": WHILE, "for": FOR, "return": RETURN,
		"new": NEW, "this": THIS, "super": SUPER, "null": NULL,
		"true": TRUE, "false": FALSE, "throw": THROW, "assert": ASSERT,
		"instanceof": INSTANCEOF, "break": BREAK, "continue": CONTINUE,
	}
	for lit, want := range cases {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
	for _, nonKw := range []string{"Class", "foo", "INT", "whileX", ""} {
		if got := Lookup(nonKw); got != IDENT {
			t.Errorf("Lookup(%q) = %v, want IDENT", nonKw, got)
		}
	}
}

func TestKeywordStringsRoundTrip(t *testing.T) {
	// Every keyword's String() must Lookup back to itself.
	for k := kwStart + 1; k < kwEnd; k++ {
		if got := Lookup(k.String()); got != k {
			t.Errorf("Lookup(%s.String()) = %v", k, got)
		}
		if !k.IsKeyword() {
			t.Errorf("%s should be a keyword", k)
		}
	}
	if IDENT.IsKeyword() || ADD.IsKeyword() {
		t.Error("non-keywords classified as keywords")
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// ||  <  &&  <  ==  <  <  <  +  <  *
	chain := []Kind{LOR, LAND, EQL, LSS, ADD, MUL}
	for i := 1; i < len(chain); i++ {
		if chain[i-1].Precedence() >= chain[i].Precedence() {
			t.Errorf("%s should bind looser than %s", chain[i-1], chain[i])
		}
	}
	if ASSIGN.Precedence() != 0 || LPAREN.Precedence() != 0 {
		t.Error("non-binary tokens must have precedence 0")
	}
	if INSTANCEOF.Precedence() != LSS.Precedence() {
		t.Error("instanceof binds like a comparison")
	}
}

func TestPosString(t *testing.T) {
	p := Pos{File: "a.mj", Line: 3, Col: 7}
	if p.String() != "a.mj:3:7" {
		t.Errorf("got %q", p.String())
	}
	if (Pos{Line: 2, Col: 1}).String() != "2:1" {
		t.Error("file-less position formatting wrong")
	}
	if (Pos{}).IsValid() {
		t.Error("zero position must be invalid")
	}
	if !p.IsValid() {
		t.Error("real position must be valid")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Line: 3, Col: 7, Off: 40, End: 43}
	if tok.String() != "IDENT@3:7" {
		t.Errorf("got %q", tok.String())
	}
	if got := (Token{Kind: WHILE, Line: 1, Col: 1}).String(); got != "while@1:1" {
		t.Errorf("got %q", got)
	}
}

// Property: Kind.String never panics or returns empty for the range of
// defined kinds plus some garbage values.
func TestKindStringTotal(t *testing.T) {
	f := func(raw int8) bool {
		k := Kind(raw)
		return k.String() != ""
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

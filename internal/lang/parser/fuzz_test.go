package parser_test

import (
	"testing"

	"thinslice/internal/ir"
	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/lexer"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/types"
	"thinslice/internal/papercases"
)

// FuzzFrontEnd feeds arbitrary bytes to ParseFile, checks what parses
// and lowers what checks. Nothing may panic, every token must lie
// inside the source, and every method body's expression IDs must be
// distinct and below its NumExprs (and exactly 0 to NumExprs-1 when the
// file parses). testdata/fuzz/FuzzFrontEnd holds its seed corpus; the
// programs below are seeds too.
func FuzzFrontEnd(f *testing.F) {
	for _, src := range []string{
		papercases.Toy,
		papercases.ToughCast,
		"class A { int f; void m(int x) { x += 1; x++; this.f = -x; } }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		norm, toks, _ := lexer.ScanAll("f.mj", src)
		for _, tok := range toks {
			if tok.Off < 0 || tok.Off > tok.End || int(tok.End) > len(norm) {
				t.Fatalf("token %v spans [%d, %d) of a %d-byte source", tok, tok.Off, tok.End, len(norm))
			}
			lexer.Lit(norm, tok)
		}
		classes, err := parser.ParseFile("f.mj", src)
		for _, c := range classes {
			for _, m := range c.Methods {
				checkExprIDs(t, m, err == nil)
			}
		}
		if err != nil {
			return
		}
		info, err := types.Check(&ast.Program{Classes: classes})
		if err != nil {
			return
		}
		ir.Lower(info)
	})
}

// checkExprIDs asserts that m's expression nodes have distinct IDs
// below m.NumExprs, and with dense set that they number 0 to
// NumExprs-1.
func checkExprIDs(t *testing.T, m *ast.MethodDecl, dense bool) {
	t.Helper()
	seen := make(map[int32]ast.Expr)
	ast.Walk(m.Body, func(n ast.Node) {
		e, ok := n.(ast.Expr)
		if !ok {
			return
		}
		id := e.ExprID()
		if id < 0 || id >= m.NumExprs {
			t.Fatalf("%s: %s: %T has ExprID %d, body has %d", m.Name, e.Pos(), e, id, m.NumExprs)
		}
		if prev, dup := seen[id]; dup && prev != e {
			t.Fatalf("%s: %s and %s share ExprID %d", m.Name, prev.Pos(), e.Pos(), id)
		}
		seen[id] = e
	})
	if dense && int32(len(seen)) != m.NumExprs {
		t.Fatalf("%s: %d expressions for NumExprs %d", m.Name, len(seen), m.NumExprs)
	}
}

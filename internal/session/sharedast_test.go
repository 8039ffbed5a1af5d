package session_test

import (
	"fmt"
	"sync"
	"testing"

	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/types"
	"thinslice/internal/session"
)

// TestSharedFileResolvesPerProgram checks two programs concurrently
// that share one parsed file through one store, and the prelude through
// the process-wide cache, but resolve them differently: each declares
// its own class X, so x.g() and x.k in the shared file name different
// methods and fields. Each Info's facts for the shared bodies must
// point at its own MethodInfos, FieldInfos and ClassInfos, because the
// facts live in the Info and never in the AST.
func TestSharedFileResolvesPerProgram(t *testing.T) {
	shared := "class User {\n  int use(X x) { Vector v = new Vector(); v.add(x); return x.g() + x.k; }\n}\n"
	progs := []map[string]string{
		{"shared.mj": shared, "x.mj": "class X { int k; int g() { return 1; } }"},
		{"shared.mj": shared, "x.mj": "class Base { int k; int g() { return 2; } }\nclass X extends Base { }"},
	}
	st := session.NewStore()
	for round := 0; round < 4; round++ {
		infos := make([]*types.Info, len(progs))
		errs := make([]error, len(progs))
		var wg sync.WaitGroup
		for i := range progs {
			// A fresh x.mj each round makes both programs check again,
			// over the shared.mj the store parsed in round 0.
			srcs := map[string]string{"shared.mj": progs[i]["shared.mj"], "x.mj": fmt.Sprintf("// round %d\n%s", round, progs[i]["x.mj"])}
			wg.Add(1)
			go func() {
				defer wg.Done()
				infos[i], errs[i] = session.Open(srcs, session.InStore(st)).Info()
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
		}
		user := infos[0].Classes["User"].Decl
		if infos[1].Classes["User"].Decl != user || infos[1].Classes["Vector"].Decl != infos[0].Classes["Vector"].Decl {
			t.Fatal("the programs do not share the parsed shared.mj and prelude")
		}
		for i, info := range infos {
			x := info.Classes["X"]
			var sawCall, sawField bool
			for _, mi := range info.MethodOfDecl {
				assertOwnFacts(t, info, mi)
				if mi.Decl.Name != "use" {
					continue
				}
				body := info.Body(mi)
				ast.Walk(mi.Decl.Body, func(n ast.Node) {
					switch n := n.(type) {
					case *ast.Call:
						if n.Name == "g" {
							sawCall = true
							if got := body.Call(n).Method; got != x.LookupMethod("g") {
								t.Errorf("program %d: x.g() resolves to %s of another program", i, got.QualifiedName())
							}
						}
					case *ast.FieldAccess:
						sawField = true
						if got := body.Field(n); got != x.LookupField("k") {
							t.Errorf("program %d: x.k resolves to %s of another program", i, got.QualifiedName())
						}
					}
				})
			}
			if !sawCall || !sawField {
				t.Fatalf("program %d: shared body not walked (call %v, field %v)", i, sawCall, sawField)
			}
		}
	}
}

// assertOwnFacts checks that every class, method and field the facts
// of mi's body name belongs to info.
func assertOwnFacts(t *testing.T, info *types.Info, mi *types.MethodInfo) {
	t.Helper()
	own := func(ci *types.ClassInfo) bool { return ci != nil && info.Classes[ci.Name] == ci }
	body := info.Body(mi)
	ast.Walk(mi.Decl.Body, func(n ast.Node) {
		e, ok := n.(ast.Expr)
		if !ok {
			return
		}
		if c, ok := body.TypeOf(e).(*types.Class); ok && !own(c.Info) {
			t.Errorf("%s: type of %T is class %s of another program", e.Pos(), e, c.Info.Name)
		}
		switch e := e.(type) {
		case *ast.Ident:
			if r := body.Ref(e); r != nil && ((r.Field != nil && !own(r.Field.Owner)) || (r.Class != nil && !own(r.Class))) {
				t.Errorf("%s: %s resolves into another program", e.Pos(), e.Name)
			}
		case *ast.FieldAccess:
			if f := body.Field(e); f != nil && !own(f.Owner) {
				t.Errorf("%s: field %s of another program", e.Pos(), f.QualifiedName())
			}
		case *ast.Call:
			if c := body.Call(e); c != nil && c.Method != nil && !own(c.Method.Owner) {
				t.Errorf("%s: call to %s of another program", e.Pos(), c.Method.QualifiedName())
			}
		}
	})
}

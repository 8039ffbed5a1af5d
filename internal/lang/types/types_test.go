package types_test

import (
	"strings"
	"testing"

	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/types"
)

func check(t *testing.T, src string) (*types.Info, error) {
	t.Helper()
	prog, err := parser.ParseProgram(map[string]string{"t.mj": src})
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return types.Check(prog)
}

func mustCheck(t *testing.T, src string) *types.Info {
	t.Helper()
	info, err := check(t, src)
	if err != nil {
		t.Fatalf("check error: %v", err)
	}
	return info
}

// calls returns the checker's resolution of every resolved call in
// info's method bodies.
func calls(info *types.Info) map[*ast.Call]*types.CallInfo {
	out := map[*ast.Call]*types.CallInfo{}
	for _, mi := range info.MethodOfDecl {
		body := info.Body(mi)
		ast.Walk(mi.Decl.Body, func(n ast.Node) {
			if call, ok := n.(*ast.Call); ok && body.Call(call) != nil {
				out[call] = body.Call(call)
			}
		})
	}
	return out
}

func wantError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", fragment)
	}
	found := false
	for _, e := range err.(types.ErrorList) {
		if strings.Contains(e.Msg, fragment) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected error containing %q, got: %v", fragment, err)
	}
}

func TestHierarchyAndPredeclared(t *testing.T) {
	info := mustCheck(t, `
		class A { }
		class B extends A { }
	`)
	a, b := info.Classes["A"], info.Classes["B"]
	if a == nil || b == nil {
		t.Fatal("classes missing")
	}
	if b.Super != a || a.Super != info.Object {
		t.Error("bad hierarchy")
	}
	if !b.IsSubclassOf(info.Object) || a.IsSubclassOf(b) {
		t.Error("IsSubclassOf wrong")
	}
	if info.String.Super != info.Object {
		t.Error("String should extend Object")
	}
}

func TestUndeclaredSuper(t *testing.T) {
	wantError(t, `class A extends Zzz { }`, "undeclared class Zzz")
}

func TestInheritanceCycle(t *testing.T) {
	wantError(t, `class A extends B { } class B extends A { }`, "cycle")
}

func TestFieldInheritance(t *testing.T) {
	info := mustCheck(t, `
		class A { int x; }
		class B extends A { void m() { this.x = 1; } }
	`)
	b := info.Classes["B"]
	f := b.LookupField("x")
	if f == nil || f.Owner.Name != "A" {
		t.Fatalf("field lookup through super failed: %+v", f)
	}
}

func TestMethodOverrideOK(t *testing.T) {
	mustCheck(t, `
		class A { int m(int x) { return x; } }
		class B extends A { int m(int x) { return x + 1; } }
	`)
}

func TestMethodOverrideBadSignature(t *testing.T) {
	wantError(t, `
		class A { int m(int x) { return x; } }
		class B extends A { boolean m(int x) { return true; } }
	`, "different signature")
}

func TestAssignability(t *testing.T) {
	mustCheck(t, `
		class A { }
		class B extends A {
			void m() {
				A a = new B();
				Object o = a;
				o = null;
				Object[] arr = new B[3];
				arr[0] = new B();
			}
		}
	`)
	wantError(t, `
		class A { } class B extends A { }
		class C { void m() { B b = new A(); } }
	`, "cannot initialize")
}

func TestNullComparableToRefs(t *testing.T) {
	mustCheck(t, `
		class A { void m(A p) { if (p == null) { return; } } }
	`)
}

func TestCastRules(t *testing.T) {
	mustCheck(t, `
		class A { } class B extends A {
			void m(Object o, A a) {
				B b = (B) a;
				A up = (A) b;
				B[] arr = (B[]) o;
				string s = (string) o;
			}
		}
	`)
	wantError(t, `
		class A { } class B { }
		class C { void m(A a) { B b = (B) a; } }
	`, "impossible cast")
	wantError(t, `
		class C { void m(int x) { C c = (C) x; } }
	`, "impossible cast")
}

func TestInstanceofChecks(t *testing.T) {
	mustCheck(t, `class A { boolean m(Object o) { return o instanceof A; } }`)
	wantError(t, `class A { boolean m(int x) { return x instanceof A; } }`, "requires a reference")
	wantError(t, `class A { boolean m(A a) { return a instanceof Qq; } }`, "undeclared class")
}

func TestStringIntrinsics(t *testing.T) {
	info := mustCheck(t, `
		class A {
			void m(string s) {
				int n = s.length();
				string t = s.substring(0, n - 1);
				int i = s.indexOf(" ");
				int c = s.charAt(2);
				boolean eq = s.equals(t);
				boolean sw = s.startsWith(t);
				string u = s + t + 42;
			}
		}
	`)
	// Check at least one intrinsic resolution exists.
	foundSub := false
	for _, ci := range calls(info) {
		if ci.Intrinsic == types.StrSubstring {
			foundSub = true
		}
	}
	if !foundSub {
		t.Error("substring intrinsic not recorded")
	}
}

func TestBuiltins(t *testing.T) {
	mustCheck(t, `
		class A {
			void m() {
				print("hi");
				print(42);
				string s = input();
				int n = inputInt();
				string t = itoa(n);
			}
		}
	`)
	wantError(t, `class A { void m() { print(1, 2); } }`, "print takes exactly 1")
}

func TestVirtualCallResolution(t *testing.T) {
	info := mustCheck(t, `
		class A { int m() { return 1; } }
		class B extends A { int m() { return 2; } }
		class C { int go(A a) { return a.m(); } }
	`)
	var found *types.CallInfo
	for call, ci := range calls(info) {
		if call.Name == "m" {
			found = ci
		}
	}
	if found == nil || found.Method == nil || found.Method.Owner.Name != "A" {
		t.Fatalf("a.m() should statically resolve to A.m, got %+v", found)
	}
	if found.StaticCall {
		t.Error("a.m() should be a virtual call")
	}
}

func TestStaticCallThroughClassName(t *testing.T) {
	info := mustCheck(t, `
		class Util { static int sq(int n) { return n * n; } }
		class A { int m() { return Util.sq(3); } }
	`)
	var found *types.CallInfo
	for call, ci := range calls(info) {
		if call.Name == "sq" {
			found = ci
		}
	}
	if found == nil || !found.StaticCall {
		t.Fatalf("Util.sq should be a static call, got %+v", found)
	}
}

func TestStaticFieldAccess(t *testing.T) {
	mustCheck(t, `
		class K { static int LIMIT; }
		class A { int m() { return K.LIMIT; } }
	`)
	wantError(t, `
		class K { int x; }
		class A { int m() { return K.x; } }
	`, "no static field")
}

func TestLocalShadowingAndScoping(t *testing.T) {
	mustCheck(t, `
		class A {
			void m(int x) {
				if (x > 0) {
					int y = 1;
					print(y);
				}
				int y = 2;
				print(y);
			}
		}
	`)
	wantError(t, `
		class A { void m() { int x = 1; int x = 2; } }
	`, "redeclaration")
	wantError(t, `
		class A { void m() { if (true) { int y = 1; } print(y); } }
	`, "undeclared identifier y")
}

func TestThisInStatic(t *testing.T) {
	wantError(t, `
		class A { int f; static int m() { return this.f; } }
	`, "'this' in a static method")
}

func TestInstanceFieldFromStatic(t *testing.T) {
	wantError(t, `
		class A { int f; static int m() { return f; } }
	`, "instance field")
}

func TestSuperCtorCall(t *testing.T) {
	mustCheck(t, `
		class Node { int op; Node(int op) { this.op = op; } }
		class AddNode extends Node { AddNode() { super(1); } }
	`)
	wantError(t, `
		class Node { int op; Node(int op) { this.op = op; } }
		class AddNode extends Node { AddNode() { super(); } }
	`, "arguments")
	wantError(t, `
		class A { void m() { super(); } }
	`, "only allowed in constructors")
}

func TestReturnChecking(t *testing.T) {
	wantError(t, `class A { int m() { return; } }`, "missing return value")
	wantError(t, `class A { void m() { return 1; } }`, "void method cannot return")
	wantError(t, `class A { int m() { return "s"; } }`, "cannot return")
}

func TestConditionsMustBeBool(t *testing.T) {
	wantError(t, `class A { void m(int x) { if (x) { } } }`, "must be boolean")
	wantError(t, `class A { void m(int x) { while (x + 1) { } } }`, "must be boolean")
}

func TestArrayOperations(t *testing.T) {
	mustCheck(t, `
		class A {
			void m() {
				int[] a = new int[10];
				a[0] = 1;
				int n = a.length;
				int v = a[n - 1];
			}
		}
	`)
	wantError(t, `class A { void m(int x) { int v = x[0]; } }`, "cannot index")
	wantError(t, `class A { void m(int[] a) { a[true] = 1; } }`, "index must be int")
	wantError(t, `class A { void m(int[] a) { a.length = 3; } }`, "cannot assign to array length")
}

func TestAssignToClassName(t *testing.T) {
	wantError(t, `class K { } class A { void m() { K = null; } }`, "cannot assign to class name")
}

func TestDuplicateMembers(t *testing.T) {
	wantError(t, `class A { int x; int x; }`, "duplicate field")
	wantError(t, `class A { void m() { } void m() { } }`, "duplicate method")
	wantError(t, `class A { A() { } A() { } }`, "duplicate constructor")
	wantError(t, `class A { } class A { }`, "duplicate class")
}

func TestPreludeLoads(t *testing.T) {
	info, err := loader.Load(map[string]string{"main.mj": `
		class Main {
			static void main() {
				Vector v = new Vector();
				v.add("x");
				string s = (string) v.get(0);
				HashMap m = new HashMap();
				m.put("k", s);
				LinkedList l = new LinkedList();
				l.add(s);
				Iterator it = v.iterator();
				while (it.hasNext()) {
					print((string) it.next());
				}
			}
		}
	`})
	if err != nil {
		t.Fatalf("prelude program failed to check: %v", err)
	}
	for _, name := range []string{"Vector", "HashMap", "LinkedList", "Iterator"} {
		if info.Classes[name] == nil {
			t.Errorf("prelude class %s missing", name)
		}
	}
}

func TestExprTypesRecorded(t *testing.T) {
	info := mustCheck(t, `class A { int m(int x) { x += 2; return x + 1; } boolean n(int[] a) { return a.length > 0; } }`)
	// x, 2, x + 2 (whose X is the same node as the assignment's LHS),
	// x, 1, x + 1; then a, a.length, 0 and the comparison.
	if got := info.NumTyped(); got != 10 {
		t.Errorf("NumTyped = %d, want 10", got)
	}
	for _, mi := range info.MethodOfDecl {
		body := info.Body(mi)
		ast.Walk(mi.Decl.Body, func(n ast.Node) {
			e, ok := n.(ast.Expr)
			if !ok {
				return
			}
			if body.TypeOf(e) == nil {
				t.Errorf("%s: %T has no recorded type", e.Pos(), e)
			}
			switch e := e.(type) {
			case *ast.Ident:
				if r := body.Ref(e); r == nil || r.Kind != types.RefParam {
					t.Errorf("%s: %s resolves to %+v, want its parameter", e.Pos(), e.Name, r)
				}
			case *ast.FieldAccess:
				if !body.IsArrayLen(e) || body.Field(e) != nil {
					t.Errorf("%s: a.length not recorded as an array length", e.Pos())
				}
			}
		})
	}
}

func TestDefaultCtorSynthesized(t *testing.T) {
	info := mustCheck(t, `class A { } class B { void m() { A a = new A(); } }`)
	if info.Classes["A"].Ctor == nil {
		t.Fatal("default constructor not synthesized")
	}
}

func TestThrowRequiresObject(t *testing.T) {
	mustCheck(t, `class E { } class A { void m() { throw new E(); } }`)
	wantError(t, `class A { void m() { throw 42; } }`, "requires an object")
}

func TestTypeOfCovariantArrayStore(t *testing.T) {
	mustCheck(t, `
		class A { }
		class B extends A {
			void m() {
				A[] arr = new B[2];
				Object o = arr;
			}
		}
	`)
}

package sdg_test

import (
	"sync"
	"testing"

	"thinslice/internal/analyzer"
	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/papercases"
	"thinslice/internal/sdg"
)

func analyze(t *testing.T, src string) *analyzer.Analysis {
	t.Helper()
	a, err := analyzer.Analyze(map[string]string{"t.mj": src})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// deps returns node n's logical row, in order.
func deps(g *sdg.Graph, n sdg.Node) []sdg.Dep {
	var out []sdg.Dep
	g.EachDep(n, func(d sdg.Dep) { out = append(out, d) })
	return out
}

// depsOfKind unions the k-kind dependences of every context instance
// of ins.
func depsOfKind(g *sdg.Graph, ins ir.Instr, k sdg.EdgeKind) []sdg.Dep {
	var out []sdg.Dep
	for _, n := range g.NodesOf(ins) {
		for _, d := range deps(g, n) {
			if d.Kind == k {
				out = append(out, d)
			}
		}
	}
	return out
}

// srcInstr resolves a dependence source to its instruction.
func srcInstr(g *sdg.Graph, d sdg.Dep) ir.Instr { return g.InstrOf(d.Src) }

func find[T ir.Instr](a *analyzer.Analysis, qname string) []T {
	var out []T
	for _, m := range a.Prog.Methods {
		if m.Name() != qname {
			continue
		}
		m.Instrs(func(ins ir.Instr) {
			if x, ok := ins.(T); ok {
				out = append(out, x)
			}
		})
	}
	return out
}

func TestLocalAndBaseEdges(t *testing.T) {
	a := analyze(t, `
		class Box { Object v; Box() { } }
		class Main {
			static void main() {
				Box b = new Box();
				b.v = new Object();
				print(b.v);
			}
		}
	`)
	g := a.Graph
	gets := find[*ir.GetField](a, "Main.main")
	if len(gets) != 1 {
		t.Fatalf("got %d GetField", len(gets))
	}
	if len(depsOfKind(g, gets[0], sdg.EdgeBase)) != 1 {
		t.Error("GetField must have one base edge (to the Copy of b)")
	}
	heap := depsOfKind(g, gets[0], sdg.EdgeHeap)
	if len(heap) != 1 {
		t.Fatalf("GetField must have one heap edge, got %d", len(heap))
	}
	if _, ok := srcInstr(g, heap[0]).(*ir.SetField); !ok {
		t.Errorf("heap edge source is %T", srcInstr(g, heap[0]))
	}
}

func TestHeapEdgesRespectAliasing(t *testing.T) {
	a := analyze(t, `
		class Box { Object v; Box() { } }
		class Main {
			static void main() {
				Box b1 = new Box();
				Box b2 = new Box();
				b1.v = new Object();
				b2.v = new Object();
				print(b1.v);
			}
		}
	`)
	gets := find[*ir.GetField](a, "Main.main")
	heap := depsOfKind(a.Graph, gets[0], sdg.EdgeHeap)
	if len(heap) != 1 {
		t.Fatalf("non-aliased stores must not produce heap edges: got %d", len(heap))
	}
}

func TestParamEdgesCarryVia(t *testing.T) {
	a := analyze(t, `
		class Util { static int id(int x) { return x; } }
		class Main {
			static void main() {
				int v = inputInt();
				print(Util.id(v));
			}
		}
	`)
	params := find[*ir.Param](a, "Util.id")
	if len(params) != 1 {
		t.Fatalf("got %d params", len(params))
	}
	pdeps := depsOfKind(a.Graph, params[0], sdg.EdgeParam)
	if len(pdeps) != 1 || pdeps[0].Via == sdg.NoNode {
		t.Fatalf("param edge missing or lacks Via: %+v", pdeps)
	}
}

func TestReturnEdges(t *testing.T) {
	a := analyze(t, `
		class Util { static int id(int x) { return x; } }
		class Main {
			static void main() {
				print(Util.id(1));
			}
		}
	`)
	calls := find[*ir.Call](a, "Main.main")
	var target *ir.Call
	for _, c := range calls {
		if c.Callee.Name == "id" {
			target = c
		}
	}
	rdeps := depsOfKind(a.Graph, target, sdg.EdgeReturn)
	if len(rdeps) != 1 {
		t.Fatalf("call must have one return edge, got %d", len(rdeps))
	}
	if _, ok := srcInstr(a.Graph, rdeps[0]).(*ir.Return); !ok {
		t.Errorf("return edge source is %T", srcInstr(a.Graph, rdeps[0]))
	}
}

func TestCallNodeHasNoLocalArgEdges(t *testing.T) {
	a := analyze(t, `
		class Util { static int pick(int x, int y) { return x; } }
		class Main {
			static void main() {
				int p = inputInt();
				int q = inputInt();
				print(Util.pick(p, q));
			}
		}
	`)
	calls := find[*ir.Call](a, "Main.main")
	var target *ir.Call
	for _, c := range calls {
		if c.Callee.Name == "pick" {
			target = c
		}
	}
	if deps := depsOfKind(a.Graph, target, sdg.EdgeLocal); len(deps) != 0 {
		t.Fatalf("call node must not have local arg edges, got %d", len(deps))
	}
}

func TestControlEdges(t *testing.T) {
	a := analyze(t, `
		class Main {
			static void main() {
				if (inputInt() > 0) {
					print(1);
				}
			}
		}
	`)
	prints := find[*ir.Print](a, "Main.main")
	ctrl := depsOfKind(a.Graph, prints[0], sdg.EdgeControl)
	if len(ctrl) != 1 {
		t.Fatalf("print must have one control edge, got %d", len(ctrl))
	}
	if _, ok := srcInstr(a.Graph, ctrl[0]).(*ir.If); !ok {
		t.Errorf("control source is %T", srcInstr(a.Graph, ctrl[0]))
	}
}

func TestCallControlEdges(t *testing.T) {
	a := analyze(t, `
		class Util { static void log() { print(1); } }
		class Main {
			static void main() {
				Util.log();
			}
		}
	`)
	prints := find[*ir.Print](a, "Util.log")
	cc := depsOfKind(a.Graph, prints[0], sdg.EdgeCallControl)
	if len(cc) != 1 {
		t.Fatalf("entry-dependent callee stmt must have call-control edge, got %d", len(cc))
	}
	if _, ok := srcInstr(a.Graph, cc[0]).(*ir.Call); !ok {
		t.Errorf("call-control source is %T", srcInstr(a.Graph, cc[0]))
	}
}

func TestStaticFieldHeapEdges(t *testing.T) {
	a := analyze(t, `
		class G { static int x; }
		class Main {
			static void main() {
				G.x = 1;
				print(G.x);
			}
		}
	`)
	gets := find[*ir.GetStatic](a, "Main.main")
	heap := depsOfKind(a.Graph, gets[0], sdg.EdgeHeap)
	if len(heap) != 1 {
		t.Fatalf("static read needs one heap edge, got %d", len(heap))
	}
}

func TestArrayLenEdgeToAllocation(t *testing.T) {
	a := analyze(t, `
		class Main {
			static void main() {
				int[] x = new int[7];
				print(x.length);
			}
		}
	`)
	lens := find[*ir.ArrayLen](a, "Main.main")
	heap := depsOfKind(a.Graph, lens[0], sdg.EdgeHeap)
	if len(heap) != 1 {
		t.Fatalf("length read needs one heap edge, got %d", len(heap))
	}
	if _, ok := srcInstr(a.Graph, heap[0]).(*ir.NewArray); !ok {
		t.Errorf("length edge source is %T", srcInstr(a.Graph, heap[0]))
	}
}

func TestGraphCountsAndReachability(t *testing.T) {
	a := analyze(t, papercases.FirstNames)
	g := a.Graph
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	reached := 0
	for _, m := range a.Prog.Methods {
		if g.Reachable(m) {
			reached++
		}
	}
	if reached == 0 || reached == len(a.Prog.Methods) {
		t.Errorf("reachability should be a strict subset: %d/%d", reached, len(a.Prog.Methods))
	}
}

func TestObjSensReducesHeapEdges(t *testing.T) {
	src := `
		class Main {
			static void main() {
				Vector v1 = new Vector();
				Vector v2 = new Vector();
				v1.add("a");
				v2.add("b");
				print((string) v1.get(0));
				print((string) v2.get(0));
			}
		}
	`
	aSens, err := analyzer.Analyze(map[string]string{"t.mj": src})
	if err != nil {
		t.Fatal(err)
	}
	aNo, err := analyzer.Analyze(map[string]string{"t.mj": src}, analyzer.WithObjSens(false))
	if err != nil {
		t.Fatal(err)
	}
	// Cloned container contexts mean more nodes with object
	// sensitivity, but per-node heap deps stay apart: the thin slice
	// from v1's read reaches "a" and not "b". Without it, both leak in.
	sliceLiterals := func(a *analyzer.Analysis) map[string]bool {
		var seed ir.Instr
		for _, m := range a.Prog.Methods {
			if m.Name() != "Main.main" {
				continue
			}
			m.Instrs(func(ins ir.Instr) {
				if p, ok := ins.(*ir.Print); ok && seed == nil {
					seed = p
				}
			})
		}
		sl := a.ThinSlicer().Slice(seed)
		out := map[string]bool{}
		for _, ins := range sl.Instrs() {
			if c, ok := ins.(*ir.ConstStr); ok {
				out[c.Val] = true
			}
		}
		return out
	}
	withSens := sliceLiterals(aSens)
	if !withSens["a"] || withSens["b"] {
		t.Errorf("objsens thin slice literals wrong: %v", withSens)
	}
	without := sliceLiterals(aNo)
	if !without["a"] || !without["b"] {
		t.Errorf("noobjsens thin slice should merge both literals: %v", without)
	}
	if aSens.Graph.NumNodes() <= aNo.Graph.NumNodes() {
		t.Errorf("cloning should increase SDG nodes: %d vs %d",
			aSens.Graph.NumNodes(), aNo.Graph.NumNodes())
	}
}

func TestCallersOf(t *testing.T) {
	a := analyze(t, `
		class Util { static void f() { } }
		class Main {
			static void main() {
				Util.f();
				Util.f();
			}
		}
	`)
	var util *ir.Method
	for _, m := range a.Prog.Methods {
		if m.Name() == "Util.f" {
			util = m
		}
	}
	total := 0
	for _, mc := range a.Pts.MCtxsOf(util) {
		total += len(a.Graph.CallerNodes(mc))
	}
	if total != 2 {
		t.Fatalf("got %d caller nodes, want 2", total)
	}
}

// TestConcurrentBuildsShareOneResult builds one program's graph from
// several goroutines over one points-to Result, as concurrent requests
// do over a cached one. The heap pairing reads the Result's sets in
// place, so the builds must not write them and must all agree.
func TestConcurrentBuildsShareOneResult(t *testing.T) {
	a, err := analyzer.Analyze(bench.Generate("nanoxml", 1).Sources)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	want := a.Graph.Fingerprint()
	got := make([]string, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sdg.Build(a.Prog, a.Pts).Fingerprint()
		}(i)
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Errorf("build %d: fingerprint %s, want %s", i, fp, want)
		}
	}
}

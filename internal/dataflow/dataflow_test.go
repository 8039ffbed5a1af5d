package dataflow_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"thinslice/internal/artifact"
	"thinslice/internal/budget"
	"thinslice/internal/dataflow"
	"thinslice/internal/ir"
	"thinslice/internal/papercases"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// world bundles the upstream artifacts a solve needs.
type world struct {
	in   dataflow.Inputs
	sess *session.Session
}

func buildWorld(t *testing.T, src string, opts ...session.Option) *world {
	t.Helper()
	s := session.Open(map[string]string{"main.mj": src}, opts...)
	prog, err := s.Prog()
	if err != nil {
		t.Fatalf("Prog: %v", err)
	}
	pts, err := s.PointsTo()
	if err != nil {
		t.Fatalf("PointsTo: %v", err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	cg, err := s.CHA()
	if err != nil {
		t.Fatalf("CHA: %v", err)
	}
	return &world{in: dataflow.Inputs{Prog: prog, Pts: pts, Graph: g, CHA: cg}, sess: s}
}

func solve(t *testing.T, w *world, p dataflow.Problem, bud *budget.Budget) *dataflow.Results {
	t.Helper()
	res, err := dataflow.Solve(w.in, p, bud)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

// instrsAtLine returns the instructions of user code at the given line.
func instrsAtLine(prog *ir.Program, line int) []ir.Instr {
	var out []ir.Instr
	for _, m := range prog.Methods {
		m.Instrs(func(ins ir.Instr) {
			if p := ins.Pos(); p.Line == line && p.File != "<prelude>" {
				out = append(out, ins)
			}
		})
	}
	return out
}

// callAtLine returns the unique call instruction at a source line.
func callAtLine(t *testing.T, prog *ir.Program, line int) *ir.Call {
	t.Helper()
	for _, ins := range instrsAtLine(prog, line) {
		if c, ok := ins.(*ir.Call); ok {
			return c
		}
	}
	t.Fatalf("no call at line %d", line)
	return nil
}

const taintInterprocSrc = `class Pipe {
    int held;
    void stash(int v) {
        this.held = v; // STASH
    }
    int fetch() {
        return this.held; // FETCH
    }
}
class Main {
    static int launder(int x) {
        int y = x + 1; // LAUNDER
        return y;
    }
    static void main() {
        int raw = inputInt(); // SOURCE
        int thru = Main.launder(raw); // THRU
        Pipe p = new Pipe();
        p.stash(thru); // STORE
        int back = p.fetch(); // LOAD
        exec(back); // SINK
        int clean = 7; // CLEAN
        exec(clean); // CLEANSINK
    }
    static void exec(int c) { }
}
`

// TestTaintInterprocedural drives input-derived data through a static
// call, a heap cell, and back out of an instance method, and asserts
// the taint fact holds exactly at the tainted sink argument.
func TestTaintInterprocedural(t *testing.T) {
	w := buildWorld(t, taintInterprocSrc)
	res := solve(t, w, dataflow.NewTaintProblem(nil), nil)
	if res.Truncated {
		t.Fatalf("unexpectedly truncated: %v", res.Err)
	}

	sinkLine := papercases.Line(taintInterprocSrc, "// SINK")
	cleanLine := papercases.Line(taintInterprocSrc, "// CLEANSINK")
	sink := callAtLine(t, w.in.Prog, sinkLine)
	clean := callAtLine(t, w.in.Prog, cleanLine)

	holdsArg := func(call *ir.Call) bool {
		for _, n := range w.in.Graph.NodesOf(call) {
			d := res.Facts().Lookup(dataflow.FactDesc{Kind: dataflow.KindReg, Reg: call.Args[0]})
			if d != dataflow.Zero && res.Holds(n, d) {
				return true
			}
		}
		return false
	}
	if !holdsArg(sink) {
		t.Errorf("taint fact missing at sink argument (line %d)", sinkLine)
	}
	if holdsArg(clean) {
		t.Errorf("taint fact wrongly present at clean sink (line %d)", cleanLine)
	}

	// The witness trace must start at the sink node and end at the
	// generating input() statement.
	n := w.in.Graph.NodesOf(sink)[0]
	d := res.Facts().Lookup(dataflow.FactDesc{Kind: dataflow.KindReg, Reg: sink.Args[0]})
	steps := res.Trace(n, d)
	if len(steps) < 2 {
		t.Fatalf("trace too short: %d steps", len(steps))
	}
	last := steps[len(steps)-1]
	if _, ok := last.Ins.(*ir.Input); !ok {
		t.Errorf("trace does not end at the input source: ends at %s", last.Ins)
	}
	srcLine := papercases.Line(taintInterprocSrc, "// SOURCE")
	if last.Ins.Pos().Line != srcLine {
		t.Errorf("trace source at line %d, want %d", last.Ins.Pos().Line, srcLine)
	}
}

// TestCloseFileBug runs the close-protocol problem over the paper's
// Figure 4 program: the File is closed via one alias and then used via
// another, so the closed fact must hold at the isOpen() check.
func TestCloseFileBug(t *testing.T) {
	w := buildWorld(t, papercases.FileBug)
	res := solve(t, w, dataflow.CloseProblem{}, nil)

	checkLine := papercases.Line(papercases.FileBug, "// CHECK")
	check := callAtLine(t, w.in.Prog, checkLine)
	found := false
	for _, n := range w.in.Graph.NodesOf(check) {
		mc := w.in.Graph.CtxOf(n)
		for _, o := range w.in.Pts.PointsToIn(check.Recv, mc) {
			d := res.Facts().Lookup(dataflow.FactDesc{Kind: dataflow.KindObjState, Obj: o, State: dataflow.StateClosed})
			if d != dataflow.Zero && res.Holds(n, d) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("closed fact missing at isOpen() check (line %d)", checkLine)
	}

	// Before the close() call itself no closed fact may hold.
	closeLine := papercases.Line(papercases.FileBug, "// CLOSECALL")
	closeCall := callAtLine(t, w.in.Prog, closeLine)
	for _, n := range w.in.Graph.NodesOf(closeCall) {
		for _, d := range res.FactsAt(n) {
			if res.Facts().Desc(d).Kind == dataflow.KindObjState {
				t.Errorf("closed fact already holds before the first close()")
			}
		}
	}
}

const initFlowSrc = `class Box {
    int val;
    Box() { } // no init in the constructor
    void fill() {
        this.val = 5; // FILL
    }
}
class Main {
    static void main() {
        Box b = new Box();
        int before = b.val; // EARLY (read before any fill)
        b.fill();
        int after = b.val; // LATE (fill on every path)
        print(before + after);
    }
}
`

// TestInitFlowSensitivity checks the may-init facts are flow-sensitive:
// the read before fill() sees no init fact, the read after does.
func TestInitFlowSensitivity(t *testing.T) {
	w := buildWorld(t, initFlowSrc)
	res := solve(t, w, dataflow.InitProblem{}, nil)

	getAt := func(line int) *ir.GetField {
		for _, ins := range instrsAtLine(w.in.Prog, line) {
			if g, ok := ins.(*ir.GetField); ok {
				return g
			}
		}
		t.Fatalf("no GetField at line %d", line)
		return nil
	}
	hasInit := func(g *ir.GetField) bool {
		for _, n := range w.in.Graph.NodesOf(g) {
			mc := w.in.Graph.CtxOf(n)
			for _, o := range w.in.Pts.PointsToIn(g.Obj, mc) {
				d := res.Facts().Lookup(dataflow.FactDesc{Kind: dataflow.KindObjField, Obj: o, Field: g.Field})
				if d != dataflow.Zero && res.Holds(n, d) {
					return true
				}
			}
		}
		return false
	}
	early := getAt(papercases.Line(initFlowSrc, "// EARLY"))
	late := getAt(papercases.Line(initFlowSrc, "// LATE"))
	if hasInit(early) {
		t.Errorf("init fact present before fill() — not flow-sensitive")
	}
	if !hasInit(late) {
		t.Errorf("init fact missing after fill()")
	}
}

// TestSolveDeterministic asserts two independent solves produce
// byte-identical encodings (fact IDs, node tables, parents).
func TestSolveDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"filebug", papercases.FileBug},
		{"firstnames", papercases.FirstNames},
		{"taintpipe", taintInterprocSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorld(t, tc.src)
			a := solve(t, w, dataflow.NewTaintProblem(nil), nil)
			b := solve(t, w, dataflow.NewTaintProblem(nil), nil)
			ab, err := dataflow.EncodeResults(a)
			if err != nil {
				t.Fatalf("encode a: %v", err)
			}
			bb, err := dataflow.EncodeResults(b)
			if err != nil {
				t.Fatalf("encode b: %v", err)
			}
			if !bytes.Equal(ab, bb) {
				t.Errorf("two solves encoded differently (%d vs %d bytes)", len(ab), len(bb))
			}
		})
	}
}

// TestSolveTruncation exhausts the dataflow budget mid-solve and
// checks the partial is typed, truncated, and all its facts agree with
// the full solve (monotonicity: a partial never invents facts).
func TestSolveTruncation(t *testing.T) {
	w := buildWorld(t, papercases.FileBug)
	full := solve(t, w, dataflow.CloseProblem{}, nil)

	bud := budget.New(nil, budget.WithPhaseSteps(budget.PhaseDataflow, 40))
	part := solve(t, w, dataflow.CloseProblem{}, bud)
	if !part.Truncated {
		t.Fatalf("40-step solve not truncated")
	}
	if !budget.IsExhausted(part.Err) {
		t.Fatalf("truncation error not ErrExhausted: %v", part.Err)
	}
	if ph, _ := budget.PhaseOf(part.Err); ph != budget.PhaseDataflow {
		t.Errorf("truncation phase %q, want %q", ph, budget.PhaseDataflow)
	}
	for n := 0; n < w.in.Graph.NumNodes(); n++ {
		for _, d := range part.FactsAt(sdg.Node(n)) {
			desc := part.Facts().Desc(d)
			fd := full.Facts().Lookup(desc)
			if d != dataflow.Zero && (fd == dataflow.Zero || !full.Holds(sdg.Node(n), fd)) {
				t.Fatalf("truncated solve invented fact %v at node %d", desc, n)
			}
		}
	}
	// A truncated result must refuse to encode.
	if _, err := dataflow.EncodeResults(part); err == nil {
		t.Errorf("EncodeResults accepted a truncated result")
	}
}

// TestCodecRoundTrip encodes, decodes, and re-encodes results and
// checks byte identity plus query equivalence.
func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		p    dataflow.Problem
	}{
		{"taint", taintInterprocSrc, dataflow.NewTaintProblem(nil)},
		{"close", papercases.FileBug, dataflow.CloseProblem{}},
		{"init", initFlowSrc, dataflow.InitProblem{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorld(t, tc.src)
			orig := solve(t, w, tc.p, nil)
			enc, err := dataflow.EncodeResults(orig)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := dataflow.DecodeResults(enc, w.in.Prog, w.in.Pts, w.in.Graph)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			re, err := dataflow.EncodeResults(dec)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(enc), len(re))
			}
			if dec.Name != orig.Name || dec.ConfigKey != orig.ConfigKey {
				t.Errorf("identity lost: %q/%q vs %q/%q", dec.Name, dec.ConfigKey, orig.Name, orig.ConfigKey)
			}
			for n := 0; n < w.in.Graph.NumNodes(); n++ {
				of, df := orig.FactsAt(sdg.Node(n)), dec.FactsAt(sdg.Node(n))
				if len(of) != len(df) {
					t.Fatalf("node %d: %d facts vs %d after round-trip", n, len(of), len(df))
				}
			}
			// Traces survive the round-trip (same length and endpoints).
			for n := 0; n < w.in.Graph.NumNodes(); n++ {
				for _, d := range orig.FactsAt(sdg.Node(n)) {
					a, b := orig.Trace(sdg.Node(n), d), dec.Trace(sdg.Node(n), d)
					if len(a) != len(b) {
						t.Fatalf("node %d fact %d: trace %d vs %d steps", n, d, len(a), len(b))
					}
				}
			}
		})
	}
}

// TestCodecRejectsCorruption flips bytes and truncates the payload and
// requires decode errors, never panics or silent acceptance of
// out-of-range nodes and facts. The taint input has register facts,
// whose instruction IDs must be range-checked before use.
func TestCodecRejectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		p    dataflow.Problem
	}{
		{"init", initFlowSrc, dataflow.InitProblem{}},
		{"taint", taintInterprocSrc, dataflow.NewTaintProblem(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := buildWorld(t, tc.src)
			enc, err := dataflow.EncodeResults(solve(t, w, tc.p, nil))
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			decode := func(what string, data []byte) (err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decode of %s panicked: %v", what, r)
					}
				}()
				_, err = dataflow.DecodeResults(data, w.in.Prog, w.in.Pts, w.in.Graph)
				return err
			}
			if err := decode("the clean payload", enc); err != nil {
				t.Fatalf("clean decode failed: %v", err)
			}
			rejected := 0
			for i := 0; i < len(enc); i++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 0x41
				if decode(fmt.Sprintf("a flip at byte %d", i), mut) != nil {
					rejected++
				}
			}
			if rejected == 0 {
				t.Errorf("no bit flip was rejected")
			}
			for cut := 0; cut < len(enc); cut += 7 {
				if decode(fmt.Sprintf("a cut at byte %d", cut), enc[:cut]) == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
		})
	}
}

// TestCodecRejectsParentCycle decodes two nodes that each hold the zero
// fact with the other as discovery parent. Trace would walk that chain
// forever, so the decoder must refuse it.
func TestCodecRejectsParentCycle(t *testing.T) {
	w := buildWorld(t, papercases.FileBug)
	var aw artifact.Writer
	aw.String("close")
	aw.String("")
	aw.Uvarint(0) // no facts besides the zero fact
	aw.Uvarint(2) // two node rows
	for _, row := range []struct{ node, parent uint64 }{{0, 1}, {1, 0}} {
		aw.Uvarint(row.node)
		aw.Uvarint(1)                // one fact at the node
		aw.Uvarint(0)                // the zero fact
		aw.Uvarint(row.parent << 32) // parent: the zero fact at the other node
		aw.Uvarint(uint64(dataflow.StepFlow))
	}
	aw.Int(2)
	aw.Int(0)
	if _, err := dataflow.DecodeResults(aw.Bytes(), w.in.Prog, w.in.Pts, w.in.Graph); err == nil {
		t.Fatal("DecodeResults accepted a cyclic parent chain")
	}
}

// TestTraceConcurrent traces every (node, fact) pair of one shared
// result from several goroutines at once, as concurrent requests over a
// cached result do; each must see the traces a fresh result gives.
func TestTraceConcurrent(t *testing.T) {
	w := buildWorld(t, taintInterprocSrc)
	want := solve(t, w, dataflow.NewTaintProblem(nil), nil)
	shared := solve(t, w, dataflow.NewTaintProblem(nil), nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < w.in.Graph.NumNodes(); n++ {
				for _, d := range shared.FactsAt(sdg.Node(n)) {
					a, b := shared.Trace(sdg.Node(n), d), want.Trace(sdg.Node(n), d)
					if !reflect.DeepEqual(a, b) {
						t.Errorf("node %d fact %d: concurrent trace %v, want %v", n, d, a, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCancellationReturnsError distinguishes cancellation (an error,
// no partial) from exhaustion (a truncated partial).
func TestCancellationReturnsError(t *testing.T) {
	w := buildWorld(t, papercases.FileBug)
	bud := budget.New(nil, budget.WithTimeout(0))
	_, err := dataflow.Solve(w.in, dataflow.CloseProblem{}, bud)
	if !budget.IsCanceled(err) {
		t.Fatalf("expired-deadline solve returned %v, want ErrCanceled", err)
	}
}

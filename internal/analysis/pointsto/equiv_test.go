package pointsto_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
)

// The cycle-eliminating difference-propagation solver must be
// observationally identical to the reference solver (NoCycleElim):
// same points-to sets, same call graph, under both the
// object-sensitive and context-insensitive configurations. Objects and
// contexts are compared by canonical descriptors (allocation-site
// instruction IDs plus the heap-context chain), since internal IDs may
// be assigned in a different order by the two solvers.

// objDesc canonically names an abstract object by its allocation site
// and heap-context chain.
func objDesc(o *pointsto.Object) string {
	if o == nil {
		return "-"
	}
	return fmt.Sprintf("%d[%s]", o.Site.ID(), objDesc(o.Ctx))
}

// ctxDesc canonically names a method context.
func ctxDesc(mc *pointsto.MCtx) string {
	return mc.Method.Name() + "/" + objDesc(mc.Ctx)
}

func sortedSet(xs []string) string {
	sort.Strings(xs)
	return strings.Join(xs, ",")
}

// summary flattens the observable analysis output into canonical maps:
// per-register context-insensitive points-to sets, per-register
// per-context sets, the call-edge relation, and the context set.
type summary struct {
	ptsCI   map[string]string // reg key -> sorted object descriptors
	ptsCtx  map[string]string // reg key + caller ctx -> sorted object descriptors
	callees map[string]string // call ID + caller ctx -> sorted callee ctx descriptors
	mctxs   string            // sorted context descriptors
}

// regKey names a register by its defining instruction (or parameter
// position), which is stable across solver runs on a shared program.
func regKey(m *ir.Method, idx int, r *ir.Reg) string {
	return fmt.Sprintf("%s#%d#%s", m.Name(), idx, r)
}

func summarize(prog *ir.Program, res *pointsto.Result) *summary {
	s := &summary{
		ptsCI:   make(map[string]string),
		ptsCtx:  make(map[string]string),
		callees: make(map[string]string),
	}
	var ctxs []string
	for _, mc := range res.MCtxs() {
		ctxs = append(ctxs, ctxDesc(mc))
	}
	s.mctxs = sortedSet(ctxs)
	for _, m := range prog.Methods {
		mcs := res.MCtxsOf(m)
		idx := 0
		m.Instrs(func(ins ir.Instr) {
			idx++
			if def := ins.Def(); def != nil {
				key := regKey(m, idx, def)
				var ci []string
				for _, o := range res.PointsTo(def) {
					ci = append(ci, objDesc(o))
				}
				s.ptsCI[key] = sortedSet(ci)
				for _, mc := range mcs {
					var inCtx []string
					for _, o := range res.PointsToIn(def, mc) {
						inCtx = append(inCtx, objDesc(o))
					}
					s.ptsCtx[key+"@"+ctxDesc(mc)] = sortedSet(inCtx)
				}
			}
			if call, ok := ins.(*ir.Call); ok {
				for _, mc := range mcs {
					var tgts []string
					for _, callee := range res.CalleesAt(call, mc) {
						tgts = append(tgts, ctxDesc(callee))
					}
					s.callees[fmt.Sprintf("%d@%s", call.ID(), ctxDesc(mc))] = sortedSet(tgts)
				}
			}
		})
	}
	return s
}

func diffSummaries(t *testing.T, label string, want, got *summary) {
	t.Helper()
	if want.mctxs != got.mctxs {
		t.Errorf("%s: context sets differ:\nref: %s\ngot: %s", label, want.mctxs, got.mctxs)
	}
	for _, pair := range []struct {
		name      string
		ref, test map[string]string
	}{
		{"pointsTo(CI)", want.ptsCI, got.ptsCI},
		{"pointsToIn", want.ptsCtx, got.ptsCtx},
		{"calleesAt", want.callees, got.callees},
	} {
		for k, v := range pair.ref {
			if gv, ok := pair.test[k]; !ok || gv != v {
				t.Errorf("%s: %s[%s]:\nref: %s\ngot: %s", label, pair.name, k, v, gv)
				return // one divergence is enough to fail the program
			}
		}
		if len(pair.ref) != len(pair.test) {
			t.Errorf("%s: %s has %d entries in reference, %d with cycle elimination",
				label, pair.name, len(pair.ref), len(pair.test))
		}
	}
}

func loadProg(t testing.TB, srcs map[string]string) *ir.Program {
	t.Helper()
	info, err := loader.Load(srcs)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	prog := ir.Lower(info)
	if len(prog.Diags) > 0 {
		t.Fatalf("lowering diagnostics: %v", prog.Diags)
	}
	return prog
}

// checkEquiv compares the cycle-eliminating solver (swept after every
// new copy edge — the most aggressive collapsing possible, far beyond
// the production threshold) against the reference solver, and returns
// how many nodes were collapsed so callers can assert the sweep is not
// vacuous across a corpus.
func checkEquiv(t *testing.T, label string, prog *ir.Program, objSens bool) int {
	t.Helper()
	cfg := pointsto.Config{
		ObjSensContainers: objSens,
		ContainerClasses:  prelude.ContainerClasses,
	}
	refCfg := cfg
	refCfg.NoCycleElim = true
	ref, err := pointsto.Analyze(prog, refCfg)
	if err != nil {
		t.Fatalf("%s: reference solver: %v", label, err)
	}
	restore := pointsto.SetSweepEveryForTest(1)
	res, err := pointsto.Analyze(prog, cfg)
	restore()
	if err != nil {
		t.Fatalf("%s: cycle-elim solver: %v", label, err)
	}
	diffSummaries(t, label, summarize(prog, ref), summarize(prog, res))
	return res.Collapsed
}

func TestCycleElimEquivalencePapercases(t *testing.T) {
	cases := map[string]map[string]string{
		"firstnames": {papercases.FirstNamesFile: papercases.FirstNames},
		"toy":        {papercases.ToyFile: papercases.Toy},
		"filebug":    {papercases.FileBugFile: papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile: papercases.ToughCast},
	}
	for name, srcs := range cases {
		t.Run(name, func(t *testing.T) {
			prog := loadProg(t, srcs)
			checkEquiv(t, name+"/objsens", prog, true)
			checkEquiv(t, name+"/ci", prog, false)
		})
	}
}

func TestCycleElimEquivalenceRandprog(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	collapsed := 0
	for seed := 0; seed < n; seed++ {
		prog := loadProg(t, randprog.Generate(int64(seed), randprog.DefaultConfig))
		collapsed += checkEquiv(t, fmt.Sprintf("seed%d/objsens", seed), prog, true)
		collapsed += checkEquiv(t, fmt.Sprintf("seed%d/ci", seed), prog, false)
		if t.Failed() {
			return
		}
	}
	// Non-vacuity: the corpus must actually drive the collapse path, or
	// the equivalence above proves nothing about cycle elimination.
	if collapsed == 0 {
		t.Fatalf("no SCC was collapsed across %d programs; the equivalence sweep is vacuous", n)
	}
}

// subsetOf asserts every entry of got is contained in the
// corresponding full-run entry: a budget-stopped solve is a monotone
// under-approximation of the fixpoint (points-to sets only grow).
func subsetOf(t *testing.T, label string, partial, full *summary) {
	t.Helper()
	check := func(name string, p, f map[string]string) {
		for k, v := range p {
			if v == "" {
				continue
			}
			fullSet := make(map[string]bool)
			for _, x := range strings.Split(f[k], ",") {
				fullSet[x] = true
			}
			for _, x := range strings.Split(v, ",") {
				if !fullSet[x] {
					t.Errorf("%s: %s[%s]: partial result has %s not in full fixpoint %q", label, name, k, x, f[k])
					return
				}
			}
		}
	}
	check("pointsTo(CI)", partial.ptsCI, full.ptsCI)
	check("calleesAt", partial.callees, full.callees)
}

// TestCycleElimBudgetPaths drives the cycle-eliminating solver through
// the degradation ladder: step caps that exhaust mid-solve must yield
// Downgraded/Truncated results (never an error, never a panic) whose
// points-to sets are subsets of the corresponding full fixpoint.
func TestCycleElimBudgetPaths(t *testing.T) {
	defer pointsto.SetSweepEveryForTest(1)()
	prog := loadProg(t, map[string]string{papercases.FirstNamesFile: papercases.FirstNames})
	fullCI, err := pointsto.Analyze(prog, pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fullCISum := summarize(prog, fullCI)
	for _, steps := range []int64{1, 10, 100, 1000, 5000} {
		for _, objSens := range []bool{true, false} {
			label := fmt.Sprintf("steps=%d objsens=%v", steps, objSens)
			res, err := pointsto.Analyze(prog, pointsto.Config{
				ObjSensContainers: objSens,
				ContainerClasses:  prelude.ContainerClasses,
				Budget:            budget.New(nil, budget.WithSteps(steps)),
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !res.Truncated && !res.Downgraded {
				// Generous caps may finish; nothing to assert then.
				continue
			}
			if res.Truncated && res.LimitErr == nil {
				t.Errorf("%s: truncated result missing LimitErr", label)
			}
			// A downgraded or truncated-CI run under-approximates the
			// CI fixpoint. (A truncated obj-sens run without downgrade
			// cannot occur: exhaustion always triggers the CI restart.)
			if objSens && !res.Downgraded {
				t.Errorf("%s: exhausted obj-sens run did not downgrade", label)
				continue
			}
			subsetOf(t, label, summarize(prog, res), fullCISum)
		}
	}
}

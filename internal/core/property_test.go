package core_test

import (
	"testing"
	"testing/quick"

	"thinslice/internal/analysis/modref"
	"thinslice/internal/analyzer"
	"thinslice/internal/core/expand"
	"thinslice/internal/csslice"
	"thinslice/internal/ir"
	"thinslice/internal/randprog"
	"thinslice/internal/sdg"
)

// analyzeSeed builds the full pipeline for one random program.
func analyzeSeed(t *testing.T, seed int64) *analyzer.Analysis {
	t.Helper()
	a, err := analyzer.Analyze(randprog.Generate(seed, randprog.DefaultConfig))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return a
}

// printSeeds collects up to n Print statements of the entry method as
// slicing seeds.
func printSeeds(a *analyzer.Analysis, n int) []ir.Instr {
	var out []ir.Instr
	for _, m := range a.Pts.Entries() {
		m.Instrs(func(ins ir.Instr) {
			if len(out) < n {
				if _, ok := ins.(*ir.Print); ok {
					out = append(out, ins)
				}
			}
		})
	}
	return out
}

// Property: thin ⊆ traditional(no control) ⊆ traditional(control) on
// random programs, and every slice contains its seed.
func TestPropertySliceInclusion(t *testing.T) {
	f := func(seed int64) bool {
		a := analyzeSeed(t, seed)
		thin := a.ThinSlicer()
		tnc := a.TraditionalSlicer(false)
		tc := a.TraditionalSlicer(true)
		for _, s := range printSeeds(a, 6) {
			st := thin.Slice(s)
			snc := tnc.Slice(s)
			sc := tc.Slice(s)
			if !st.Contains(s) {
				t.Logf("seed %d: slice lost its seed", seed)
				return false
			}
			for _, ins := range st.Instrs() {
				if !snc.Contains(ins) {
					t.Logf("seed %d: thin ⊄ trad-nc at %s", seed, ins)
					return false
				}
			}
			for _, ins := range snc.Instrs() {
				if !sc.Contains(ins) {
					t.Logf("seed %d: trad-nc ⊄ trad-c at %s", seed, ins)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: slicing is monotone in seeds — the slice of {s1, s2}
// contains the union of the singleton slices' statements.
func TestPropertySeedMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		a := analyzeSeed(t, seed)
		thin := a.ThinSlicer()
		seeds := printSeeds(a, 2)
		if len(seeds) < 2 {
			return true
		}
		both := thin.Slice(seeds...)
		for _, s := range seeds {
			for _, ins := range thin.Slice(s).Instrs() {
				if !both.Contains(ins) {
					t.Logf("seed %d: union slice missing %s", seed, ins)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: slicing is idempotent under re-query — slicing twice from
// the same seed yields identical statement sets (determinism).
func TestPropertySliceDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := analyzeSeed(t, seed)
		thin := a.ThinSlicer()
		for _, s := range printSeeds(a, 3) {
			x := thin.Slice(s).Instrs()
			y := thin.Slice(s).Instrs()
			if len(x) != len(y) {
				return false
			}
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: the unfiltered expansion fixpoint covers the traditional
// slice with control dependences (the §2 limit claim), on random
// programs.
func TestPropertyExpansionCoversTraditional(t *testing.T) {
	f := func(seed int64) bool {
		a := analyzeSeed(t, seed)
		trad := a.TraditionalSlicer(true)
		for _, s := range printSeeds(a, 2) {
			limit := expand.ExpandToTraditional(a.Graph, s)
			for _, ins := range trad.Slice(s).Instrs() {
				if !limit[ins] {
					t.Logf("seed %d: expansion missing %s", seed, ins)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: the context-sensitive thin slice never covers more source
// lines than the context-insensitive one (realizable paths are a
// subset of all paths).
func TestPropertyCSWithinCI(t *testing.T) {
	f := func(seed int64) bool {
		a := analyzeSeed(t, seed)
		mr := modref.Compute(a.Prog, a.Pts)
		g := csslice.Build(a.Prog, a.Pts, mr)
		cs := csslice.NewSlicer(g, true, false)
		ci := a.ThinSlicer()
		for _, s := range printSeeds(a, 3) {
			ciLines := make(map[string]bool)
			for _, p := range ci.Slice(s).Lines() {
				ciLines[p.String()] = true
			}
			for p := range csslice.SliceLines(cs.Slice(s)) {
				if !ciLines[p.String()] {
					t.Logf("seed %d: CS line %s not in CI slice", seed, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// Property: thin slices ignore base-pointer provenance — removing base
// edges from consideration means a thin slice never includes a
// statement whose only connection is through base/control edges.
// Concretely: every member (other than Via call sites) is reachable
// from the seed through producer edges alone, which we re-verify with
// an independent traversal.
func TestPropertyThinMembersProducerReachable(t *testing.T) {
	f := func(seed int64) bool {
		a := analyzeSeed(t, seed)
		thin := a.ThinSlicer()
		for _, s := range printSeeds(a, 3) {
			sl := thin.Slice(s)
			// Independent closure over producer edges at node level.
			reach := make(map[int64]bool)
			var stack []int64
			for _, n := range a.Graph.NodesOf(s) {
				reach[int64(n)] = true
				stack = append(stack, int64(n))
			}
			viaOK := make(map[int64]bool)
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				a.Graph.EachDep(sdg.Node(n), func(d sdg.Dep) {
					if !d.Kind.IsProducerFlow() {
						return
					}
					if d.Via >= 0 {
						viaOK[int64(d.Via)] = true
					}
					if !reach[int64(d.Src)] {
						reach[int64(d.Src)] = true
						stack = append(stack, int64(d.Src))
					}
				})
			}
			for _, n := range sl.Nodes() {
				if !reach[int64(n)] && !viaOK[int64(n)] {
					t.Logf("seed %d: thin member %s not producer-reachable", seed, a.Graph.InstrOf(n))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

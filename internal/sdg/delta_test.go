package sdg_test

import (
	"bytes"
	"strings"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/depgraph"
	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/sdg"
)

// sdgDeltaProg covers virtual dispatch, fields, statics, arrays, a
// container, branches (for control edges), and an unreachable method.
const sdgDeltaProg = `
class Box {
  Object val;
  void put(Object v) { this.val = v; }
  Object get() { return this.val; }
}
class Leaf {
  int twice(int x) { if (x > 0) { return x + x; } return 0; }
  Object wrap(Box b) { return b.get(); }
}
class Store {
  static Object cell;
  static void stash(Object o) { Store.cell = o; }
  static Object grab() { return Store.cell; }
}
class Dead {
  Object never(Box b) { return b.get(); }
}
class Main {
  static void main() {
    Box b = new Box();
    Leaf l = new Leaf();
    b.put(l);
    Object got = l.wrap(b);
    Store.stash(got);
    Object back = Store.grab();
    Vector list = new Vector();
    list.add(b);
    Object popped = list.get(0);
    Object[] arr = new Object[2];
    arr[0] = popped;
    Object out = arr[1];
    int n = l.twice(3);
  }
}
`

// sdgDeltaPipeline runs the incremental SDG pipeline over one edit —
// the new revision's points-to solve feeding sdg.BuildDelta off the old
// revision's templates — and returns the delta graph, its stats, and
// the cold graph of the new revision.
func sdgDeltaPipeline(t *testing.T, oldSrcs, newSrcs map[string]string, objSens bool) (*sdg.Graph, sdg.DeltaStats, *sdg.Graph) {
	t.Helper()
	oldInfo, err := loader.Load(oldSrcs)
	if err != nil {
		t.Fatalf("load old: %v", err)
	}
	newInfo, err := loader.Load(newSrcs)
	if err != nil {
		t.Fatalf("load new: %v", err)
	}
	oldProg, newProg := ir.Lower(oldInfo), ir.Lower(newInfo)
	if len(oldProg.Diags) > 0 || len(newProg.Diags) > 0 {
		t.Fatalf("lowering diagnostics: %v %v", oldProg.Diags, newProg.Diags)
	}
	d := depgraph.Diff(depgraph.Build(oldInfo), depgraph.Build(newInfo))
	changed := append(append(append([]string(nil), d.Changed...), d.Removed...), d.Added...)
	cfg := pointsto.Config{
		ObjSensContainers: objSens,
		ContainerClasses:  prelude.ContainerClasses,
	}
	oldPts, err := pointsto.Analyze(oldProg, cfg)
	if err != nil {
		t.Fatalf("cold solve (old): %v", err)
	}
	oldGraph, state, _, _ := sdg.BuildDelta(oldProg, oldPts, nil, nil, nil)
	assertGraphsIdentical(t, "cold-path", oldGraph, sdg.Build(oldProg, oldPts))

	newPts, err := pointsto.Analyze(newProg, cfg)
	if err != nil {
		t.Fatalf("cold solve (new): %v", err)
	}
	deltaGraph, _, stats, _ := sdg.BuildDelta(newProg, newPts, state, changed, nil)
	return deltaGraph, stats, sdg.Build(newProg, newPts)
}

// assertGraphsIdentical pins both oracles: the structural fingerprint
// and the exact codec payload bytes.
func assertGraphsIdentical(t *testing.T, label string, got, want *sdg.Graph) {
	t.Helper()
	if gf, wf := got.Fingerprint(), want.Fingerprint(); gf != wf {
		t.Errorf("%s: fingerprint mismatch\n got %s\nwant %s", label, gf, wf)
	}
	gb, err := sdg.EncodeGraph(got)
	if err != nil {
		t.Fatalf("%s: encode got: %v", label, err)
	}
	wb, err := sdg.EncodeGraph(want)
	if err != nil {
		t.Fatalf("%s: encode want: %v", label, err)
	}
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: codec payloads differ (%d vs %d bytes)", label, len(gb), len(wb))
	}
}

func TestBuildDeltaEquivalence(t *testing.T) {
	oldSrcs := map[string]string{"prog.tj": sdgDeltaProg}
	cases := []struct {
		name     string
		from, to string
		// wantReused asserts the delta actually reused templates: local
		// edits must leave most methods' derivation state intact.
		wantReused int
	}{
		{"leaf-body", "return x + x;", "return x * 2;", 5},
		{"field-load", "return this.val;", "Object v = this.val; return v;", 5},
		{"static-store", "Store.cell = o;", "Object t = o; Store.cell = t;", 5},
		{"control-edit", "if (x > 0) { return x + x; }", "if (x > 1) { return x + x + x; }", 5},
		{"main-body", "int n = l.twice(3);", "int n = l.twice(4);", 5},
	}
	for _, objSens := range []bool{true, false} {
		mode := map[bool]string{true: "objsens", false: "ci"}[objSens]
		for _, tc := range cases {
			t.Run(mode+"/"+tc.name, func(t *testing.T) {
				edited := strings.Replace(sdgDeltaProg, tc.from, tc.to, 1)
				if edited == sdgDeltaProg {
					t.Fatalf("edit %q not applied", tc.from)
				}
				newSrcs := map[string]string{"prog.tj": edited}
				delta, stats, cold := sdgDeltaPipeline(t, oldSrcs, newSrcs, objSens)
				assertGraphsIdentical(t, tc.name, delta, cold)
				if stats.TemplatesReused < tc.wantReused {
					t.Errorf("%s: reused %d templates, want at least %d (stats %+v)",
						tc.name, stats.TemplatesReused, tc.wantReused, stats)
				}
			})
		}
	}
}

// TestBuildDeltaIdentity rebuilds with no edit at all: every template
// must be reused and the graph must round-trip byte-identically.
func TestBuildDeltaIdentity(t *testing.T) {
	info, err := loader.Load(map[string]string{"prog.tj": sdgDeltaProg})
	if err != nil {
		t.Fatal(err)
	}
	prog := ir.Lower(info)
	pts, err := pointsto.Analyze(prog, pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold, state, first, _ := sdg.BuildDelta(prog, pts, nil, nil, nil)
	if first.TemplatesReused != 0 || first.TemplatesBuilt == 0 {
		t.Fatalf("cold build stats %+v", first)
	}
	again, _, stats, _ := sdg.BuildDelta(prog, pts, state, nil, nil)
	assertGraphsIdentical(t, "identity", again, cold)
	if stats.TemplatesBuilt != 0 {
		t.Errorf("identity rebuild derived %d templates, want 0 (stats %+v)", stats.TemplatesBuilt, stats)
	}
}

// TestBuildDeltaStaleTemplateGuard feeds BuildDelta a state whose
// template no longer matches the body (the caller "forgot" to list the
// method as changed) where the instruction count differs: the size
// guard must rebuild rather than replay garbage.
func TestBuildDeltaStaleTemplateGuard(t *testing.T) {
	oldSrc := map[string]string{"prog.tj": sdgDeltaProg}
	newSrc := map[string]string{"prog.tj": strings.Replace(sdgDeltaProg,
		"return this.val;", "Object v = this.val; return v;", 1)}
	oldInfo, _ := loader.Load(oldSrc)
	newInfo, _ := loader.Load(newSrc)
	oldProg, newProg := ir.Lower(oldInfo), ir.Lower(newInfo)
	oldPts, err := pointsto.Analyze(oldProg, pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	newPts, err := pointsto.Analyze(newProg, pointsto.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, state, _, _ := sdg.BuildDelta(oldProg, oldPts, nil, nil, nil)
	// Deliberately empty changed list: Box.get grew by one instruction,
	// so its stale template must be caught by the size guard.
	delta, _, _, _ := sdg.BuildDelta(newProg, newPts, state, nil, nil)
	assertGraphsIdentical(t, "stale-guard", delta, sdg.Build(newProg, newPts))
}

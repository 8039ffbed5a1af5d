package depgraph_test

import (
	"reflect"
	"strings"
	"testing"

	"thinslice/internal/depgraph"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/types"
)

const progA = `
class Util {
  int twice(int x) { return x + x; }
  int thrice(int x) { return x + this.twice(x); }
}
class Main {
  static void main() {
    Util u = new Util();
    int r = u.thrice(3);
  }
}
`

func check(t *testing.T, srcs map[string]string) *types.Info {
	t.Helper()
	info, err := loader.LoadBare(srcs)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return info
}

func build(t *testing.T, srcs map[string]string) *depgraph.Graph {
	t.Helper()
	return depgraph.Build(check(t, srcs))
}

func unitKeys(g *depgraph.Graph) map[string]string {
	m := make(map[string]string, len(g.Units))
	for _, u := range g.Units {
		m[u.QName] = u.Key
	}
	return m
}

func TestBuildDeterministic(t *testing.T) {
	srcs := map[string]string{"a.tj": progA}
	g1, g2 := build(t, srcs), build(t, srcs)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("fingerprints differ across identical builds")
	}
	if !reflect.DeepEqual(g1.Units, g2.Units) {
		t.Fatalf("units differ across identical builds")
	}
}

func TestUnitsAndRefs(t *testing.T) {
	g := build(t, map[string]string{"a.tj": progA})
	want := []string{"Util.<init>", "Util.twice", "Util.thrice", "Main.main"}
	var got []string
	for _, u := range g.Units {
		got = append(got, u.QName)
	}
	for _, q := range want {
		found := false
		for _, h := range got {
			if h == q {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing unit %q in %v", q, got)
		}
	}
	thrice, ok := g.Unit("Util.thrice")
	if !ok {
		t.Fatal("no Util.thrice unit")
	}
	if !reflect.DeepEqual(thrice.Refs, []string{"Util.twice"}) {
		t.Fatalf("Util.thrice refs = %v, want [Util.twice]", thrice.Refs)
	}
	main, _ := g.Unit("Main.main")
	wantRefs := []string{"Util.<init>", "Util.thrice"}
	if !reflect.DeepEqual(main.Refs, wantRefs) {
		t.Fatalf("Main.main refs = %v, want %v", main.Refs, wantRefs)
	}
	ctor, ok := g.Unit("Util.<init>")
	if !ok || !ctor.Synthesized {
		t.Fatalf("Util.<init> should be a synthesized unit, got %+v ok=%v", ctor, ok)
	}
}

func TestDiffBodyEditIsLocal(t *testing.T) {
	old := build(t, map[string]string{"a.tj": progA})
	// Change only twice's body, preserving all positions outside it.
	edited := strings.Replace(progA, "return x + x;", "return x * 2;", 1)
	if edited == progA {
		t.Fatal("edit did not apply")
	}
	new := build(t, map[string]string{"a.tj": edited})
	d := depgraph.Diff(old, new)
	if !reflect.DeepEqual(d.Changed, []string{"Util.twice"}) || len(d.Added) != 0 || len(d.Removed) != 0 {
		t.Fatalf("body edit delta = %+v, want exactly Changed=[Util.twice]", d)
	}
}

func TestDiffSignatureEditInvalidatesReferencers(t *testing.T) {
	old := build(t, map[string]string{"a.tj": progA})
	// Rename twice → twicex (same length, positions preserved) and fix
	// its one call site (also same length).
	edited := strings.Replace(progA, "int twice(", "int twicex(", 1)
	edited = strings.Replace(edited, "this.twice(x)", "this.twicex(x)", 1)
	// Keep source length drift from shifting later lines: the two edits
	// are on separate lines, so only those lines' columns shift.
	new := build(t, map[string]string{"a.tj": edited})
	d := depgraph.Diff(old, new)
	if !reflect.DeepEqual(d.Added, []string{"Util.twicex"}) || !reflect.DeepEqual(d.Removed, []string{"Util.twice"}) {
		t.Fatalf("rename delta = %+v, want Added=[Util.twicex] Removed=[Util.twice]", d)
	}
	// Every unit whose key depends on class Util must change: the deep
	// class fingerprint shifted. Util.thrice calls it; Main.main
	// references Util.
	changed := map[string]bool{}
	for _, q := range d.Changed {
		changed[q] = true
	}
	for _, q := range []string{"Util.thrice", "Main.main", "Util.<init>"} {
		if !changed[q] {
			t.Errorf("signature change should invalidate %s; delta %+v", q, d)
		}
	}
}

func TestDiffAcrossFiles(t *testing.T) {
	multi := map[string]string{
		"util.tj": "class Util {\n  int twice(int x) { return x + x; }\n}\n",
		"main.tj": "class Main {\n  static void main() {\n    Util u = new Util();\n    int r = u.twice(2);\n  }\n}\n",
		"far.tj":  "class Far {\n  int solo(int y) { return y - 1; }\n}\n",
	}
	old := build(t, multi)
	edited := map[string]string{}
	for k, v := range multi {
		edited[k] = v
	}
	edited["util.tj"] = strings.Replace(multi["util.tj"], "x + x", "x * 2", 1)
	new := build(t, edited)
	d := depgraph.Diff(old, new)
	if !reflect.DeepEqual(d.Changed, []string{"Util.twice"}) {
		t.Fatalf("cross-file body edit delta = %+v, want Changed=[Util.twice] only", d)
	}
	if _, ok := new.Unit("Far.solo"); !ok {
		t.Fatal("Far.solo missing")
	}
	if unitKeys(old)["Far.solo"] != unitKeys(new)["Far.solo"] {
		t.Fatal("unrelated file's unit key changed")
	}
}

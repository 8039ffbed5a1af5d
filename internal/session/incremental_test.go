package session_test

import (
	"bytes"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// The incremental fixture: three files, so a one-method edit leaves
// whole files (and the prelude) untouched. The Alpha edit below swaps
// one line for another of the same shape, so no other declaration's
// positions move and exactly one depgraph unit key changes.
const incAlpha = `class Alpha {
    int val;
    void set(int v) { this.val = v; }
    int get() { return this.val; }
    int bump(int x) { return x + 1; }
}
`

const incAlphaEdited = `class Alpha {
    int val;
    void set(int v) { this.val = v; }
    int get() { return this.val; }
    int bump(int x) { return x + 2; }
}
`

const incBeta = `class Beta {
    static int scale(int x) { return x * 3; }
}
`

const incBetaEdited = `class Beta {
    static int scale(int x) { return x * 4; }
}
`

const incMain = `class Main {
    static void main() {
        Alpha a = new Alpha();
        a.set(Beta.scale(2));
        int x = a.bump(a.get());
        print(x);
    }
}
`

func incSources() map[string]string {
	return map[string]string{"alpha.mj": incAlpha, "beta.mj": incBeta, "main.mj": incMain}
}

// assertMatchesColdBuild pins the incremental session's points-to
// result and dependence graph byte-identical (codec payload and
// fingerprint) to a fresh non-incremental session over the same
// sources.
func assertMatchesColdBuild(t *testing.T, s *session.Session, srcs map[string]string) {
	t.Helper()
	pts, err := s.PointsTo()
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cold := session.Open(srcs)
	cpts, err := cold.PointsTo()
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cold.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if gf, cf := g.Fingerprint(), cg.Fingerprint(); gf != cf {
		t.Errorf("sdg fingerprint diverged from cold build\n incr %s\n cold %s", gf, cf)
	}
	gb, err := sdg.EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sdg.EncodeGraph(cg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, cb) {
		t.Errorf("sdg codec payload diverged from cold build (%d vs %d bytes)", len(gb), len(cb))
	}
	pb, err := pointsto.EncodeResult(pts)
	if err != nil {
		t.Fatal(err)
	}
	cpb, err := pointsto.EncodeResult(cpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, cpb) {
		t.Errorf("points-to codec payload diverged from cold build (%d vs %d bytes)", len(pb), len(cpb))
	}
}

// TestIncrementalSingleMethodEdit is the tentpole acceptance gate:
// after editing one method body in a multi-file program, the session
// re-lowers exactly that unit, re-solves points-to once, rebuilds the
// SDG off the previous templates, and the results are byte-identical to
// a from-scratch build.
func TestIncrementalSingleMethodEdit(t *testing.T) {
	srcs := incSources()
	s := session.Open(srcs, session.WithIncremental())
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	depg, err := s.Depgraph()
	if err != nil {
		t.Fatal(err)
	}
	units := len(depg.Units)
	cold := s.Stats()
	if cold.Lowers != 0 || cold.UnitLowers != units || cold.UnitReuses != 0 {
		t.Fatalf("cold incremental build did not lower via units: %+v (units %d)", cold, units)
	}
	if cold.PointsTos != 1 || cold.DeltaSolves != 0 || cold.SDGs != 1 || cold.DeltaSDGs != 0 {
		t.Fatalf("cold incremental build ran unexpected phases: %+v", cold)
	}

	srcs["alpha.mj"] = incAlphaEdited
	s.Update("alpha.mj", incAlphaEdited)
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	warm := s.Stats()
	want := cold
	want.Parses++
	want.Checks++
	want.Depgraphs++
	want.UnitLowers++            // Alpha.bump, and nothing else
	want.UnitReuses += units - 1 // every other unit cloned from the store
	want.PointsTos++
	want.DeltaSDGs++
	if warm != want {
		t.Fatalf("single-method edit re-derived the wrong artifacts:\ncold %+v\nwarm %+v\nwant %+v", cold, warm, want)
	}
	assertMatchesColdBuild(t, s, srcs)
}

// TestUpdateFastPathNoInvalidation pins the Update fast path: writing
// identical content back re-runs no phase and misses no store entry.
func TestUpdateFastPathNoInvalidation(t *testing.T) {
	s := session.Open(incSources(), session.WithIncremental())
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	misses := s.Store().Stats().Misses

	s.Update("alpha.mj", incAlpha)
	s.Update("beta.mj", incBeta)
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != stats {
		t.Fatalf("identical-content update re-ran phases:\nbefore %+v\nafter  %+v", stats, got)
	}
	if got := s.Store().Stats().Misses; got != misses {
		t.Fatalf("identical-content update missed the store: %d -> %d misses", misses, got)
	}
}

// TestRemoveReAddReusesUnits removes a file, edits another, then
// re-adds the removed file with identical content: its units must come
// back from the shared store without a single fresh lowering.
func TestRemoveReAddReusesUnits(t *testing.T) {
	// standalone.mj is referenced by nothing, so removing it leaves every
	// other unit key (and the typed program's health) intact.
	srcs := map[string]string{
		"standalone.mj": incAlpha,
		"beta.mj":       incBeta,
		"main.mj": `class Main {
    static void main() {
        int x = Beta.scale(5);
        print(x);
    }
}
`,
	}
	s := session.Open(srcs, session.WithIncremental())
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	full, err := s.Depgraph()
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	// Remove: the surviving units are all reused.
	s.Remove("standalone.mj")
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	shrunk, err := s.Depgraph()
	if err != nil {
		t.Fatal(err)
	}
	mid := s.Stats()
	if got, want := mid.UnitLowers-before.UnitLowers, 0; got != want {
		t.Fatalf("removal re-lowered %d units, want %d", got, want)
	}
	if got, want := mid.UnitReuses-before.UnitReuses, len(shrunk.Units); got != want {
		t.Fatalf("removal reused %d units, want %d", got, want)
	}
	if mid.PointsTos != before.PointsTos+1 || mid.DeltaSolves != 0 {
		t.Fatalf("removal did not re-solve points-to once: %+v -> %+v", before, mid)
	}

	// Edit the surviving file so the re-add below cannot be a whole-
	// artifact cache hit — it must go through the unit layer.
	s.Update("beta.mj", incBetaEdited)
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	edited := s.Stats()
	if got := edited.UnitLowers - mid.UnitLowers; got != 1 {
		t.Fatalf("one-method edit re-lowered %d units, want 1", got)
	}

	// Re-add the identical file: every one of its units is still in the
	// store under its content key.
	srcs["standalone.mj"] = incAlpha
	srcs["beta.mj"] = incBetaEdited
	s.Update("standalone.mj", incAlpha)
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.UnitLowers - edited.UnitLowers; got != 0 {
		t.Fatalf("re-adding an identical file re-lowered %d units, want 0", got)
	}
	if got, want := after.UnitReuses-edited.UnitReuses, len(full.Units); got != want {
		t.Fatalf("re-add reused %d units, want %d", got, want)
	}
	if after.PointsTos != edited.PointsTos+1 || after.DeltaSolves != 0 {
		t.Fatalf("re-add did not re-solve points-to once: %+v -> %+v", edited, after)
	}
	assertMatchesColdBuild(t, s, srcs)
}

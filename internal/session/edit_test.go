package session_test

import (
	"bytes"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// The edit fixture: three files, so an edit to one leaves whole files
// (and the prelude) untouched.
const incAlpha = `class Alpha {
    int val;
    void set(int v) { this.val = v; }
    int get() { return this.val; }
    int bump(int x) { return x + 1; }
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

// assertMatchesColdBuild pins an edited session's points-to result and
// dependence graph byte-identical (codec payload and fingerprint) to a
// fresh session over the same sources.
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
		t.Errorf("sdg fingerprint diverged from cold build\n edited %s\n cold   %s", gf, cf)
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

// TestUpdateFastPathNoInvalidation pins the Update fast path: writing
// identical content back re-runs no phase and misses no store entry.
func TestUpdateFastPathNoInvalidation(t *testing.T) {
	s := session.Open(incSources())
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

// TestRemoveEditReAddMatchesColdBuild removes a file, edits another,
// then re-adds the removed file with identical content. Each step
// re-solves points-to once and answers with the bytes of a fresh
// session over the same sources; the edit sweep never removes a file.
func TestRemoveEditReAddMatchesColdBuild(t *testing.T) {
	// standalone.mj is referenced by nothing, so removing it leaves the
	// typed program healthy.
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
	s := session.Open(srcs)
	assertMatchesColdBuild(t, s, srcs)
	for _, step := range []struct {
		name   string
		file   string
		src    string
		remove bool
	}{
		{name: "remove", file: "standalone.mj", remove: true},
		// The edit keeps the re-add below from being a store hit on the
		// first revision.
		{name: "edit", file: "beta.mj", src: incBetaEdited},
		{name: "re-add", file: "standalone.mj", src: incAlpha},
	} {
		before := s.Stats()
		if step.remove {
			delete(srcs, step.file)
			s.Remove(step.file)
		} else {
			srcs[step.file] = step.src
			s.Update(step.file, step.src)
		}
		assertMatchesColdBuild(t, s, srcs)
		if got := s.Stats().PointsTos - before.PointsTos; got != 1 {
			t.Errorf("%s: %d points-to solves, want 1", step.name, got)
		}
	}
}

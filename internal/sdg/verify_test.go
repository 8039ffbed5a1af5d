package sdg_test

import (
	"testing"

	"thinslice/internal/analyzer"
	"thinslice/internal/papercases"
	"thinslice/internal/sdg"
)

// TestVerifyGraphDetectsCorruption proves the verifier rejects each
// class of malformed graph it claims to check — it is only a useful
// gate for the equivalence sweeps if corruption actually fails it.
func TestVerifyGraphDetectsCorruption(t *testing.T) {
	fresh := func(t *testing.T) *sdg.Graph {
		a, err := analyzer.Analyze(map[string]string{papercases.FileBugFile: papercases.FileBug})
		if err != nil {
			t.Fatal(err)
		}
		return a.Graph
	}
	if errs := sdg.VerifyGraph(fresh(t)); len(errs) > 0 {
		t.Fatalf("well-formed graph fails VerifyGraph: %v", errs[0])
	}
	for _, name := range []string{"offset-nonmonotone", "dep-out-of-bounds", "shared-out-of-bounds", "via-on-local",
		"control-in-scan", "calls-of-other-context", "context-dropped"} {
		t.Run(name, func(t *testing.T) {
			g := fresh(t)
			if !sdg.CorruptForTest(g, name) {
				t.Fatalf("corruption %q not applicable", name)
			}
			if errs := sdg.VerifyGraph(g); len(errs) == 0 {
				t.Errorf("corrupted graph (%s) passed VerifyGraph", name)
			}
		})
	}
}

package sdg_test

import (
	"testing"

	"thinslice/internal/analyzer"
	"thinslice/internal/bench"
	"thinslice/internal/budget"
	"thinslice/internal/sdg"
)

// TestStepCapTruncationIsDeterministic sweeps step caps over nanoxml@1
// and javac@1, whose loads share heap lists, from a cap that stops the
// first context to one the build never reaches. Under each cap,
// repeated builds must agree byte for byte, the partial graph must be
// well formed, and every node's logical row, read through the ordered
// walk, must be a prefix of its row in the complete graph.
func TestStepCapTruncationIsDeterministic(t *testing.T) {
	for _, prog := range []string{"nanoxml", "javac"} {
		t.Run(prog, func(t *testing.T) {
			a, err := analyzer.Analyze(bench.Generate(prog, 1).Sources)
			if err != nil {
				t.Fatal(err)
			}
			full := sdg.Build(a.Prog, a.Pts)
			build := func(steps int64) *sdg.Graph {
				g, err := sdg.BuildBudget(a.Prog, a.Pts, budget.New(nil, budget.WithSteps(steps)))
				if err != nil {
					t.Fatalf("cap %d: %v", steps, err)
				}
				return g
			}
			// About 60 caps up to the complete build's node and edge count.
			stride := int64(max(250, (full.NumNodes()+full.NumEdges())/60))
			truncated, cutRows := 0, 0
			for steps := stride; ; steps += stride {
				if steps > 1<<22 {
					t.Fatal("no cap up to 2^22 steps completed the build")
				}
				g := build(steps)
				if !g.Truncated {
					if g.Fingerprint() != full.Fingerprint() {
						t.Fatalf("cap %d: untruncated graph differs from the unmetered build", steps)
					}
					break
				}
				truncated++
				if errs := sdg.VerifyGraph(g); len(errs) > 0 {
					t.Fatalf("cap %d: VerifyGraph: %v", steps, errs[0])
				}
				for rep := 0; rep < 4; rep++ {
					if again := build(steps); again.Fingerprint() != g.Fingerprint() {
						t.Fatalf("cap %d: build %d truncated differently (%d vs %d edges)",
							steps, rep+2, again.NumEdges(), g.NumEdges())
					}
				}
				for n := 0; n < g.NumNodes(); n++ {
					got, want := deps(g, sdg.Node(n)), deps(full, sdg.Node(n))
					if len(got) > len(want) {
						t.Fatalf("cap %d: node %d has %d deps, complete graph %d", steps, n, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("cap %d: node %d dep %d is %+v, complete graph has %+v", steps, n, i, got[i], want[i])
						}
					}
					if len(got) > 0 && len(got) < len(want) {
						cutRows++
					}
				}
			}
			if truncated < 8 {
				t.Fatalf("only %d caps truncated the build; the sweep is too coarse", truncated)
			}
			if cutRows == 0 {
				t.Fatal("no cap cut a row short")
			}
		})
	}
}

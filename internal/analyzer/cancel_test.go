package analyzer_test

import (
	"context"
	"testing"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/faults"
	"thinslice/internal/papercases"
	"thinslice/internal/session"
)

// cancelDuringPhase runs AnalyzeCtx with a context that is cancelled
// exactly as phase p begins — after the phase-boundary check, so the
// cancellation must be noticed mid-phase by the running analysis, not
// at the door. It asserts the typed error, the phase tag, promptness,
// and that nothing poisoned survives in the shared store.
func cancelDuringPhase(t *testing.T, p budget.Phase) {
	t.Helper()
	sources := map[string]string{papercases.FirstNamesFile: papercases.FirstNames}
	st := session.NewStore()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := faults.NewRegistry()
	// Call fires after the boundary's budget.Err check: the phase is
	// committed to running when the context dies under it.
	reg.Add(faults.Rule{Phase: p, Mode: faults.Call, Times: 1, Func: func() error {
		cancel()
		return nil
	}})
	uninstall := reg.Install()

	start := time.Now()
	_, err := analyzer.AnalyzeCtx(ctx, sources, analyzer.InStore(st))
	elapsed := time.Since(start)
	uninstall()

	if !budget.IsCanceled(err) {
		t.Fatalf("AnalyzeCtx = %v, want a canceled budget error", err)
	}
	if phase, _ := budget.PhaseOf(err); phase != p {
		t.Fatalf("cancellation attributed to phase %q, want %q (mid-phase detection)", phase, p)
	}
	// Promptness: the pipeline must abandon work at the next
	// cancellation check, far inside any deadline epsilon.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled analysis took %v to return", elapsed)
	}

	// Nothing truncated was cached: a clean re-run over the same
	// store succeeds completely.
	a, err := analyzer.AnalyzeCtx(context.Background(), sources, analyzer.InStore(st))
	if err != nil {
		t.Fatalf("re-run after cancellation: %v", err)
	}
	if a.Partial() || a.Pts.Truncated || a.Pts.Downgraded || a.Graph.Truncated {
		t.Fatal("a truncated artifact from the cancelled run was cached")
	}
}

func TestCancelDuringPointsTo(t *testing.T) { cancelDuringPhase(t, budget.PhasePointsTo) }
func TestCancelDuringSDGBuild(t *testing.T) { cancelDuringPhase(t, budget.PhaseSDG) }

// TestDeadlineDuringAnalysisIsPrompt drives the whole pipeline into a
// wall-clock deadline mid-run (an injected slow build eats the budget)
// and asserts the return is prompt and typed rather than the sleep-
// then-finish worst case.
func TestDeadlineDuringAnalysisIsPrompt(t *testing.T) {
	sources := map[string]string{papercases.FirstNamesFile: papercases.FirstNames}
	reg := faults.NewRegistry()
	reg.Add(faults.Rule{Phase: budget.PhasePointsTo, Mode: faults.Sleep, Delay: 150 * time.Millisecond})
	defer reg.Install()()

	start := time.Now()
	_, err := analyzer.Analyze(sources,
		analyzer.WithBudget(budget.New(context.Background(), budget.WithTimeout(50*time.Millisecond))))
	elapsed := time.Since(start)
	if !budget.IsCanceled(err) {
		t.Fatalf("Analyze = %v, want a canceled (deadline) budget error", err)
	}
	// The sleep holds the phase past its deadline; the pipeline must
	// notice at the first post-sleep check, not run to completion.
	if elapsed > 2*time.Second {
		t.Fatalf("deadline overrun: analysis returned after %v", elapsed)
	}
}

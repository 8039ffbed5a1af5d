package analyzer_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/papercases"
)

// adversarialCorpus is a table of malformed and pathological inputs.
// Each must come back from Analyze without panicking and within the
// per-case budget — with either a useful result or a descriptive error.
var adversarialCorpus = []struct {
	name string
	src  string
}{
	{"unterminated loop", `class Main {
		static void main() { int x = 0; while (true) { x = x + 1; } print(x); }
	}`},
	{"nested unterminated loops", `class Main {
		static void main() {
			while (true) { while (true) { while (true) { print(1); } } }
		}
	}`},
	{"deep block nesting", "class Main { static void main() { " +
		strings.Repeat("if (1 < 2) { ", 200) + "print(1);" + strings.Repeat(" }", 200) +
		" } }"},
	{"deep expression nesting", "class Main { static void main() { int x = " +
		strings.Repeat("(1 + ", 200) + "1" + strings.Repeat(")", 200) + "; print(x); } }"},
	{"unresolved field", `class A { int x; }
	class Main { static void main() { A a = new A(); print(a.nope); } }`},
	{"unresolved method", `class Main { static void main() { Main.nothing(); } }`},
	{"unresolved variable", `class Main { static void main() { print(ghost); } }`},
	{"self-recursive container", `class Main {
		static void main() {
			Vector v = new Vector();
			v.add(v);
			Vector w = (Vector) v.get(0);
			w.add(w);
			print(w.size());
		}
	}`},
	{"mutually recursive classes", `class A { B b; A() { } }
	class B { A a; B() { } }
	class Main { static void main() {
		A a = new A(); B b = new B(); a.b = b; b.a = a;
		while (true) { a = b.a; b = a.b; }
	} }`},
	{"infinite recursion", `class Main {
		static int down(int n) { return Main.down(n + 1); }
		static void main() { print(Main.down(0)); }
	}`},
	{"parse garbage", "class {{{{"},
	{"binary garbage", "\x00\x01\x02\xff class Main"},
	{"empty class soup", strings.Repeat("class C%d { } ", 1) + "class Main { static void main() { print(1); } }"},
	{"unterminated string", `class Main { static void main() { print("oops); } }`},
	{"break outside loop", `class Main { static void main() { break; } }`},
	// Regression: member-level recovery used to stall on a token that
	// neither starts a type nor is consumed by sync(), looping forever.
	{"statement keyword at member level", `class A { if while for } class Main { static void main() { print(1); } }`},
	{"stray class keyword in body", `class A { class } class B { }`},
}

// TestAdversarialCorpusNoPanic is the paper-facade robustness contract:
// no user-supplied source may panic the pipeline or hang it past its
// budget.
func TestAdversarialCorpusNoPanic(t *testing.T) {
	for _, tc := range adversarialCorpus {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			a, err := analyzer.Analyze(map[string]string{"t.mj": tc.src},
				analyzer.WithBudget(budget.New(context.Background(), budget.WithTimeout(2*time.Second))))
			if elapsed := time.Since(start); elapsed > 2500*time.Millisecond {
				t.Fatalf("Analyze took %v, want ≈2s budget", elapsed)
			}
			var internal *budget.ErrInternal
			if errors.As(err, &internal) {
				t.Fatalf("internal panic leaked as error: %v\n%s", internal, internal.Stack)
			}
			if err == nil && a == nil {
				t.Fatal("nil analysis with nil error")
			}
		})
	}
}

// TestAnalyzeNeverPanicsProperty fuzzes Analyze with arbitrary strings:
// whatever the bytes, it must return (not panic) and any failure must
// be an ordinary error, not a recovered internal fault.
func TestAnalyzeNeverPanicsProperty(t *testing.T) {
	prop := func(src string) bool {
		a, err := analyzer.Analyze(map[string]string{"t.mj": src},
			analyzer.WithBudget(budget.New(context.Background(), budget.WithTimeout(2*time.Second))))
		var internal *budget.ErrInternal
		if errors.As(err, &internal) {
			t.Logf("source %q: internal fault %v", src, internal)
			return false
		}
		return err != nil || a != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeNeverPanicsOnMutatedValidSource mutates a known-good
// program (truncations and splices), which exercises far more of the
// parser and checker than random bytes do.
func TestAnalyzeNeverPanicsOnMutatedValidSource(t *testing.T) {
	base := papercases.FirstNames
	var cases []string
	for cut := 0; cut < len(base); cut += 97 {
		cases = append(cases, base[:cut])
		cases = append(cases, base[:cut]+"}"+base[cut:])
	}
	for i, src := range cases {
		a, err := analyzer.Analyze(map[string]string{"t.mj": src},
			analyzer.WithBudget(budget.New(context.Background(), budget.WithTimeout(2*time.Second))))
		var internal *budget.ErrInternal
		if errors.As(err, &internal) {
			t.Fatalf("mutation %d: internal fault %v\n%s", i, internal, internal.Stack)
		}
		if err == nil && a == nil {
			t.Fatalf("mutation %d: nil analysis with nil error", i)
		}
	}
}

// TestEntriesMismatchIsDescriptive: naming a non-existent entry must
// fail loudly, listing what could have been meant — not silently
// analyze an empty program.
func TestEntriesMismatchIsDescriptive(t *testing.T) {
	src := `
		class A { static void main() { print(1); } }
		class B { static void main() { print(2); } }
	`
	_, err := analyzer.Analyze(map[string]string{"t.mj": src},
		analyzer.WithEntries("C.main"))
	if err == nil {
		t.Fatal("want an error for a non-matching entry name")
	}
	for _, want := range []string{"C.main", "A.main", "B.main"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %s", err, want)
		}
	}
	// A matching name plus a bogus one still errors.
	_, err = analyzer.Analyze(map[string]string{"t.mj": src},
		analyzer.WithEntries("A.main", "Nope.never"))
	if err == nil || !strings.Contains(err.Error(), "Nope.never") {
		t.Fatalf("want error naming Nope.never, got %v", err)
	}
	// Exact matches keep working.
	a, err := analyzer.Analyze(map[string]string{"t.mj": src},
		analyzer.WithEntries("B.main"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pts.Entries()) != 1 || a.Pts.Entries()[0].Name() != "B.main" {
		t.Fatalf("entries: %v", a.Pts.Entries())
	}
}

// TestCanceledContextReturnsPromptly: a context canceled before (or
// during) the run surfaces as a typed, phase-tagged ErrCanceled within
// ~100ms regardless of program size.
func TestCanceledContextReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := analyzer.AnalyzeCtx(ctx, map[string]string{
		papercases.FirstNamesFile: papercases.FirstNames,
	})
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation noticed after %v, want < 100ms", elapsed)
	}
	if !budget.IsCanceled(err) {
		t.Fatalf("IsCanceled(%v) = false, want true", err)
	}
	if _, ok := budget.PhaseOf(err); !ok {
		t.Fatalf("error %v should carry a phase tag", err)
	}
}

// TestContextDeadlineBoundsAnalysis: an already-expired context
// deadline is equivalent to cancellation.
func TestContextDeadlineBoundsAnalysis(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := analyzer.AnalyzeCtx(ctx, map[string]string{
		papercases.FirstNamesFile: papercases.FirstNames,
	})
	if !budget.IsCanceled(err) {
		t.Fatalf("IsCanceled(%v) = false, want true", err)
	}
}

// TestStepExhaustionDegradesGracefully: a starved step budget must not
// error out — the pipeline downgrades precision and flags the partial
// result instead.
func TestStepExhaustionDegradesGracefully(t *testing.T) {
	a, err := analyzer.Analyze(map[string]string{
		papercases.FirstNamesFile: papercases.FirstNames,
	}, analyzer.WithBudget(budget.New(context.Background(), budget.WithSteps(20))))
	if err != nil {
		t.Fatalf("exhaustion should degrade, not fail: %v", err)
	}
	if !a.Pts.Downgraded {
		t.Error("points-to should have downgraded to context-insensitive")
	}
	if !a.Partial() {
		t.Error("analysis should be flagged partial")
	}
	// The partial graph still slices without error.
	sl := a.ThinSlicer().Slice()
	if sl == nil {
		t.Fatal("nil slice from partial analysis")
	}
}

// TestGenerousBudgetIsInvisible: limits far above a small program's
// needs change nothing.
func TestGenerousBudgetIsInvisible(t *testing.T) {
	unbounded, err := analyzer.Analyze(map[string]string{
		papercases.FirstNamesFile: papercases.FirstNames,
	})
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := analyzer.Analyze(map[string]string{
		papercases.FirstNamesFile: papercases.FirstNames,
	}, analyzer.WithBudget(budget.New(context.Background(),
		budget.WithTimeout(30*time.Second), budget.WithSteps(10_000_000))))
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Partial() || bounded.Pts.Downgraded {
		t.Fatal("generous budget must not truncate")
	}
	ub := unbounded.ThinSlicer().Slice(unbounded.SeedsAt(papercases.FirstNamesFile, papercases.Line(papercases.FirstNames, "SEED"))...)
	bb := bounded.ThinSlicer().Slice(bounded.SeedsAt(papercases.FirstNamesFile, papercases.Line(papercases.FirstNames, "SEED"))...)
	if ub.Size() != bb.Size() {
		t.Fatalf("bounded slice size %d != unbounded %d", bb.Size(), ub.Size())
	}
}

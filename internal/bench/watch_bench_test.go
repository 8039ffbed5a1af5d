package bench_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"thinslice/internal/core"
	"thinslice/internal/session"
)

// --- recorded watch-mode benchmark artifact ---
//
// TestRecordWatchBenchmarks measures the edit→updated-slice latency of
// an incremental session — the number a watch stream's user actually
// waits on — for the three canonical edit shapes, against the cold
// build they replace:
//
//   - single_method_edit: a one-literal body change dirties exactly one
//     derivation unit (the method's positions are unchanged), so the
//     revision is one unit lower + points-to solve + delta SDG.
//   - class_shape_change: adding a method changes the class fingerprint,
//     dirtying every unit that references the class — the expensive end
//     of the invalidation spectrum, still well under a cold build.
//   - file_add: a new file with an unreferenced class; every old unit
//     and SDG template is reused.

// watchBenchRow is one edit shape's latency record.
type watchBenchRow struct {
	Scenario string `json:"scenario"`
	// WarmEditMS is apply-edit → updated slice on the live session,
	// best of 7.
	WarmEditMS float64 `json:"warm_edit_ms"`
}

// watchBenchRun is one sweep at a fixed GOMAXPROCS.
type watchBenchRun struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// ColdBuildMS is the from-scratch sources → slice latency the warm
	// numbers are up against.
	ColdBuildMS float64         `json:"cold_build_ms"`
	Rows        []watchBenchRow `json:"rows"`
}

type watchBenchReport struct {
	HostCPUs int             `json:"host_cpus"`
	Classes  int             `json:"classes"`
	Note     string          `json:"note"`
	Runs     []watchBenchRun `json:"runs"`
}

// genWatchProgram builds an n-class program whose Main exercises every
// class, plus the seed on Main's final print.
func genWatchProgram(n int) (map[string]string, session.Seed) {
	srcs := make(map[string]string, n+1)
	for i := 0; i < n; i++ {
		srcs[fmt.Sprintf("c%d.mj", i)] = watchClassSource(i, 7, false)
	}
	var b strings.Builder
	b.WriteString("class Main {\n    static void main() {\n        int acc;\n        acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "        C%d v%d = new C%d();\n        v%d.set(%d);\n        acc = acc + v%d.work(v%d.get());\n",
			i, i, i, i, i, i, i)
	}
	b.WriteString("        print(acc);\n    }\n}\n")
	srcs["main.mj"] = b.String()
	return srcs, session.Seed{File: "main.mj", Line: 3*n + 5}
}

// watchClassSource renders class Ci. The bias literal is the
// single-method-edit knob (same line shape, one digit differs); extra
// toggles a trailing method, the class-shape knob.
func watchClassSource(i, bias int, extra bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "class C%d {\n    int val;\n    void set(int v) { this.val = v; }\n    int get() { return this.val; }\n", i)
	fmt.Fprintf(&b, "    int work(int x) { return x + %d; }\n", bias)
	if extra {
		b.WriteString("    int spare(int x) { return x; }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

const watchExtraFile = "class Extra {\n    int val;\n    int echo(int x) { return x; }\n}\n"

// measureWarmEdits runs 7 rounds of apply-edit-then-slice on the live
// session and returns the best round in milliseconds. apply receives
// the round number so it can alternate edit variants (every round must
// be a real edit, or the fast path answers from cache).
func measureWarmEdits(t *testing.T, sess *session.Session, seeds []session.Seed, apply func(round int)) float64 {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 7; i++ {
		runtime.GC()
		start := time.Now()
		apply(i)
		if _, err := sess.SliceAll(core.Options{Mode: core.Thin}, seeds); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / float64(time.Millisecond)
}

// measureWatchRun collects one GOMAXPROCS sweep.
func measureWatchRun(t *testing.T, classes, gmp int) watchBenchRun {
	run := watchBenchRun{GOMAXPROCS: gmp}
	srcs, seed := genWatchProgram(classes)
	seeds := []session.Seed{seed}

	run.ColdBuildMS = timeIt(func() {
		fresh := session.Open(srcs, session.WithIncremental())
		if _, err := fresh.SliceAll(core.Options{Mode: core.Thin}, seeds); err != nil {
			t.Fatal(err)
		}
	})

	sess := session.Open(srcs, session.WithIncremental())
	if _, err := sess.SliceAll(core.Options{Mode: core.Thin}, seeds); err != nil {
		t.Fatal(err)
	}

	run.Rows = append(run.Rows, watchBenchRow{
		Scenario: "single_method_edit",
		WarmEditMS: measureWarmEdits(t, sess, seeds, func(round int) {
			sess.Update("c0.mj", watchClassSource(0, 8+round%2, false))
		}),
	})
	run.Rows = append(run.Rows, watchBenchRow{
		Scenario: "class_shape_change",
		WarmEditMS: measureWarmEdits(t, sess, seeds, func(round int) {
			sess.Update("c1.mj", watchClassSource(1, 7, round%2 == 0))
		}),
	})
	// File add: reset (remove + settle) happens outside the timed
	// region, so every round measures the add direction.
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 7; i++ {
		sess.Remove("extra.mj")
		if _, err := sess.SliceAll(core.Options{Mode: core.Thin}, seeds); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		start := time.Now()
		sess.Update("extra.mj", watchExtraFile)
		if _, err := sess.SliceAll(core.Options{Mode: core.Thin}, seeds); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	run.Rows = append(run.Rows, watchBenchRow{
		Scenario:   "file_add",
		WarmEditMS: float64(best) / float64(time.Millisecond),
	})

	// Every warm round above must have gone down the delta paths; a
	// silent fallback to full rebuilds would make the numbers a lie.
	if st := sess.Stats(); st.DeltaSDGs == 0 || st.UnitReuses == 0 {
		t.Fatalf("warm edits did not engage the delta paths: %+v", st)
	}
	for _, row := range run.Rows {
		if row.WarmEditMS >= run.ColdBuildMS {
			t.Errorf("GOMAXPROCS %d %s: warm edit (%.2fms) not faster than cold build (%.2fms)",
				gmp, row.Scenario, row.WarmEditMS, run.ColdBuildMS)
		}
	}
	return run
}

// TestRecordWatchBenchmarks measures the watch-mode latency sweep at
// GOMAXPROCS 1 and checks that every warm edit beats the cold build.
// With THINSLICE_RECORD=1 it also records the sweep in BENCH_watch.json
// at the repository root; run it alone (go test -p 1) so no other test
// binary shares the CPUs. Skipped under -short.
func TestRecordWatchBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark recording skipped in -short mode")
	}
	orig := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(orig)
	report := watchBenchReport{
		HostCPUs: runtime.NumCPU(),
		Classes:  24,
		Note: "best of 7 per cell; warm_edit_ms is apply-edit → updated thin slice on a live " +
			"incremental session (unit re-lower + points-to solve + delta SDG), byte-identical " +
			"to the cold build it replaces; single_method_edit dirties one derivation unit, " +
			"class_shape_change re-derives every unit referencing the class, file_add reuses " +
			"every existing unit",
	}
	report.Runs = append(report.Runs, measureWatchRun(t, report.Classes, 1))
	if os.Getenv("THINSLICE_RECORD") != "1" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_watch.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

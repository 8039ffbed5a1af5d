// Command perfbench is the service benchmark of thinslice serve. It starts
// the real server.New handler in-process on a loopback listener and drives
// it with one closed-loop client over one connection, on deterministic
// programs from internal/bench. Every op's answer is checked against the
// committed expected.json.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload cold|edit|check|restart -seed N -seconds S -trace 0|1
//
// With -trace 0 the run reports the end-to-end metrics. With -trace 1 it
// instead replays the workload's ops by calling each layer's public
// functions in dependency order, records spans in memory, writes them to
// <out>/spans/<workload>-seed<N>.jsonl at exit, and reports per-layer
// metrics computed from them. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// out holds the restart workload's cache directory and the traced
	// run's span files.
	out string
	// maxOps ends the measured window after this many ops (0: the window
	// is -seconds long). No flag sets it; the smoke test does.
	maxOps int
}

// setups is how many times set-up runs in an end-to-end run; setup_s is
// their median.
const setups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: picks nonces, edit literals and cycle starts")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for the restart cache and the span files")
	writeTo := fs.String("write-expected", "", "record the current code's answers to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeTo != "" {
		if err := writeExpected(*writeTo); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	return runWorkload(cfg, stdout, stderr)
}

// runWorkload runs one workload and prints its diagnostics and result line.
func runWorkload(cfg config, stdout, stderr io.Writer) int {
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	env := newEnv(cfg)
	defer env.close()
	if err := env.loadExpected(); err != nil {
		fmt.Fprintf(stderr, "perfbench: expected answers: %v\n", err)
		return 1
	}

	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(env, w)
		if err == nil {
			err = res.complete(perLayer)
		}
	} else {
		res, err = runMeasured(env, w)
		if err == nil {
			err = res.complete(endToEnd)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	printLine(stdout, "host", hostDiagnostics(env.cacheDir()))
	if len(res.validity) > 0 {
		printLine(stdout, "validity", res.validity)
	}
	if len(res.byProgram) > 0 {
		printLine(stdout, "layers-by-program", res.byProgram)
	}
	if res.spansFile != "" {
		printLine(stdout, "spans", res.spansFile)
	}
	final, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", final)
	return 0
}

// printLine writes one labelled diagnostic line ahead of the result line.
func printLine(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s %s\n", label, b)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports: the result line's fields plus the
// diagnostics printed ahead of it.
type result struct {
	attempted int
	failed    int
	metrics   map[string]metric
	// validity holds ratios showing what the workload exercised; they are
	// reported, never failed on.
	validity  map[string]float64
	byProgram map[string]map[string]float64
	spansFile string
}

func (r *result) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cacheDir is where the restart workload keeps its disk cache.
func (e *env) cacheDir() string { return filepath.Join(e.cfg.out, "restart-cache") }

// Command thinslice slices MiniJava-style programs from a seed
// statement:
//
//	thinslice -seed prog.mj:42 prog.mj [more.mj ...]
//
// By default it prints the thin slice (producer statements, paper §2).
// Flags select the traditional baseline, control dependences, the
// context-sensitive tabulation slicer, reduced pointer-analysis
// precision, and on-demand explanations of heap aliasing and control
// dependences for the slice (§4).
//
// Batch mode slices many seeds over one shared analysis session:
//
//	thinslice -seeds-file seeds.txt prog.mj [more.mj ...]
//
// with one file.mj:line seed per line (#-comments and blanks skipped).
//
// The check subcommand runs the thin-slice-powered checker suite:
//
//	thinslice check [-checks nilderef,taint] [-json] prog.mj...
//
// Every finding carries a thin-slice witness — the shortest producer
// chain explaining the suspicious value, the same chains -why prints.
//
// The serve subcommand exposes slicing, batch slicing, and checking
// over HTTP with admission control, bounded caches, per-program
// circuit breakers, and graceful drain:
//
//	thinslice serve -addr :8080
//
// The watch subcommand keeps an incremental session alive over the
// named files and re-slices the seeds whenever a file changes on disk
// (see watch.go):
//
//	thinslice watch -seed prog.mj:42 prog.mj [more.mj ...]
//
// Resource limits: -timeout and -max-steps bound the whole run, and
// -fuel bounds -dynamic execution. A run that was cut short but still
// produced a (partial) result exits with code 3; hard failures exit 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/checkers"
	"thinslice/internal/core"
	"thinslice/internal/core/expand"
	"thinslice/internal/csslice"
	"thinslice/internal/diskstore"
	"thinslice/internal/interp"
	"thinslice/internal/ir"
	"thinslice/internal/lang/token"
	"thinslice/internal/server"
	"thinslice/internal/session"
)

// Exit codes: 0 ok, 1 hard failure, 2 usage, 3 truncated-but-usable
// result (and, for check, 3 also means findings were reported).
const (
	exitOK      = 0
	exitFailure = 1
	exitUsage   = 2
	exitPartial = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable entry point: it dispatches on the optional
// subcommand and never calls os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "check":
			return runCheck(args[1:], stdout, stderr)
		case "serve":
			return runServe(args[1:], stdout, stderr)
		case "watch":
			return runWatch(args[1:], stdout, stderr)
		case "cache":
			return runCache(args[1:], stdout, stderr)
		}
	}
	return runSlice(args, stdout, stderr)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "thinslice:", err)
	return exitFailure
}

// readSources loads the named program files.
func readSources(paths []string) (map[string]string, error) {
	sources := make(map[string]string, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sources[path] = string(data)
	}
	return sources, nil
}

// newBudget builds the run-wide budget from the shared limit flags.
func newBudget(timeout time.Duration, maxSteps int64) *budget.Budget {
	var bopts []budget.Option
	if timeout > 0 {
		bopts = append(bopts, budget.WithTimeout(timeout))
	}
	if maxSteps > 0 {
		bopts = append(bopts, budget.WithSteps(maxSteps))
	}
	return budget.New(nil, bopts...)
}

// runCheck implements the `thinslice check` subcommand.
func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thinslice check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "all", "comma-separated checkers to run (all = every checker)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sources := fs.String("taint-sources", "", "comma-separated taint sources for the taint checker (default input,inputInt)")
	sinks := fs.String("taint-sinks", "", "comma-separated sink method names for the taint checker")
	includeLib := fs.Bool("include-library", false, "also report findings inside the container prelude")
	noVerify := fs.Bool("no-verify", false, "skip the IR verifier pass before checking")
	timeout := fs.Duration("timeout", 0, "wall-clock bound for the whole run (0 = unlimited)")
	maxSteps := fs.Int64("max-steps", 0, "per-phase analysis step cap (0 = unlimited)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: thinslice check [flags] file.mj...")
		fmt.Fprintln(stderr, "checkers:")
		for _, c := range checkers.All() {
			fmt.Fprintf(stderr, "  %-12s %s\n", c.Name(), c.Desc())
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return exitUsage
	}
	checks, err := checkers.Select(*checksFlag)
	if err != nil {
		return fail(stderr, err)
	}
	srcs, err := readSources(fs.Args())
	if err != nil {
		return fail(stderr, err)
	}

	opts := []analyzer.Option{analyzer.WithBudget(newBudget(*timeout, *maxSteps))}
	if !*noVerify {
		opts = append(opts, analyzer.WithVerifyIR())
	}
	a, err := analyzer.Analyze(srcs, opts...)
	if err != nil {
		return fail(stderr, err)
	}

	cfg := checkers.Config{IncludeLibrary: *includeLib}
	if *sources != "" {
		cfg.TaintSources = splitList(*sources)
	}
	if *sinks != "" {
		cfg.TaintSinks = splitList(*sinks)
	}
	rep := checkers.Run(a, checks, cfg)
	if rep.Truncated {
		fmt.Fprintf(stderr, "thinslice: warning: budget exhausted; findings are partial (%v)\n", rep.Err)
	}
	if *jsonOut {
		if err := writeJSONReport(stdout, rep); err != nil {
			return fail(stderr, err)
		}
	} else {
		writeTextReport(stdout, rep, len(checks))
	}
	if rep.Truncated || len(rep.Findings) > 0 {
		return exitPartial
	}
	return exitOK
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func writeTextReport(w io.Writer, rep *checkers.Report, nChecks int) {
	for _, f := range rep.Findings {
		fmt.Fprintln(w, f)
	}
	suffix := ""
	if rep.Truncated {
		suffix = " (truncated)"
	}
	fmt.Fprintf(w, "%d finding(s) from %d checker(s)%s\n", len(rep.Findings), nChecks, suffix)
}

// jsonFinding mirrors checkers.Finding with a flat, stable wire shape.
type jsonFinding struct {
	Checker string     `json:"checker"`
	File    string     `json:"file"`
	Line    int        `json:"line"`
	Message string     `json:"message"`
	Witness []jsonStep `json:"witness,omitempty"`
}

type jsonStep struct {
	Kind string `json:"kind"`
	File string `json:"file"`
	Line int    `json:"line"`
	Stmt string `json:"stmt"`
}

func writeJSONReport(w io.Writer, rep *checkers.Report) error {
	out := struct {
		Findings  []jsonFinding `json:"findings"`
		Truncated bool          `json:"truncated"`
	}{Findings: []jsonFinding{}, Truncated: rep.Truncated}
	for _, f := range rep.Findings {
		jf := jsonFinding{Checker: f.Checker, File: f.Pos.File, Line: f.Pos.Line, Message: f.Message}
		if f.Witness != nil {
			for i, step := range f.Witness.Chain {
				kind := "value"
				if i > 0 {
					kind = step.Kind.String()
				}
				p := step.Ins.Pos()
				jf.Witness = append(jf.Witness, jsonStep{Kind: kind, File: p.File, Line: p.Line, Stmt: step.Ins.String()})
			}
		}
		out.Findings = append(out.Findings, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runServe implements the `thinslice serve` subcommand: a hardened
// HTTP service exposing /slice, /batch, /check, /healthz, /readyz,
// and /statsz. SIGTERM or SIGINT starts a graceful drain.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thinslice serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "max concurrent analyses (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max requests waiting beyond the running ones (0 = 4x workers)")
	queueWait := fs.Duration("queue-wait", 0, "max time a request may wait for a worker (0 = 2s)")
	timeout := fs.Duration("timeout", 0, "default per-request analysis deadline (0 = 10s)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp for client-requested deadlines (0 = 60s)")
	maxSteps := fs.Int64("max-steps", 0, "per-phase analysis step cap per request (0 = unlimited)")
	storeEntries := fs.Int("store-entries", 0, "artifact cache entry cap (0 = 256, -1 = unlimited)")
	storeBytes := fs.Int64("store-bytes", 0, "artifact cache cost cap in bytes (0 = 256 MiB, -1 = unlimited)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive failures before a program's circuit opens (0 = 3)")
	breakerBackoff := fs.Duration("breaker-backoff", 0, "initial circuit-open window, doubling per re-open (0 = 500ms)")
	drain := fs.Duration("drain", 15*time.Second, "grace period for in-flight requests on shutdown")
	maxRequestBytes := fs.Int64("max-request-bytes", 0, "request body size cap (0 = 4 MiB)")
	cacheDir := fs.String("cache-dir", "", "persistent artifact cache directory; artifacts survive restarts (empty = memory only)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "disk cache size cap in bytes (0 = 256 MiB)")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: thinslice serve [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "thinslice serve: unexpected arguments; programs are posted to /slice")
		return exitUsage
	}

	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		QueueWait:       *queueWait,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		MaxSteps:        *maxSteps,
		MaxRequestBytes: *maxRequestBytes,
		StoreEntries:    *storeEntries,
		StoreBytes:      *storeBytes,
		BreakerFailures: *breakerFailures,
		BreakerBackoff:  *breakerBackoff,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheMaxBytes,
		EnablePprof:     *pprofFlag,
	})
	if err != nil {
		return fail(stderr, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "thinslice: serving on %s\n", ln.Addr())
	if err := srv.Run(ctx, ln, *drain); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "thinslice: drained, bye")
	return exitOK
}

// runCache implements the `thinslice cache` subcommand: offline
// maintenance of the persistent artifact cache written by `serve
// -cache-dir`.
//
//	thinslice cache fsck [-repair] -dir DIR   verify every entry
//	thinslice cache gc -dir DIR               drop quarantine/tmp, empty quarantine.log, re-apply budget
//
// fsck exits 0 when every entry verifies and 1 when any is corrupt.
func runCache(args []string, stdout, stderr io.Writer) int {
	usage := func() {
		fmt.Fprintln(stderr, "usage: thinslice cache fsck [-repair] -dir cache-dir")
		fmt.Fprintln(stderr, "       thinslice cache gc [-max-bytes n] -dir cache-dir")
	}
	if len(args) == 0 {
		usage()
		return exitUsage
	}
	verb := args[0]
	fs := flag.NewFlagSet("thinslice cache "+verb, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "cache directory (as given to serve -cache-dir)")
	maxBytes := fs.Int64("max-bytes", 0, "cache size cap in bytes (0 = 256 MiB)")
	repair := fs.Bool("repair", false, "quarantine corrupt entries instead of only reporting them (fsck)")
	if err := fs.Parse(args[1:]); err != nil {
		return exitUsage
	}
	if *dir == "" || fs.NArg() != 0 {
		usage()
		return exitUsage
	}
	cache, err := diskstore.Open(*dir, *maxBytes)
	if err != nil {
		return fail(stderr, err)
	}
	switch verb {
	case "fsck":
		entries := cache.Fsck(*repair)
		corrupt := 0
		for _, e := range entries {
			if e.Err != nil {
				corrupt++
				fmt.Fprintf(stdout, "corrupt %s: %v\n", e.Key, e.Err)
			}
		}
		fmt.Fprintf(stdout, "fsck: %d entries, %d corrupt\n", len(entries), corrupt)
		if corrupt > 0 {
			return exitFailure
		}
		return exitOK
	case "gc":
		removed := cache.GC()
		st := cache.Stats()
		fmt.Fprintf(stdout, "gc: removed %d files; %d entries, %d bytes kept\n", removed, st.Entries, st.Bytes)
		return exitOK
	default:
		usage()
		return exitUsage
	}
}

// runSlice implements the default slicing mode.
func runSlice(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thinslice", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seedFlag := fs.String("seed", "", "seed statement as file.mj:line (required unless -seeds-file is given)")
	seedsFile := fs.String("seeds-file", "", "file listing one file.mj:line seed per line; slices all of them over one shared analysis")
	mode := fs.String("mode", "thin", "slicing mode: thin or traditional")
	control := fs.Bool("control", false, "follow control dependences (traditional only)")
	cs := fs.Bool("cs", false, "use the context-sensitive tabulation slicer (§5.3)")
	noObjSens := fs.Bool("noobjsens", false, "disable object-sensitive container handling")
	explainAliasing := fs.Bool("explain-aliasing", false, "print aliasing explanations for heap edges in the slice (§4.1)")
	explainControl := fs.Bool("explain-control", false, "print control explanations for the seed (§4.2)")
	why := fs.String("why", "", "explain why file.mj:line is in the slice (shortest producer chain)")
	dynamic := fs.Bool("dynamic", false, "execute the program and print the dynamic thin slice of the seed")
	inputs := fs.String("input", "", "comma-separated input() values for -dynamic")
	inputInts := fs.String("inputint", "", "comma-separated inputInt() values for -dynamic")
	timeout := fs.Duration("timeout", 0, "wall-clock bound for the whole run (e.g. 2s; 0 = unlimited)")
	maxSteps := fs.Int64("max-steps", 0, "per-phase analysis step cap (0 = unlimited)")
	fuel := fs.Int("fuel", 0, "instruction fuel for -dynamic execution (0 = default 2,000,000)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if (*seedFlag == "" && *seedsFile == "") || fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: thinslice -seed file.mj:line [flags] file.mj...")
		fmt.Fprintln(stderr, "       thinslice -seeds-file seeds.txt [flags] file.mj...")
		fmt.Fprintln(stderr, "       thinslice check [flags] file.mj...")
		fs.PrintDefaults()
		return exitUsage
	}

	sources, err := readSources(fs.Args())
	if err != nil {
		return fail(stderr, err)
	}

	// One budget bounds the whole run: analysis phases and -dynamic
	// execution share the wall-clock deadline.
	bud := newBudget(*timeout, *maxSteps)

	var opts []analyzer.Option
	if *noObjSens {
		opts = append(opts, analyzer.WithObjSens(false))
	}
	opts = append(opts, analyzer.WithBudget(bud))
	a, err := analyzer.Analyze(sources, opts...)
	if err != nil {
		return fail(stderr, err)
	}
	partial := a.Partial()
	if partial {
		fmt.Fprintln(stderr, "thinslice: warning: budget exhausted during analysis; results may be incomplete")
	}

	thinMode := *mode == "thin"
	if !thinMode && *mode != "traditional" {
		return fail(stderr, fmt.Errorf("unknown mode %q", *mode))
	}

	if *seedsFile != "" {
		if *cs || *dynamic {
			return fail(stderr, fmt.Errorf("-seeds-file cannot be combined with -cs or -dynamic"))
		}
		return runBatch(stdout, stderr, a, sources, *seedsFile, thinMode, *control, partial)
	}

	seedFile, seedLine, err := parseSeed(*seedFlag)
	if err != nil {
		return fail(stderr, err)
	}
	seeds := a.SeedsAt(seedFile, seedLine)
	if len(seeds) == 0 {
		return fail(stderr, fmt.Errorf("no reachable statements at %s:%d", seedFile, seedLine))
	}

	if *dynamic {
		truncated, err := runDynamic(stdout, a, sources, seeds, *inputs, *inputInts, bud, *fuel)
		if err != nil {
			return fail(stderr, err)
		}
		if truncated || partial {
			return exitPartial
		}
		return exitOK
	}

	var lines []token.Pos
	if *cs {
		g, err := a.Session().CSGraph()
		if err != nil {
			return fail(stderr, err)
		}
		s := csslice.NewSlicer(g, thinMode, *control)
		slice := s.Slice(seeds...)
		for p := range csslice.SliceLines(slice) {
			lines = append(lines, p)
		}
		sortPos(lines)
		fmt.Fprintf(stdout, "%s slice (context-sensitive) of %s:%d: %d statements\n",
			*mode, seedFile, seedLine, len(slice))
	} else {
		var s *core.Slicer
		if thinMode {
			s = a.ThinSlicer()
		} else {
			s = a.TraditionalSlicer(*control)
		}
		slice := s.Slice(seeds...)
		lines = slice.Lines()
		sortPos(lines)
		if slice.Truncated {
			partial = true
			fmt.Fprintf(stderr, "thinslice: warning: slice truncated (%v)\n", slice.Err)
		}
		fmt.Fprintf(stdout, "%s slice of %s:%d: %d statements on %d lines\n",
			*mode, seedFile, seedLine, slice.Size(), len(lines))
		if *explainAliasing && thinMode {
			printAliasing(stdout, a, slice)
		}
	}
	printLines(stdout, sources, lines)

	if *why != "" && !*cs {
		whyFile, whyLine, err := parseSeed(*why)
		if err != nil {
			return fail(stderr, err)
		}
		var s *core.Slicer
		if thinMode {
			s = a.ThinSlicer()
		} else {
			s = a.TraditionalSlicer(*control)
		}
		if err := explainWhy(stdout, a, s, seeds, whyFile, whyLine); err != nil {
			return fail(stderr, err)
		}
	}

	if *explainControl {
		fmt.Fprintln(stdout, "\ncontrol explanations of the seed (paper §4.2):")
		for _, seed := range seeds {
			for _, src := range expand.ControlExplanation(a.Graph, seed) {
				fmt.Fprintf(stdout, "  %s: %s\n", src.Pos(), src)
			}
		}
	}

	if partial {
		return exitPartial
	}
	return exitOK
}

// runBatch slices every seed listed in seedsPath over the analysis'
// shared session: artifacts are built once and each seed costs only
// its own backward closure.
func runBatch(stdout, stderr io.Writer, a *analyzer.Analysis, sources map[string]string, seedsPath string, thinMode, control, partial bool) int {
	seeds, err := readSeedsFile(seedsPath)
	if err != nil {
		return fail(stderr, err)
	}
	if len(seeds) == 0 {
		return fail(stderr, fmt.Errorf("no seeds in %s", seedsPath))
	}
	opts := core.Options{Mode: core.Thin}
	modeName := "thin"
	if !thinMode {
		opts = core.Options{Mode: core.Traditional, FollowControl: control}
		modeName = "traditional"
	}
	// Transient internal faults (a panicked phase) are retried with
	// jittered backoff; deterministic failures (parse/type errors,
	// exhaustion, cancellation) surface immediately.
	var results []session.SeedResult
	err = budget.Retry(a.Budget().Context(), budget.RetryConfig{}, func(attempt int) error {
		if attempt > 1 {
			fmt.Fprintf(stderr, "thinslice: retrying batch after transient failure (attempt %d)\n", attempt)
		}
		var rerr error
		results, rerr = a.Session().SliceAll(opts, seeds)
		return rerr
	})
	if err != nil {
		return fail(stderr, err)
	}
	for i, r := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if len(r.Instrs) == 0 {
			fmt.Fprintf(stdout, "%s slice of %s: no reachable statements\n", modeName, r.Seed)
			continue
		}
		lines := r.Slice.Lines()
		sortPos(lines)
		if r.Slice.Truncated {
			partial = true
			fmt.Fprintf(stderr, "thinslice: warning: slice of %s truncated (%v)\n", r.Seed, r.Slice.Err)
		}
		fmt.Fprintf(stdout, "%s slice of %s: %d statements on %d lines\n",
			modeName, r.Seed, r.Slice.Size(), len(lines))
		printLines(stdout, sources, lines)
	}
	if partial {
		return exitPartial
	}
	return exitOK
}

// readSeedsFile parses a seeds file: one file.mj:line per line, blank
// lines and #-comments skipped.
func readSeedsFile(path string) ([]session.Seed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var seeds []session.Seed
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, ln, err := parseSeed(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		seeds = append(seeds, session.Seed{File: file, Line: ln})
	}
	return seeds, nil
}

// explainWhy prints the shortest producer chain from the seed to the
// named statement.
func explainWhy(w io.Writer, a *analyzer.Analysis, s *core.Slicer, seeds []ir.Instr, file string, line int) error {
	targets := a.SeedsAt(file, line)
	if len(targets) == 0 {
		return fmt.Errorf("no statements at %s:%d", file, line)
	}
	var path []core.PathStep
	for _, target := range targets {
		if p := s.PathTo(target, seeds...); p != nil && (path == nil || len(p) < len(path)) {
			path = p
		}
	}
	if path == nil {
		fmt.Fprintf(w, "\n%s:%d is NOT in the %s slice (an explainer statement; try -mode traditional,\n", file, line, s.Opts.Mode)
		fmt.Fprintln(w, "or ask for -explain-aliasing / -explain-control)")
		return nil
	}
	fmt.Fprintf(w, "\nwhy %s:%d is in the slice (%d-step producer chain):\n", file, line, len(path)-1)
	for i, step := range path {
		arrow := "seed"
		if i > 0 {
			arrow = "<-" + step.Kind.String() + "-"
		}
		fmt.Fprintf(w, "  %-12s %s: %s\n", arrow, step.Ins.Pos(), step.Ins)
		if step.ViaCall != nil {
			fmt.Fprintf(w, "  %-12s   (passed at call %s)\n", "", step.ViaCall.Pos())
		}
	}
	return nil
}

// runDynamic executes the program with scripted inputs and prints the
// dynamic thin slice (§1's dynamic-dependence extension). It reports
// whether execution was cut short by a resource bound (fuel, budget),
// in which case the printed slice covers only the executed prefix.
func runDynamic(w io.Writer, a *analyzer.Analysis, sources map[string]string, seeds []ir.Instr, inputCSV, intCSV string, bud *budget.Budget, fuel int) (bool, error) {
	m := interp.New(a.Prog)
	m.Trace = interp.NewTrace()
	m.Budget = bud
	if fuel > 0 {
		m.StepLimit = fuel
	}
	if inputCSV != "" {
		m.Inputs = strings.Split(inputCSV, ",")
	}
	for _, s := range strings.Split(intCSV, ",") {
		if s == "" {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return false, err
		}
		m.InputInts = append(m.InputInts, n)
	}
	runErr := m.Run("")
	for _, line := range m.Output {
		fmt.Fprintf(w, "output: %s\n", line)
	}
	truncated := interp.Truncated(runErr)
	if runErr != nil {
		fmt.Fprintf(w, "execution ended with: %v\n", runErr)
		if truncated {
			fmt.Fprintln(w, "(execution truncated; the dynamic slice covers the executed prefix)")
		}
	}
	members := make(map[ir.Instr]bool)
	for _, seed := range seeds {
		for ins := range m.Trace.DynamicThinSlice(seed) {
			members[ins] = true
		}
	}
	if len(members) == 0 {
		fmt.Fprintln(w, "seed statement was not executed on this input")
		return truncated, nil
	}
	var lines []token.Pos
	seen := make(map[token.Pos]bool)
	for ins := range members {
		p := ins.Pos()
		p.Col = 0
		if p.IsValid() && !seen[p] {
			seen[p] = true
			lines = append(lines, p)
		}
	}
	sortPos(lines)
	fmt.Fprintf(w, "dynamic thin slice: %d statements on %d lines\n", len(members), len(lines))
	printLines(w, sources, lines)
	return truncated, nil
}

func printAliasing(w io.Writer, a *analyzer.Analysis, slice *core.Slice) {
	pairs := expand.HeapPairs(a.Graph, slice)
	if len(pairs) == 0 {
		return
	}
	fmt.Fprintf(w, "\naliasing explanations (paper §4.1), %d heap edge(s):\n", len(pairs))
	for i, pair := range pairs {
		if i >= 8 {
			fmt.Fprintf(w, "  ... and %d more\n", len(pairs)-i)
			break
		}
		exp := expand.ExplainAliasing(a.Graph, pair)
		load := a.Graph.InstrOf(pair.Load)
		store := a.Graph.InstrOf(pair.Store)
		fmt.Fprintf(w, "  load %s <- store %s: %d common object(s)\n",
			load.Pos(), store.Pos(), len(exp.Common))
		for _, ins := range exp.Statements() {
			fmt.Fprintf(w, "    %s: %s\n", ins.Pos(), ins)
		}
	}
}

func printLines(w io.Writer, sources map[string]string, lines []token.Pos) {
	fileLines := make(map[string][]string)
	for name, src := range sources {
		fileLines[name] = strings.Split(src, "\n")
	}
	for _, p := range lines {
		text := ""
		if ls, ok := fileLines[p.File]; ok && p.Line-1 < len(ls) {
			text = strings.TrimSpace(ls[p.Line-1])
		} else if p.File != "" {
			text = "(library)"
		}
		fmt.Fprintf(w, "  %s:%d\t%s\n", p.File, p.Line, text)
	}
}

func parseSeed(s string) (string, int, error) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return "", 0, fmt.Errorf("seed %q is not of the form file:line", s)
	}
	line, err := strconv.Atoi(s[i+1:])
	if err != nil || line <= 0 {
		return "", 0, fmt.Errorf("seed %q has an invalid line number", s)
	}
	return s[:i], line, nil
}

// sortPos orders positions deterministically: by file, then line, then
// column — the total order every printed listing uses.
func sortPos(lines []token.Pos) {
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

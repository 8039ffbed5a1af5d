package main

// The watch subcommand keeps one analysis session alive over a fixed
// set of program files and re-slices the watched seeds whenever a file
// changes on disk:
//
//	thinslice watch -seed prog.mj:42 [-checks nilderef] prog.mj...
//
// Changes are detected by polling modification times (stdlib only, no
// OS-specific watcher), so the loop works on any platform at the cost
// of -interval latency. The file list is fixed at startup: a watched
// file that disappears is removed from the program (and re-added if it
// reappears), but new files are not picked up.
//
// Each revision prints the updated slices, optional checker findings,
// and what it rebuilt: a changed program costs one points-to solve and
// one dependence graph build, and a program the session has already
// seen (an edit undone) costs neither, since every artifact is keyed by
// content.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/checkers"
	"thinslice/internal/core"
	"thinslice/internal/session"
)

// watchFileState is one watched file's last-seen stat snapshot.
type watchFileState struct {
	mtime   time.Time
	size    int64
	present bool
}

func runWatch(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thinslice watch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seedFlag := fs.String("seed", "", "seed statement as file.mj:line")
	seedsFile := fs.String("seeds-file", "", "file listing one file.mj:line seed per line")
	checksFlag := fs.String("checks", "", "comma-separated checkers to run each revision (empty = none)")
	mode := fs.String("mode", "thin", "slicing mode: thin or traditional")
	control := fs.Bool("control", false, "follow control dependences (traditional only)")
	noObjSens := fs.Bool("noobjsens", false, "disable object-sensitive container handling")
	interval := fs.Duration("interval", 250*time.Millisecond, "file modification poll interval")
	maxRevs := fs.Int("max-revs", 0, "exit after printing this many revisions (0 = watch until interrupted)")
	verbose := fs.Bool("v", false, "print slice line listings, not just counts")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: thinslice watch -seed file.mj:line [flags] file.mj...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return exitUsage
	}
	thinMode := *mode == "thin"
	if !thinMode && *mode != "traditional" {
		return fail(stderr, fmt.Errorf("unknown mode %q", *mode))
	}

	var seeds []session.Seed
	if *seedFlag != "" {
		file, line, err := parseSeed(*seedFlag)
		if err != nil {
			return fail(stderr, err)
		}
		seeds = append(seeds, session.Seed{File: file, Line: line})
	}
	if *seedsFile != "" {
		more, err := readSeedsFile(*seedsFile)
		if err != nil {
			return fail(stderr, err)
		}
		seeds = append(seeds, more...)
	}
	if len(seeds) == 0 && *checksFlag == "" {
		return fail(stderr, fmt.Errorf("watch needs -seed, -seeds-file, or -checks"))
	}
	var checks []checkers.Checker
	if *checksFlag != "" {
		var err error
		if checks, err = checkers.Select(*checksFlag); err != nil {
			return fail(stderr, err)
		}
	}

	paths := fs.Args()
	sources, err := readSources(paths)
	if err != nil {
		return fail(stderr, err)
	}
	states := make(map[string]watchFileState, len(paths))
	for _, path := range paths {
		if info, err := os.Stat(path); err == nil {
			states[path] = watchFileState{mtime: info.ModTime(), size: info.Size(), present: true}
		}
	}

	// The session runs unbudgeted: its budget would be fixed at open and
	// would have to cover every revision of a loop with no end.
	sess := session.Open(sources, session.WithObjSens(!*noObjSens))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	opts := core.Options{Mode: core.Thin}
	if !thinMode {
		opts = core.Options{Mode: core.Traditional, FollowControl: *control}
	}
	w := &watcher{
		stdout: stdout, stderr: stderr,
		sess: sess, seeds: seeds, checks: checks,
		opts: opts, sources: sources, verbose: *verbose,
	}
	w.revision(0, "cold build")
	if *maxRevs == 1 {
		return exitOK
	}

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	rev, printed := 0, 1
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stdout, "thinslice: watch interrupted, bye")
			return exitOK
		case <-ticker.C:
		}
		changed := w.pollEdits(paths, states)
		if len(changed) == 0 {
			continue
		}
		rev++
		w.revision(rev, strings.Join(changed, ", "))
		printed++
		if *maxRevs > 0 && printed >= *maxRevs {
			return exitOK
		}
	}
}

// watcher is the per-run state of the watch loop.
type watcher struct {
	stdout, stderr io.Writer
	sess           *session.Session
	seeds          []session.Seed
	checks         []checkers.Checker
	opts           core.Options
	sources        map[string]string
	verbose        bool
}

// pollEdits stats every watched path, applies content changes to the
// session, and returns a description of each real edit (empty when
// nothing changed, including touched-but-identical files).
func (w *watcher) pollEdits(paths []string, states map[string]watchFileState) []string {
	var changed []string
	for _, path := range paths {
		prev := states[path]
		info, err := os.Stat(path)
		if err != nil {
			if prev.present {
				states[path] = watchFileState{}
				delete(w.sources, path)
				w.sess.Remove(path)
				changed = append(changed, path+" removed")
			}
			continue
		}
		if prev.present && info.ModTime().Equal(prev.mtime) && info.Size() == prev.size {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(w.stderr, "thinslice: reading %s: %v\n", path, err)
			continue
		}
		states[path] = watchFileState{mtime: info.ModTime(), size: info.Size(), present: true}
		if content := string(data); w.sources[path] != content {
			w.sources[path] = content
			w.sess.Update(path, content)
			changed = append(changed, path)
		}
	}
	return changed
}

// revision answers one revision: slices, findings, and the build
// counter deltas showing what it rebuilt.
func (w *watcher) revision(rev int, why string) {
	start := time.Now()
	before := w.sess.Stats()
	results, findings, err := w.query()
	after := w.sess.Stats()
	elapsed := time.Since(start)
	if err != nil {
		fmt.Fprintf(w.stdout, "rev %d (%s): error in %s\n", rev, why, elapsed.Round(time.Millisecond))
		fmt.Fprintf(w.stderr, "thinslice: %v\n", err)
		return
	}
	fmt.Fprintf(w.stdout, "rev %d (%s): %s in %s\n", rev, why, buildSummary(before, after), elapsed.Round(time.Millisecond))
	for _, r := range results {
		if len(r.Instrs) == 0 {
			fmt.Fprintf(w.stdout, "  %s slice of %s: no reachable statements\n", w.opts.Mode, r.Seed)
			continue
		}
		lines := r.Slice.Lines()
		sortPos(lines)
		if r.Slice.Truncated {
			fmt.Fprintf(w.stderr, "thinslice: warning: slice of %s truncated (%v)\n", r.Seed, r.Slice.Err)
		}
		fmt.Fprintf(w.stdout, "  %s slice of %s: %d statements on %d lines\n",
			w.opts.Mode, r.Seed, r.Slice.Size(), len(lines))
		if w.verbose {
			printLines(w.stdout, w.sources, lines)
		}
	}
	for _, f := range findings {
		fmt.Fprintf(w.stdout, "  %s\n", f)
	}
	if w.checks != nil {
		fmt.Fprintf(w.stdout, "  %d finding(s)\n", len(findings))
	}
}

// query runs one revision's slices and checks over the live session.
func (w *watcher) query() ([]session.SeedResult, []checkers.Finding, error) {
	var results []session.SeedResult
	if len(w.seeds) > 0 {
		var err error
		if results, err = w.sess.SliceAll(w.opts, w.seeds); err != nil {
			return nil, nil, err
		}
	}
	var findings []checkers.Finding
	if len(w.checks) > 0 {
		a, err := analyzer.FromSession(w.sess)
		if err != nil {
			return nil, nil, err
		}
		rep := checkers.Run(a, w.checks, checkers.Config{})
		findings = rep.Findings
		if rep.Truncated {
			fmt.Fprintln(w.stderr, "thinslice: warning: findings are partial")
		}
	}
	return results, findings, nil
}

// buildSummary renders the Stats delta around one revision as a
// one-line account of the builds it ran.
func buildSummary(before, after session.Stats) string {
	var parts []string
	if after.PointsTos > before.PointsTos {
		parts = append(parts, "full solve")
	}
	if after.SDGs > before.SDGs {
		parts = append(parts, "full SDG")
	}
	if len(parts) == 0 {
		return "everything cached"
	}
	return strings.Join(parts, ", ")
}

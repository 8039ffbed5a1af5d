package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/checkers"
	"thinslice/internal/core"
	"thinslice/internal/dataflow"
	"thinslice/internal/depgraph"
	"thinslice/internal/diskstore"
	"thinslice/internal/ir"
	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
	"thinslice/internal/server"
	"thinslice/internal/session"
)

// requestTimeout is the server's default per-request deadline, which
// every replayed request runs under.
const requestTimeout = 10 * time.Second

// replayBase is what every replay shares: a store bounded like the
// server's, the parsed prelude, and per-op counters.
type replayBase struct {
	e       *env
	store   *session.Store
	prelude []*ast.ClassDecl
	n       int
	buf     bytes.Buffer

	// Store counters over the traced ops' artifact fetches.
	lookups, hits, evictions int64

	ops        int
	reqBytes   int
	sliceStmts int
	nodes      int
	edges      int
}

// access runs a session accessor that fetches an artifact for the op,
// inside a span, and counts the store lookups it made. An accessor first
// re-fetches its inputs, which hit.
func (b *replayBase) access(t *tracer, span string, f func() error) error {
	before := b.store.Stats()
	err := t.do(span, f)
	if t.on {
		after := b.store.Stats()
		b.hits += after.Hits - before.Hits
		b.lookups += after.Hits + after.Misses - before.Hits - before.Misses
		b.evictions += after.Evictions - before.Evictions
	}
	return err
}

func newReplayBase(e *env) replayBase {
	return replayBase{e: e, store: newServerStore()}
}

// newServerStore is a store with the caps the benchmark's servers run with.
func newServerStore() *session.Store {
	return session.NewBoundedStore(session.StoreLimits{MaxEntries: storeEntries, MaxCost: storeBytes})
}

func (b *replayBase) parsePrelude() error {
	classes, err := parser.ParseFile(prelude.FileName, prelude.Source)
	b.prelude = classes
	return err
}

// openSession opens a session configured the way the server configures
// the sessions of /slice, /batch and /check.
func openSession(sources map[string]string, st *session.Store, bud *budget.Budget, disk *diskstore.Cache) *session.Session {
	opts := []session.Option{session.InStore(st), session.WithBudget(bud), session.WithObjSens(true)}
	if disk != nil {
		opts = append(opts, session.WithDiskCache(disk))
	}
	return session.Open(sources, opts...)
}

// decodeRequest decodes a body the way the server does and parses its
// seeds.
func decodeRequest(body []byte) (*server.Request, []session.Seed, error) {
	var req server.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	raw := req.Seeds
	if req.Seed != "" {
		raw = append([]string{req.Seed}, raw...)
	}
	seeds, err := parseSeeds(raw)
	return &req, seeds, err
}

// parseSeeds parses "file:line" seeds as the server does.
func parseSeeds(raw []string) ([]session.Seed, error) {
	seeds := make([]session.Seed, 0, len(raw))
	for _, s := range raw {
		i := strings.LastIndex(s, ":")
		if i < 0 {
			return nil, fmt.Errorf("bad seed %q", s)
		}
		line, err := strconv.Atoi(s[i+1:])
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", s, err)
		}
		seeds = append(seeds, session.Seed{File: s[:i], Line: line})
	}
	return seeds, nil
}

// open opens the op's session and computes its source key, the way the
// server does before admitting a request to its breaker.
func (b *replayBase) open(t *tracer, sources map[string]string, bud *budget.Budget, disk *diskstore.Cache) *session.Session {
	var sess *session.Session
	_ = t.do("session.key", func() error {
		sess = openSession(sources, b.store, bud, disk)
		sess.SourceKey()
		return nil
	})
	return sess
}

// parseAndCheck runs the lang layer directly: parse every source, then
// type-check them together with the prelude, in the session's file order.
func (b *replayBase) parseAndCheck(t *tracer, sources map[string]string) error {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	prog := &ast.Program{Classes: append([]*ast.ClassDecl(nil), b.prelude...)}
	if err := t.do("lang.parse", func() error {
		for _, name := range names {
			classes, err := parser.ParseFile(name, sources[name])
			if err != nil {
				return err
			}
			prog.Classes = append(prog.Classes, classes...)
			prog.SrcBytes += len(sources[name])
		}
		return nil
	}); err != nil {
		return err
	}
	return t.do("lang.check", func() error {
		_, err := types.Check(prog)
		return err
	})
}

// lookup walks the session's accessor chain; on a built program every
// lookup hits, as in the server's post-slice partial-result check.
func lookup(sess *session.Session) error {
	if _, err := sess.Info(); err != nil {
		return err
	}
	if _, err := sess.Prog(); err != nil {
		return err
	}
	if _, err := sess.PointsTo(); err != nil {
		return err
	}
	_, err := sess.Graph()
	return err
}

// sliceResponse builds a /batch-shaped response from slice results.
func sliceResponse(results []session.SeedResult) *server.Response {
	resp := &server.Response{Status: "ok"}
	for _, r := range results {
		sr := server.SliceResult{Seed: r.Seed.String(), Lines: []string{}}
		if r.Slice != nil {
			sr.Statements = r.Slice.Size()
			sr.Truncated = r.Slice.Truncated
			for _, p := range r.Slice.Lines() {
				sr.Lines = append(sr.Lines, fmt.Sprintf("%s:%d", p.File, p.Line))
			}
		}
		resp.Slices = append(resp.Slices, sr)
	}
	return resp
}

// encode serializes a response the way the server writes it.
func (b *replayBase) encode(t *tracer, v any) error {
	return t.do("server.encode", func() error {
		b.buf.Reset()
		return json.NewEncoder(&b.buf).Encode(v)
	})
}

// count records one traced op's sizes.
func (b *replayBase) count(t *tracer, body []byte, results []session.SeedResult, g *sdg.Graph) {
	if !t.on {
		return
	}
	b.ops++
	b.reqBytes += len(body)
	for _, r := range results {
		if r.Slice != nil {
			b.sliceStmts += r.Slice.Size()
		}
	}
	if g != nil {
		b.nodes += g.NumNodes()
		b.edges += g.NumEdges()
	}
}

// layerMetrics reports the metrics every workload's replay has.
func (b *replayBase) layerMetrics(res *result, self map[string]float64, traced int) error {
	n := float64(max(b.ops, 1))
	res.set("server.request_kb", float64(b.reqBytes)/1e3/n, "KB")
	res.set("core.slice_stmts", float64(b.sliceStmts)/n, "count")
	res.set("sdg.nodes", float64(b.nodes)/n, "count")
	res.set("sdg.edges", float64(b.edges)/n, "count")
	res.set("core.slice_share", safeDiv(self["core.slice"], self["pointsto.solve"]+self["sdg.build"]), "ratio")
	res.set("session.store_hit_ratio", safeDiv(float64(b.hits), float64(b.lookups)), "ratio")
	res.set("session.evictions_per_op", float64(b.evictions)/n, "count")
	// Measure the heap before reading the store, so the store is still
	// reachable while the collector runs.
	live := liveHeap()
	res.set("session.cost_to_heap", safeDiv(float64(b.store.Stats().Cost), live), "ratio")
	return nil
}

// liveHeap collects garbage and reports the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	return readMetrics("/gc/heap/live:bytes")["/gc/heap/live:bytes"]
}

// --- cold ---

type coldReplay struct {
	replayBase
	progs []*program
	nonce uint64
}

func newColdReplay(e *env) replayer {
	return &coldReplay{replayBase: newReplayBase(e), progs: e.programs(p3), nonce: e.rng.next()}
}

func (r *coldReplay) cycle() int { return len(r.progs) }

func (r *coldReplay) setUp(t *tracer) error {
	if err := r.parsePrelude(); err != nil {
		return err
	}
	r.n = r.e.rng.intn(len(r.progs))
	t.on = false
	for i := 0; i < coldWarmup; i++ {
		if _, err := r.op(t); err != nil {
			return err
		}
	}
	return nil
}

// build replays a cold build of sources through ir, pointsto and sdg.
func (b *replayBase) build(t *tracer, sess *session.Session, sources map[string]string) (*sdg.Graph, error) {
	if err := b.parseAndCheck(t, sources); err != nil {
		return nil, err
	}
	if err := b.access(t, "session.info", func() error { _, err := sess.Info(); return err }); err != nil {
		return nil, err
	}
	if err := b.access(t, "ir.lower", func() error { _, err := sess.Prog(); return err }); err != nil {
		return nil, err
	}
	if err := b.access(t, "pointsto.solve", func() error { _, err := sess.PointsTo(); return err }); err != nil {
		return nil, err
	}
	var g *sdg.Graph
	err := b.access(t, "sdg.build", func() (err error) { g, err = sess.Graph(); return err })
	return g, err
}

func (r *coldReplay) op(t *tracer) (string, error) {
	p := r.progs[r.n%len(r.progs)]
	r.n++
	r.nonce++
	body := marshal(server.Request{Sources: map[string]string{p.file: p.variant(r.nonce)}, Seeds: p.seeds})
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()

	var req *server.Request
	var seeds []session.Seed
	if err := t.do("server.decode", func() (err error) { req, seeds, err = decodeRequest(body); return err }); err != nil {
		return p.name, err
	}
	sess := r.open(t, req.Sources, budget.New(ctx), nil)
	g, err := r.build(t, sess, req.Sources)
	if err != nil {
		return p.name, err
	}
	var results []session.SeedResult
	if err := t.do("core.slice", func() (err error) { results, err = sess.SliceAll(core.Options{Mode: core.Thin}, seeds); return err }); err != nil {
		return p.name, err
	}
	if err := t.do("session.lookup", func() error { return lookup(sess) }); err != nil {
		return p.name, err
	}
	resp := sliceResponse(results)
	if err := r.encode(t, resp); err != nil {
		return p.name, err
	}
	r.count(t, body, results, g)
	return p.name, r.e.exp.program(p.name).checkSlices(resp.Slices, allSeeds(len(p.seeds)))
}

// --- edit ---

type editReplay struct {
	replayBase
	p         *program
	ed        *editor
	sess      *session.Session
	seeds     []session.Seed
	depg      *depgraph.Graph
	statsFrom session.Stats
	dirty     int
	// revs holds the last editSites traced revisions, one per edit
	// site, for pointsto.delta_to_full.
	revs []editRev
}

// editRev is one traced revision's program and how long SolveDelta took
// on it.
type editRev struct {
	prog  *ir.Program
	delta time.Duration
}

func newEditReplay(e *env) replayer {
	return &editReplay{replayBase: newReplayBase(e), p: e.program(editSpec)}
}

func (r *editReplay) cycle() int { return editSites }

func (r *editReplay) setUp(t *tracer) error {
	if err := r.parsePrelude(); err != nil {
		return err
	}
	var err error
	if r.ed, err = newEditor(r.p, r.e.rng); err != nil {
		return err
	}
	// The server's /watch session: incremental and unbudgeted.
	r.sess = session.Open(map[string]string{r.p.file: r.p.src},
		session.InStore(r.store), session.WithObjSens(true), session.WithIncremental())
	if r.seeds, err = parseSeeds(r.p.seeds); err != nil {
		return err
	}
	if _, err := r.sess.SliceAll(core.Options{Mode: core.Thin}, r.seeds); err != nil {
		return err
	}
	if r.depg, err = r.sess.Depgraph(); err != nil {
		return err
	}
	t.on = false
	for i := 0; i < editWarmup; i++ {
		if _, err := r.op(t); err != nil {
			return err
		}
	}
	r.statsFrom = r.sess.Stats()
	return nil
}

func (r *editReplay) op(t *tracer) (string, error) {
	name := r.p.name
	src, err := r.ed.next()
	if err != nil {
		return name, err
	}
	body := marshal(server.WatchEdit{Update: map[string]string{r.p.file: src}})
	var edit server.WatchEdit
	if err := t.do("server.decode", func() error { return json.Unmarshal(body, &edit) }); err != nil {
		return name, err
	}
	_ = t.do("session.key", func() error {
		for file, content := range edit.Update {
			r.sess.Update(file, content)
		}
		r.sess.SourceKey()
		return nil
	})
	if err := r.parseAndCheck(t, edit.Update); err != nil {
		return name, err
	}
	if err := r.access(t, "session.info", func() error { _, err := r.sess.Info(); return err }); err != nil {
		return name, err
	}
	var depg *depgraph.Graph
	if err := r.access(t, "depgraph.build", func() (err error) { depg, err = r.sess.Depgraph(); return err }); err != nil {
		return name, err
	}
	if t.on {
		r.dirty += len(depgraph.Diff(r.depg, depg).Dirty())
	}
	r.depg = depg
	var rev editRev
	if err := r.access(t, "ir.assemble", func() (err error) { rev.prog, err = r.sess.Prog(); return err }); err != nil {
		return name, err
	}
	if err := r.access(t, "pointsto.delta", func() error {
		start := time.Now()
		_, err := r.sess.PointsTo()
		rev.delta = time.Since(start)
		return err
	}); err != nil {
		return name, err
	}
	if t.on {
		if len(r.revs) == editSites {
			r.revs = r.revs[1:]
		}
		r.revs = append(r.revs, rev)
	}
	var g *sdg.Graph
	if err := r.access(t, "sdg.delta", func() (err error) { g, err = r.sess.Graph(); return err }); err != nil {
		return name, err
	}
	var results []session.SeedResult
	if err := t.do("core.slice", func() (err error) { results, err = r.sess.SliceAll(core.Options{Mode: core.Thin}, r.seeds); return err }); err != nil {
		return name, err
	}
	if err := t.do("session.lookup", func() error { return lookup(r.sess) }); err != nil {
		return name, err
	}
	resp := sliceResponse(results)
	if err := r.encode(t, &server.WatchEvent{Status: resp.Status, Slices: resp.Slices}); err != nil {
		return name, err
	}
	r.count(t, body, results, g)
	return name, r.e.exp.program(name).checkSlices(resp.Slices, allSeeds(len(r.p.seeds)))
}

func (r *editReplay) layerMetrics(res *result, self map[string]float64, traced int) error {
	if err := r.replayBase.layerMetrics(res, self, traced); err != nil {
		return err
	}
	st := r.sess.Stats()
	delta := st.DeltaSolves - r.statsFrom.DeltaSolves
	full := st.PointsTos - r.statsFrom.PointsTos
	reuse := st.UnitReuses - r.statsFrom.UnitReuses
	lowered := st.UnitLowers - r.statsFrom.UnitLowers
	res.set("depgraph.dirty_units", float64(r.dirty)/float64(max(traced, 1)), "count")
	res.set("ir.unit_reuse_ratio", ratio(reuse, reuse+lowered), "ratio")
	res.set("pointsto.delta_share", ratio(delta, delta+full), "ratio")
	// core.slice_share compares against a cold build, which edit's ops
	// never run.
	res.set("core.slice_share", 0, "ratio")

	// Solve the last traced revisions from scratch, after the window, the
	// way the session solves a revision it cannot answer by delta.
	var deltas, fulls time.Duration
	for _, rev := range r.revs {
		start := time.Now()
		if _, err := pointsto.Analyze(rev.prog, pointsto.Config{
			ObjSensContainers: true,
			ContainerClasses:  prelude.ContainerClasses,
			RetainState:       true,
		}); err != nil {
			return fmt.Errorf("full solve for pointsto.delta_to_full: %w", err)
		}
		fulls += time.Since(start)
		deltas += rev.delta
	}
	res.set("pointsto.delta_to_full", safeDiv(float64(deltas), float64(fulls)), "ratio")
	return nil
}

// --- check ---

type checkReplay struct {
	replayBase
	progs    []*program
	nonce    uint64
	facts    map[string]int
	findings int
}

func newCheckReplay(e *env) replayer {
	return &checkReplay{replayBase: newReplayBase(e), progs: e.programs(checkMix), nonce: e.rng.next(), facts: map[string]int{}}
}

func (r *checkReplay) cycle() int { return len(r.progs) }

func (r *checkReplay) setUp(t *tracer) error {
	if err := r.parsePrelude(); err != nil {
		return err
	}
	r.n = r.e.rng.intn(len(r.progs))
	t.on = false
	for i := 0; i < checkWarmup; i++ {
		if _, err := r.op(t); err != nil {
			return err
		}
	}
	r.facts = map[string]int{}
	r.findings = 0
	return nil
}

// checkProblems are the IFDS problems the checker suite solves, in the
// order its checkers ask for them. Each one's span is "dataflow.<name>".
var checkProblems = []dataflow.Problem{
	dataflow.NewTaintProblem(nil),
	dataflow.CloseProblem{},
	dataflow.InitProblem{},
}

func (r *checkReplay) op(t *tracer) (string, error) {
	p := r.progs[r.n%len(r.progs)]
	r.n++
	r.nonce++
	body := marshal(server.Request{Sources: map[string]string{p.file: p.variant(r.nonce)}})
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()

	var req *server.Request
	if err := t.do("server.decode", func() (err error) { req, _, err = decodeRequest(body); return err }); err != nil {
		return p.name, err
	}
	sess := r.open(t, req.Sources, budget.New(ctx), nil)
	g, err := r.build(t, sess, req.Sources)
	if err != nil {
		return p.name, err
	}
	if err := r.access(t, "cha.build", func() error { _, err := sess.CHA(); return err }); err != nil {
		return p.name, err
	}
	if err := r.access(t, "modref.compute", func() error { _, err := sess.ModRef(); return err }); err != nil {
		return p.name, err
	}
	want := r.e.exp.program(p.name)
	var factsErr error
	for _, problem := range checkProblems {
		var res *dataflow.Results
		if err := r.access(t, "dataflow."+problem.Name(), func() (err error) { res, err = sess.Dataflow(problem); return err }); err != nil {
			return p.name, err
		}
		if t.on {
			r.facts[problem.Name()] += res.NumNodeFacts()
		}
		if err := want.checkFacts(problem.Name(), res.NumNodeFacts()); err != nil && factsErr == nil {
			factsErr = err
		}
	}
	var rep *checkers.Report
	if err := t.do("checkers.run", func() error {
		a, err := analyzer.FromSession(sess)
		if err != nil {
			return err
		}
		rep = checkers.Run(a, checkers.All(), checkers.Config{})
		return rep.Err
	}); err != nil {
		return p.name, err
	}
	resp := &server.Response{Status: "ok", Findings: []server.Finding{}}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, server.Finding{Checker: f.Checker, File: f.Pos.File, Line: f.Pos.Line, Message: f.Message})
	}
	if err := r.encode(t, resp); err != nil {
		return p.name, err
	}
	r.count(t, body, nil, g)
	if t.on {
		r.findings += len(rep.Findings)
	}
	if rep.Truncated {
		return p.name, fmt.Errorf("%s: checker run truncated", p.name)
	}
	if factsErr != nil {
		return p.name, factsErr
	}
	return p.name, want.checkFindings(resp.Findings)
}

func (r *checkReplay) layerMetrics(res *result, self map[string]float64, traced int) error {
	if err := r.replayBase.layerMetrics(res, self, traced); err != nil {
		return err
	}
	n := float64(max(traced, 1))
	for _, problem := range checkProblems {
		res.set("dataflow."+problem.Name()+"_facts", float64(r.facts[problem.Name()])/n, "count")
	}
	res.set("checkers.findings", float64(r.findings)/n, "count")
	return nil
}

// --- restart ---

// diskKinds are the artifact kinds a /batch publishes, in the order the
// session's accessors read them back.
var diskKinds = []string{"ir", "pts", "sdg"}

type restartReplay struct {
	replayBase
	progs       []*program
	bodies      [][]byte
	keys        []map[string]string // per program: kind → key
	readBytes   int
	hits, miss  int64
	quarantines int64
}

func newRestartReplay(e *env) replayer {
	r := &restartReplay{replayBase: newReplayBase(e), progs: e.programs(p3)}
	for _, p := range r.progs {
		r.bodies = append(r.bodies, marshal(server.Request{Sources: map[string]string{p.file: p.src}, Seeds: p.seeds}))
	}
	return r
}

func (r *restartReplay) cycle() int { return len(r.progs) }

// setUp populates the cache directory. The session's disk tier names the
// records; the timed population then encodes each program's artifacts
// and publishes them under those names (diskstore.put).
func (r *restartReplay) setUp(t *tracer) error {
	if err := r.parsePrelude(); err != nil {
		return err
	}
	r.n = r.e.rng.intn(len(r.progs))
	probe := r.e.cacheDir() + "-keys"
	defer os.RemoveAll(probe)
	for _, dir := range []string{probe, r.e.cacheDir()} {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	probeDisk, err := diskstore.Open(probe, 0)
	if err != nil {
		return err
	}
	for _, p := range r.progs {
		seen := map[string]bool{}
		for _, k := range probeDisk.Keys() {
			seen[k] = true
		}
		sess := openSession(map[string]string{p.file: p.src}, session.NewStore(), nil, probeDisk)
		if _, err := sess.Graph(); err != nil {
			return err
		}
		keys := map[string]string{}
		for _, k := range probeDisk.Keys() {
			if !seen[k] {
				if _, kind, ok := probeDisk.GetRecord(k); ok {
					keys[kind] = k
				}
			}
		}
		for _, kind := range diskKinds {
			if keys[kind] == "" {
				return fmt.Errorf("%s: no %s record published", p.name, kind)
			}
		}
		r.keys = append(r.keys, keys)
	}

	disk, err := diskstore.Open(r.e.cacheDir(), 0)
	if err != nil {
		return err
	}
	for i, p := range r.progs {
		sess := openSession(map[string]string{p.file: p.src}, session.NewStore(), nil, nil)
		g, err := sess.Graph()
		if err != nil {
			return err
		}
		prog, _ := sess.Prog()
		pts, _ := sess.PointsTo()
		encoders := map[string]func() ([]byte, error){
			"ir":  func() ([]byte, error) { return ir.EncodeProgram(prog) },
			"pts": func() ([]byte, error) { return pointsto.EncodeResult(pts) },
			"sdg": func() ([]byte, error) { return sdg.EncodeGraph(g) },
		}
		for _, kind := range diskKinds {
			if err := t.do("diskstore.put", func() error {
				payload, err := encoders[kind]()
				if err != nil {
					return err
				}
				return disk.Put(kind, r.keys[i][kind], payload)
			}); err != nil {
				return err
			}
		}
	}
	t.on = false
	for i := 0; i < restartWarmup; i++ {
		if _, err := r.op(t); err != nil {
			return err
		}
	}
	r.readBytes, r.hits, r.miss, r.quarantines = 0, 0, 0, 0
	return nil
}

func (r *restartReplay) op(t *tracer) (string, error) {
	k := r.n % len(r.progs)
	r.n++
	p := r.progs[k]
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	bud := budget.New(ctx)

	// A fresh server: a new store over a freshly opened cache.
	r.store = newServerStore()
	var disk *diskstore.Cache
	if err := t.do("diskstore.open", func() (err error) { disk, err = diskstore.Open(r.e.cacheDir(), 0); return err }); err != nil {
		return p.name, err
	}
	var req *server.Request
	var seeds []session.Seed
	if err := t.do("server.decode", func() (err error) { req, seeds, err = decodeRequest(r.bodies[k]); return err }); err != nil {
		return p.name, err
	}
	sess := r.open(t, req.Sources, bud, disk)
	if err := r.parseAndCheck(t, req.Sources); err != nil {
		return p.name, err
	}
	var info *types.Info
	if err := r.access(t, "session.info", func() (err error) { info, err = sess.Info(); return err }); err != nil {
		return p.name, err
	}
	payloads := map[string][]byte{}
	if err := t.do("diskstore.get", func() error {
		for _, kind := range diskKinds {
			payload, ok := disk.Get(kind, r.keys[k][kind])
			if !ok {
				return fmt.Errorf("%s: %s record missing from the cache", p.name, kind)
			}
			payloads[kind] = payload
		}
		return nil
	}); err != nil {
		return p.name, err
	}
	var prog *ir.Program
	if err := t.do("ir.decode", func() (err error) { prog, err = ir.DecodeProgram(payloads["ir"], info); return err }); err != nil {
		return p.name, err
	}
	var pts *pointsto.Result
	if err := t.do("pointsto.decode", func() (err error) { pts, err = pointsto.DecodeResult(payloads["pts"], prog); return err }); err != nil {
		return p.name, err
	}
	var g *sdg.Graph
	if err := t.do("sdg.decode", func() (err error) { g, err = sdg.DecodeGraph(payloads["sdg"], prog, pts); return err }); err != nil {
		return p.name, err
	}
	var results []session.SeedResult
	_ = t.do("core.slice", func() error {
		slicer := core.NewThin(g).WithBudget(bud)
		for _, sd := range seeds {
			res := session.SeedResult{Seed: sd, Instrs: core.SeedsAt(g, sd.File, sd.Line)}
			if len(res.Instrs) > 0 {
				res.Slice = slicer.Slice(res.Instrs...)
			}
			results = append(results, res)
		}
		return nil
	})
	resp := sliceResponse(results)
	if err := r.encode(t, resp); err != nil {
		return p.name, err
	}
	r.count(t, r.bodies[k], results, g)
	if t.on {
		for _, kind := range diskKinds {
			r.readBytes += len(payloads[kind])
		}
		st := disk.Stats()
		r.hits += st.Hits
		r.miss += st.Misses
		r.quarantines += st.Quarantines
	}
	return p.name, r.e.exp.program(p.name).checkSlices(resp.Slices, allSeeds(len(p.seeds)))
}

func (r *restartReplay) layerMetrics(res *result, self map[string]float64, traced int) error {
	if err := r.replayBase.layerMetrics(res, self, traced); err != nil {
		return err
	}
	n := float64(max(traced, 1))
	res.set("diskstore.read_mb", float64(r.readBytes)/1e6/n, "MB")
	res.set("diskstore.hit_ratio", ratio(int(r.hits), int(r.hits+r.miss)), "ratio")
	res.set("diskstore.quarantines", float64(r.quarantines), "count")
	return nil
}

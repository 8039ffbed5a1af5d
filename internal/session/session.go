// Package session turns the one-shot analysis pipeline into a
// reusable, demand-driven analysis session (the paper's §4 stance that
// slices are cheap enough to compute per query, applied to the whole
// pipeline). A Session owns a content-hashed artifact store covering
// every phase — per-file ASTs, the typed program, SSA IR, points-to,
// the dependence graph, and the derived CHA/mod-ref/context-sensitive
// artifacts — each memoized by the hash of its inputs, so repeated and
// multi-seed queries over the same program skip straight to slicing,
// and editing one source file invalidates exactly the artifacts
// downstream of it.
//
// Every artifact is reached through one tier chain, lookup: the
// in-memory store, then the disk tier (WithDiskCache), where a record
// that fails to decode is quarantined, then a build. An artifact
// inherits the completeness of its inputs: only a complete value built
// from complete inputs is cached or published, so a budget-truncated or
// degraded result, and everything derived from it, reaches only the
// caller that asked for it.
//
// Package analyzer re-exports this package's options and wraps a
// session in its one-shot Analyze.
package session

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/csslice"
	"thinslice/internal/dataflow"
	"thinslice/internal/depgraph"
	"thinslice/internal/diskstore"
	"thinslice/internal/ir"
	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
)

// Stats counts the phase executions a session actually performed —
// cache hits do not increment. The warm-query tests assert on these.
type Stats struct {
	Parses        int // user source files parsed
	PreludeParses int // times the container prelude was parsed (process-wide cache)
	Checks        int // type checks
	Lowers        int // SSA lowerings
	Depgraphs     int // symbol dependency graph builds (Depgraph only)
	UnitLowers    int // always 0: lowering has no per-method unit tier
	UnitReuses    int // always 0: lowering has no per-method unit tier
	PointsTos     int // pointer analyses
	DeltaSolves   int // always 0: points-to has no incremental solver
	SDGs          int // dependence graph builds
	CHAs          int // class-hierarchy call graph builds
	ModRefs       int // mod-ref computations
	CSGraphs      int // context-sensitive SDG builds
	Dataflows     int // IFDS dataflow solves
}

type config struct {
	objSens    bool
	containers []string
	entries    []string
	noPrelude  bool
	verifyIR   bool
	budget     *budget.Budget
	store      *Store
	disk       *diskstore.Cache
}

// Option configures Open.
type Option func(*config)

// WithObjSens toggles object-sensitive container handling in the
// pointer analysis (default on, the paper's precise configuration).
func WithObjSens(on bool) Option { return func(c *config) { c.objSens = on } }

// WithContainers overrides the set of container classes cloned
// object-sensitively.
func WithContainers(names []string) Option { return func(c *config) { c.containers = names } }

// WithEntries sets explicit entry methods by qualified name
// (e.g. "Main.main"); default is every static method named main.
func WithEntries(names ...string) Option { return func(c *config) { c.entries = names } }

// WithoutPrelude analyzes the sources without the container prelude.
func WithoutPrelude() Option { return func(c *config) { c.noPrelude = true } }

// WithVerifyIR runs ir.Verify over the lowered program and fails the
// pipeline with the violations found.
func WithVerifyIR() Option { return func(c *config) { c.verifyIR = true } }

// WithBudget bounds every phase the session runs by the given budget.
// Artifacts a budget truncates or degrades, and every artifact derived
// from them, are never cached.
func WithBudget(b *budget.Budget) Option { return func(c *config) { c.budget = b } }

// InStore places the session's artifacts in an existing store, sharing
// them with every other session using that store.
func InStore(st *Store) Option { return func(c *config) { c.store = st } }

// WithIncremental is inert: every session runs the one pipeline, and an
// edit rebuilds every artifact downstream of it, which measured faster
// than re-lowering per method and reusing the last build's SDG
// templates. It is kept only for callers that still pass it.
func WithIncremental() Option { return func(*config) {} }

// WithDiskCache layers a persistent disk tier under the in-memory
// store: on a store miss the session first tries to decode the artifact
// from disk, and successful builds are encoded and published there. A
// disk entry that fails verification or decoding is quarantined and the
// artifact rebuilt — disk corruption never surfaces as a session error.
func WithDiskCache(c *diskstore.Cache) Option { return func(cfg *config) { cfg.disk = c } }

// Session is a stateful analysis over one evolving source set. All
// accessors are safe for concurrent use; artifacts are immutable.
type Session struct {
	mu       sync.Mutex
	cfg      config
	sources  map[string]string
	fileKeys map[string]Key
	stats    Stats
	// snap caches snapshot()'s derived view of the source set (every
	// phase lookup needs it, and re-hashing all sources per phase is
	// measurable). Invalidated by Update/Remove.
	snap struct {
		valid bool
		names []string
		srcs  map[string]string
		key   Key
	}
}

// Open starts a session over the given sources (name → content). The
// map is copied; use Update to evolve the source set afterwards.
func Open(sources map[string]string, opts ...Option) *Session {
	cfg := config{objSens: true, containers: prelude.ContainerClasses}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.store == nil {
		cfg.store = NewStore()
	}
	s := &Session{
		cfg:      cfg,
		sources:  make(map[string]string, len(sources)),
		fileKeys: make(map[string]Key, len(sources)),
	}
	for name, src := range sources {
		s.sources[name] = src
		s.fileKeys[name] = hashParts("file", name, src)
	}
	return s
}

// Update adds or replaces one source file. Artifacts derived from the
// old content stay in the store (another session may still want them);
// this session's next query re-derives exactly the artifacts downstream
// of the change.
func (s *Session) Update(name, content string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.sources[name]; ok && old == content {
		// Fast path: identical content hashes to the identical file key,
		// so every derived artifact is already current — invalidate
		// nothing, not even the cached snapshot.
		return
	}
	s.sources[name] = content
	s.fileKeys[name] = hashParts("file", name, content)
	s.snap.valid = false
}

// Remove drops one source file from the session's source set.
func (s *Session) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sources, name)
	delete(s.fileKeys, name)
	s.snap.valid = false
}

// Stats returns the phase-execution counters so far.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Store returns the artifact store backing this session.
func (s *Session) Store() *Store { return s.cfg.store }

// Budget returns the budget bounding this session's phases and the
// slicers it hands out (nil means unlimited).
func (s *Session) Budget() *budget.Budget { return s.cfg.budget }

// count applies a counter update under the session lock.
func (s *Session) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
	s.cfg.store.countPhase(f)
}

// snapshot returns the current file set in deterministic name order
// together with the source-set key that roots all artifact keys. The
// view is cached between source mutations; callers must treat the
// returned slice and map as read-only.
func (s *Session) snapshot() (names []string, srcs map[string]string, srcKey Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap.valid {
		return s.snap.names, s.snap.srcs, s.snap.key
	}
	srcs = make(map[string]string, len(s.sources)+1)
	keys := make(map[string]Key, len(s.sources)+1)
	for name, src := range s.sources {
		srcs[name] = src
		keys[name] = s.fileKeys[name]
		names = append(names, name)
	}
	if !s.cfg.noPrelude {
		if _, ok := srcs[prelude.FileName]; !ok {
			srcs[prelude.FileName] = prelude.Source
			keys[prelude.FileName] = hashParts("file", prelude.FileName, prelude.Source)
			names = append(names, prelude.FileName)
		}
	}
	sort.Strings(names)
	parts := []string{"srcset"}
	for _, name := range names {
		parts = append(parts, name, string(keys[name]))
	}
	s.snap.valid = true
	s.snap.names, s.snap.srcs, s.snap.key = names, srcs, hashParts(parts...)
	return s.snap.names, s.snap.srcs, s.snap.key
}

// PhaseHook is a test-only interception point consulted at every phase
// boundary with the phase about to run and the session's source-set
// key. A non-nil error aborts the phase with that error; a panic is
// recovered by the phase boundary like any other internal fault. The
// fault-injection harness (package faults) installs its registry here.
type PhaseHook func(p budget.Phase, srcKey Key) error

var phaseHook atomic.Pointer[PhaseHook]

// SetPhaseHook installs h (nil clears) and returns a func restoring
// the previous hook. Test-only: production sessions must run with no
// hook installed.
func SetPhaseHook(h PhaseHook) (restore func()) {
	var p *PhaseHook
	if h != nil {
		p = &h
	}
	old := phaseHook.Swap(p)
	return func() { phaseHook.Store(old) }
}

// SourceKey returns the content hash of the session's current source
// set (prelude included unless the session was opened WithoutPrelude).
// Equal keys mean the same program; the server's circuit breaker and
// the fault-injection registry key on it.
func (s *Session) SourceKey() Key {
	_, _, srcKey := s.snapshot()
	return srcKey
}

// phase runs f with the session's panic boundary: a panic inside any
// phase surfaces as a *budget.ErrInternal tagged p, never a crash. The
// budget's cancellation/deadline is checked first, mirroring the
// sequential pipeline's phase boundaries.
func (s *Session) phase(p budget.Phase, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &budget.ErrInternal{Phase: p, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := s.cfg.budget.Err(p); err != nil {
		return err
	}
	if h := phaseHook.Load(); h != nil {
		if err := (*h)(p, s.SourceKey()); err != nil {
			return err
		}
	}
	return f()
}

// preludeCache caches the parsed container prelude process-wide: its
// source is a compile-time constant, so every session (and every
// analyzer.Analyze call) shares one AST.
var preludeCache struct {
	mu      sync.Mutex
	classes []*ast.ClassDecl
	parses  int
}

// PreludeParseCount reports how many times the container prelude has
// been parsed in this process (expected: at most once).
func PreludeParseCount() int {
	preludeCache.mu.Lock()
	defer preludeCache.mu.Unlock()
	return preludeCache.parses
}

func parsedPrelude() ([]*ast.ClassDecl, bool, error) {
	preludeCache.mu.Lock()
	defer preludeCache.mu.Unlock()
	if preludeCache.classes == nil {
		classes, err := parser.ParseFile(prelude.FileName, prelude.Source)
		if err != nil {
			return nil, false, err
		}
		preludeCache.classes = classes
		preludeCache.parses++
		return classes, true, nil
	}
	return preludeCache.classes, false, nil
}

// artifact describes one session artifact to lookup: the phase that
// builds it, its store key, its disk record kind, how to build it, and
// how it crosses the disk tier. Completeness is inherited: a value is
// cached and published only when it is complete and every input it was
// derived from is complete.
type artifact[T any] struct {
	phase budget.Phase
	key   Key
	// kind names the disk record; "" keeps the artifact in memory only.
	kind   string
	decode func([]byte) (T, error)
	encode func(T) ([]byte, error)
	build  func() (T, error)
	// partialInputs marks an artifact derived from a truncated or
	// degraded input. Its key does not say so, so the value is built
	// fresh, neither read from nor written to any tier.
	partialInputs bool
	// partial reports whether a built value is itself incomplete (nil:
	// never).
	partial func(T) bool
}

// lookup returns a's value through the session's tier chain: the
// in-memory store, then the disk tier (a record that fails to decode is
// quarantined), then build. Only a complete value built from complete
// inputs is cached and published; anything else reaches this caller
// alone. The phase boundary (budget check, hook, panic recovery) wraps
// the whole chain once per call.
func lookup[T any](s *Session, a artifact[T]) (T, error) {
	var val T
	err := s.phase(a.phase, func() error {
		v, err := s.cfg.store.get(a.key, a.phase, func() (any, bool, error) {
			if !a.partialInputs {
				if v, ok := a.fetch(s); ok {
					return v, true, nil
				}
			}
			v, err := a.build()
			if err != nil {
				return nil, false, err
			}
			if a.partialInputs || (a.partial != nil && a.partial(v)) {
				return v, false, nil
			}
			a.publish(s, v)
			return v, true, nil
		})
		if err == nil {
			val = v.(T)
		}
		return err
	})
	return val, err
}

// fetch reads a's record from the disk tier and decodes it. A record
// that fails to decode is quarantined, so the rebuild re-publishes clean
// bytes: a corrupt record can cause a rebuild but never a wrong answer.
func (a artifact[T]) fetch(s *Session) (T, bool) {
	var zero T
	if a.kind == "" || s.cfg.disk == nil {
		return zero, false
	}
	payload, ok := s.cfg.disk.Get(a.kind, string(a.key))
	if !ok {
		return zero, false
	}
	v, err := a.decode(payload)
	if err != nil {
		s.cfg.disk.Quarantine(a.kind, string(a.key), err.Error())
		return zero, false
	}
	return v, true
}

// publish encodes v and writes it to the disk tier. Encode or write
// failures are dropped: persistence is an optimization, never a
// correctness dependency.
func (a artifact[T]) publish(s *Session, v T) {
	if a.kind == "" || s.cfg.disk == nil {
		return
	}
	if payload, err := a.encode(v); err == nil {
		_ = s.cfg.disk.Put(a.kind, string(a.key), payload)
	}
}

// partialPts reports whether a points-to result stopped early, which
// makes every artifact derived from it partial too.
func partialPts(pts *pointsto.Result) bool { return pts.Truncated || pts.Downgraded }

// parseResult is the cached artifact of parsing one file. Parse errors
// are deterministic properties of the content, so they are cached too
// (as values, not store errors).
type parseResult struct {
	classes []*ast.ClassDecl
	err     error
}

// Info returns the parsed and type-checked program, building (or
// fetching) per-file ASTs and the typed Info on demand.
func (s *Session) Info() (*types.Info, error) {
	names, srcs, srcKey := s.snapshot()
	return lookup(s, artifact[*types.Info]{
		phase: budget.PhaseLoad,
		key:   hashParts("check", string(srcKey)),
		build: func() (*types.Info, error) {
			prog := &ast.Program{}
			var all parser.ErrorList
			for _, name := range names {
				classes, perr := s.parseFile(name, srcs[name])
				prog.SrcBytes += len(srcs[name])
				prog.Classes = append(prog.Classes, classes...)
				if perr != nil {
					all = append(all, perr.(parser.ErrorList)...)
				}
			}
			if len(all) > 0 {
				return nil, all
			}
			s.count(func(st *Stats) { st.Checks++ })
			return types.Check(prog)
		},
	})
}

// parseFile returns the AST of one file, via the process-wide prelude
// cache or the per-file content-keyed store.
func (s *Session) parseFile(name, src string) ([]*ast.ClassDecl, error) {
	if name == prelude.FileName && src == prelude.Source {
		classes, parsed, err := parsedPrelude()
		if parsed {
			s.count(func(st *Stats) { st.PreludeParses++ })
		}
		return classes, err
	}
	v, _ := s.cfg.store.get(hashParts("parse", name, src), budget.PhaseLoad, func() (any, bool, error) {
		s.count(func(st *Stats) { st.Parses++ })
		classes, err := parser.ParseFile(name, src)
		return parseResult{classes, err}, err == nil, nil
	})
	res := v.(parseResult)
	return res.classes, res.err
}

// Depgraph returns the cross-file symbol dependency graph of the
// current source set: one unit per lowering job, keyed by a content
// hash covering the unit's declaration and the deep fingerprints of
// every class its lowering can observe. It is kept in memory only, and
// nothing in the pipeline reads it.
func (s *Session) Depgraph() (*depgraph.Graph, error) {
	info, err := s.Info()
	if err != nil {
		return nil, err
	}
	_, _, srcKey := s.snapshot()
	return lookup(s, artifact[*depgraph.Graph]{
		phase: budget.PhaseLoad,
		key:   hashParts("depgraph", string(srcKey)),
		build: func() (*depgraph.Graph, error) {
			s.count(func(st *Stats) { st.Depgraphs++ })
			return depgraph.Build(info), nil
		},
	})
}

// Prog returns the SSA IR lowered from the typed program, verified
// when the session was opened WithVerifyIR.
func (s *Session) Prog() (*ir.Program, error) {
	info, err := s.Info()
	if err != nil {
		return nil, err
	}
	_, _, srcKey := s.snapshot()
	prog, err := lookup(s, artifact[*ir.Program]{
		phase:  budget.PhaseLower,
		key:    hashParts("ir", string(srcKey), strconv.FormatBool(s.cfg.verifyIR)),
		kind:   "ir",
		decode: func(payload []byte) (*ir.Program, error) { return ir.DecodeProgram(payload, info) },
		encode: ir.EncodeProgram,
		build: func() (*ir.Program, error) {
			s.count(func(st *Stats) { st.Lowers++ })
			p := ir.Lower(info)
			if len(p.Diags) > 0 {
				return nil, p.Diags
			}
			return p, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if s.cfg.verifyIR {
		if err := s.phase(budget.PhaseVerify, func() error {
			if verrs := ir.Verify(prog); len(verrs) > 0 {
				return fmt.Errorf("analyzer: IR verification failed: %w (%d violation(s))", verrs[0], len(verrs))
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// ptsKey is the key of the points-to artifact: the source set plus the
// pointer-analysis configuration. Every artifact derived from points-to
// hashes it into its own key.
func (s *Session) ptsKey() Key {
	_, _, srcKey := s.snapshot()
	return hashParts("pts", string(srcKey),
		strconv.FormatBool(s.cfg.objSens),
		strings.Join(s.cfg.containers, "\x00"),
		strings.Join(s.cfg.entries, "\x00"))
}

// ptsConfig is the pointer-analysis configuration of this session over
// the given resolved entries.
func (s *Session) ptsConfig(entries []*ir.Method) pointsto.Config {
	return pointsto.Config{
		Entries:           entries,
		ObjSensContainers: s.cfg.objSens,
		ContainerClasses:  s.cfg.containers,
		Budget:            s.cfg.budget,
	}
}

// PointsTo returns the pointer-analysis result. Truncated or
// downgraded results (budget exhaustion) are returned but not cached.
func (s *Session) PointsTo() (*pointsto.Result, error) {
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	return lookup(s, artifact[*pointsto.Result]{
		phase:   budget.PhasePointsTo,
		key:     s.ptsKey(),
		kind:    "pts",
		decode:  func(payload []byte) (*pointsto.Result, error) { return pointsto.DecodeResult(payload, prog) },
		encode:  pointsto.EncodeResult,
		partial: partialPts,
		build: func() (*pointsto.Result, error) {
			entries, err := resolveEntries(prog, s.cfg.entries)
			if err != nil {
				return nil, err
			}
			s.count(func(st *Stats) { st.PointsTos++ })
			return pointsto.Analyze(prog, s.ptsConfig(entries))
		},
	})
}

// Graph returns the dependence graph, metered by the session's budget.
// Truncated graphs, and graphs over a truncated or degraded points-to
// result, are not cached.
func (s *Session) Graph() (*sdg.Graph, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	return lookup(s, artifact[*sdg.Graph]{
		phase:         budget.PhaseSDG,
		key:           hashParts("sdg", string(s.ptsKey())),
		kind:          "sdg",
		decode:        func(payload []byte) (*sdg.Graph, error) { return sdg.DecodeGraph(payload, prog, pts) },
		encode:        sdg.EncodeGraph,
		partialInputs: partialPts(pts),
		partial:       func(g *sdg.Graph) bool { return g.Truncated },
		build: func() (*sdg.Graph, error) {
			s.count(func(st *Stats) { st.SDGs++ })
			return sdg.BuildBudget(prog, pts, s.cfg.budget)
		},
	})
}

// CHA returns the class-hierarchy call graph rooted at the analysis
// entries (used by the checker suite).
func (s *Session) CHA() (*cha.CallGraph, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	return lookup(s, artifact[*cha.CallGraph]{
		phase:         budget.PhaseCheck,
		key:           hashParts("cha", string(s.ptsKey())),
		kind:          "cha",
		decode:        func(payload []byte) (*cha.CallGraph, error) { return cha.DecodeCallGraph(payload, prog) },
		encode:        cha.EncodeCallGraph,
		partialInputs: partialPts(pts),
		build: func() (*cha.CallGraph, error) {
			s.count(func(st *Stats) { st.CHAs++ })
			return cha.Build(prog, pts.Entries()), nil
		},
	})
}

// ModRef returns the mod-ref summaries over the points-to result.
func (s *Session) ModRef() (*modref.Result, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	return lookup(s, artifact[*modref.Result]{
		phase:         budget.PhaseCheck,
		key:           hashParts("modref", string(s.ptsKey())),
		kind:          "modref",
		decode:        func(payload []byte) (*modref.Result, error) { return modref.DecodeResult(payload, prog, pts) },
		encode:        modref.EncodeResult,
		partialInputs: partialPts(pts),
		build: func() (*modref.Result, error) {
			s.count(func(st *Stats) { st.ModRefs++ })
			return modref.Compute(prog, pts), nil
		},
	})
}

// Dataflow returns the solved IFDS results for problem p over the
// session's program, keyed by the problem's name and configuration on
// top of the pointer-analysis configuration (so a source edit or a
// points-to config change invalidates exactly the dataflow artifacts
// downstream). A truncated solve, or a solve over a truncated points-to
// result or dependence graph, is returned but never cached.
func (s *Session) Dataflow(p dataflow.Problem) (*dataflow.Results, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	cg, err := s.CHA()
	if err != nil {
		return nil, err
	}
	return lookup(s, artifact[*dataflow.Results]{
		phase: budget.PhaseDataflow,
		key:   hashParts("df", string(s.ptsKey()), p.Name(), p.ConfigKey()),
		kind:  "df",
		decode: func(payload []byte) (*dataflow.Results, error) {
			return dataflow.DecodeResults(payload, prog, pts, g)
		},
		encode:        dataflow.EncodeResults,
		partialInputs: partialPts(pts) || g.Truncated,
		partial:       func(r *dataflow.Results) bool { return r.Truncated },
		build: func() (*dataflow.Results, error) {
			s.count(func(st *Stats) { st.Dataflows++ })
			return dataflow.Solve(dataflow.Inputs{Prog: prog, Pts: pts, Graph: g, CHA: cg}, p, s.cfg.budget)
		},
	})
}

// CSGraph returns the context-sensitive dependence graph with heap
// parameters (paper §5.3), for the csslice comparison slicer.
func (s *Session) CSGraph() (*csslice.Graph, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	mr, err := s.ModRef()
	if err != nil {
		return nil, err
	}
	return lookup(s, artifact[*csslice.Graph]{
		phase:         budget.PhaseSDG,
		key:           hashParts("cs", string(s.ptsKey())),
		partialInputs: partialPts(pts), // mr inherits pts's completeness
		build: func() (*csslice.Graph, error) {
			s.count(func(st *Stats) { st.CSGraphs++ })
			return csslice.Build(prog, pts, mr), nil
		},
	})
}

// resolveEntries maps explicit entry names to methods. A name that
// matches nothing is an error naming the available candidates, rather
// than a silent empty analysis.
func resolveEntries(prog *ir.Program, names []string) ([]*ir.Method, error) {
	var entries []*ir.Method
	var missing []string
	for _, name := range names {
		found := false
		for _, m := range prog.Methods {
			if m.Name() == name {
				entries = append(entries, m)
				found = true
			}
		}
		if !found {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		var mains []string
		for _, m := range prog.Methods {
			if m.Sig.Static && m.Sig.Name == "main" {
				mains = append(mains, m.Name())
			}
		}
		sort.Strings(mains)
		candidates := "none found"
		if len(mains) > 0 {
			candidates = strings.Join(mains, ", ")
		}
		return nil, fmt.Errorf("analyzer: entry method(s) not found: %s (available main candidates: %s)",
			strings.Join(missing, ", "), candidates)
	}
	return entries, nil
}

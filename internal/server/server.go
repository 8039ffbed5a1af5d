// Package server exposes the analysis pipeline as a hardened,
// long-running HTTP+JSON service (`thinslice serve`): interactive
// slice, batch, and checker queries over a shared, bounded artifact
// store, designed so no single request can take the process down.
//
// The hardening layers, outermost first:
//
//   - Admission control: a bounded worker pool behind a bounded wait
//     queue. Saturation is a fast, typed 429 with Retry-After — load
//     is shed at the door instead of accumulating goroutines.
//   - Deadline propagation: the per-request timeout flows from the
//     client (timeout_ms, clamped) through the request context into a
//     budget.Budget, so an expired or disconnected request abandons
//     analysis mid-phase with a typed error and frees its worker.
//   - A bounded session store: artifacts live in a cost-accounted LRU
//     (session.NewBoundedStore), keeping hot programs warm while
//     memory stays capped; eviction metrics are served at /statsz.
//   - A circuit breaker keyed by program content hash: a program that
//     repeatedly panics, times out, or exhausts its budget is
//     short-circuited with its cached typed error and exponential
//     backoff, so a pathological input cannot monopolize workers.
//   - A recover boundary around every request on top of the session's
//     per-phase boundary: the response is always well-formed JSON.
//
// Endpoints: POST /slice, /batch, /check, /watch (a long-lived edit
// stream, see watch.go); GET /healthz, /readyz,
// /statsz. See the README "Serving" section for the wire format.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/checkers"
	"thinslice/internal/core"
	"thinslice/internal/diskstore"
	"thinslice/internal/session"
)

// Config shapes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// Workers bounds concurrent analyses (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the
	// running ones (default 4×Workers). Requests past the queue are
	// rejected immediately with 429.
	QueueDepth int
	// QueueWait bounds how long an admitted request may wait for a
	// worker before a 429 (default 2s).
	QueueWait time.Duration
	// DefaultTimeout is the per-request analysis deadline when the
	// client sets none; MaxTimeout clamps client-requested deadlines
	// (defaults 10s / 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxSteps caps every analysis phase per request (0 = unlimited).
	MaxSteps int64
	// MaxRequestBytes bounds the request body (default 4 MiB).
	MaxRequestBytes int64
	// StoreEntries/StoreBytes cap the shared artifact store (0 selects
	// the defaults, 256 entries / 256 MiB estimated; a negative value
	// means no cap).
	StoreEntries int
	StoreBytes   int64
	// BreakerFailures consecutive failures open a program's circuit
	// for BreakerBackoff, doubling per re-open up to BreakerMaxBackoff
	// (defaults 3 / 500ms / 30s).
	BreakerFailures   int
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
	// CacheDir enables the persistent artifact cache: analysis
	// artifacts are encoded to a crash-safe content-addressed disk
	// store under this directory and survive process restarts. Empty
	// (the default) keeps the cache purely in memory.
	CacheDir string
	// CacheMaxBytes bounds the disk cache (0 = 256 MiB); the least
	// recently used artifacts are evicted beyond it.
	CacheMaxBytes int64
	// WatchHeartbeat is the interval between heartbeat events on an
	// otherwise-idle /watch stream (default 20s); a failed heartbeat
	// write releases the stream slot of a dead client promptly.
	WatchHeartbeat time.Duration
	// WatchIdleTimeout ends a /watch stream that has sent no edits for
	// this long (default 5m), so a silent-but-connected client cannot
	// pin one of the stream slots forever.
	WatchIdleTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof. Off by
	// default: the profiler is a debugging backdoor, not a public
	// endpoint.
	EnablePprof bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 4 << 20
	}
	if c.StoreEntries == 0 {
		c.StoreEntries = 256
	}
	if c.StoreBytes == 0 {
		c.StoreBytes = 256 << 20
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 500 * time.Millisecond
	}
	if c.BreakerMaxBackoff <= 0 {
		c.BreakerMaxBackoff = 30 * time.Second
	}
	if c.WatchHeartbeat <= 0 {
		c.WatchHeartbeat = 20 * time.Second
	}
	if c.WatchIdleTimeout <= 0 {
		c.WatchIdleTimeout = 5 * time.Minute
	}
}

// Request is the wire format shared by /slice, /batch, and /check.
type Request struct {
	// Sources maps file name to content; required.
	Sources map[string]string `json:"sources"`
	// Seed ("file.mj:line") selects the /slice query; Seeds the
	// /batch query.
	Seed  string   `json:"seed,omitempty"`
	Seeds []string `json:"seeds,omitempty"`
	// Mode is "thin" (default) or "traditional"; Control adds
	// transitive control dependences to the traditional slice.
	Mode    string `json:"mode,omitempty"`
	Control bool   `json:"control,omitempty"`
	// NoObjSens disables object-sensitive container handling.
	NoObjSens bool `json:"no_obj_sens,omitempty"`
	// TimeoutMS is the client's analysis deadline, clamped to the
	// server's MaxTimeout; 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Checks selects checkers for /check ("all" when empty).
	Checks string `json:"checks,omitempty"`
}

// Response is the typed wire result every endpoint returns: Status is
// "ok", "partial" (a truncated-but-sound result), or "error", and
// error responses always carry a Kind from the closed set below plus
// the phase that failed when one did.
type Response struct {
	Status string `json:"status"`
	// Kind classifies errors: bad_request, program_error, deadline,
	// canceled, exhausted, internal, saturated, breaker_open,
	// draining.
	Kind         string `json:"kind,omitempty"`
	Error        string `json:"error,omitempty"`
	Phase        string `json:"phase,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// Truncated marks partial results (budget exhaustion mid-slice or
	// a degraded pointer analysis).
	Truncated bool          `json:"truncated,omitempty"`
	Slices    []SliceResult `json:"slices,omitempty"`
	// Findings is present (possibly empty) on every successful /check
	// response — "no findings" must be distinguishable from "no data".
	Findings []Finding `json:"findings"`
}

// SliceResult is one seed's slice.
type SliceResult struct {
	Seed       string   `json:"seed"`
	Statements int      `json:"statements"`
	Lines      []string `json:"lines"`
	Truncated  bool     `json:"truncated,omitempty"`
}

// Finding is one checker finding.
type Finding struct {
	Checker string `json:"checker"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Message string `json:"message"`
}

// Stats is the /statsz payload. Disk is nil (absent from the JSON)
// when the server runs without a persistent cache.
type Stats struct {
	Store session.StoreStats `json:"store"`
	// Phases counts pipeline-phase builds (parse, check, lower,
	// points-to, SDG, CHA, mod-ref, dataflow, ...) aggregated over
	// every session served from the store — cache hits don't count.
	Phases   session.Stats    `json:"phases"`
	Disk     *diskstore.Stats `json:"disk,omitempty"`
	Breaker  BreakerStats     `json:"breaker"`
	Running  int              `json:"running"`
	Queued   int              `json:"queued"`
	Requests RequestStats     `json:"requests"`
	Draining bool             `json:"draining"`
}

// BreakerStats summarizes circuit-breaker state: how many programs
// carry state at all, and the per-state breakdown (closed + open +
// half_open = tracked_programs). OpenCircuits keeps its original
// meaning — circuits not yet settled back to closed — so it equals
// open + half_open.
type BreakerStats struct {
	TrackedPrograms int `json:"tracked_programs"`
	OpenCircuits    int `json:"open_circuits"`
	Closed          int `json:"closed"`
	Open            int `json:"open"`
	HalfOpen        int `json:"half_open"`
}

// RequestStats counts finished requests by outcome.
type RequestStats struct {
	Total        int64 `json:"total"`
	OK           int64 `json:"ok"`
	Partial      int64 `json:"partial"`
	BadRequest   int64 `json:"bad_request"`
	ProgramError int64 `json:"program_error"`
	Saturated    int64 `json:"saturated"`
	BreakerOpen  int64 `json:"breaker_open"`
	Deadline     int64 `json:"deadline"`
	Exhausted    int64 `json:"exhausted"`
	Internal     int64 `json:"internal"`
	Draining     int64 `json:"draining"`
}

type metrics struct {
	total, ok, partial, badRequest, programError, saturated,
	breakerOpen, deadline, exhausted, internal, draining atomic.Int64
}

func (m *metrics) snapshot() RequestStats {
	return RequestStats{
		Total: m.total.Load(), OK: m.ok.Load(), Partial: m.partial.Load(),
		BadRequest: m.badRequest.Load(), ProgramError: m.programError.Load(),
		Saturated: m.saturated.Load(), BreakerOpen: m.breakerOpen.Load(),
		Deadline: m.deadline.Load(), Exhausted: m.exhausted.Load(),
		Internal: m.internal.Load(), Draining: m.draining.Load(),
	}
}

// Server is the hardened slicing service. Create with New; serve its
// Handler, or Run it with graceful drain.
type Server struct {
	cfg      Config
	store    *session.Store
	disk     *diskstore.Cache
	breaker  *breaker
	admit    *admission
	mux      *http.ServeMux
	draining atomic.Bool
	metrics  metrics
}

// New builds a Server, filling config defaults. It fails only when a
// configured CacheDir cannot be opened — a server without a persistent
// cache never errors.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	var disk *diskstore.Cache
	if cfg.CacheDir != "" {
		var err error
		disk, err = diskstore.Open(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("opening cache dir %s: %w", cfg.CacheDir, err)
		}
	}
	s := &Server{
		cfg:  cfg,
		disk: disk,
		store: session.NewBoundedStore(session.StoreLimits{
			MaxEntries: max(cfg.StoreEntries, 0),
			MaxCost:    max(cfg.StoreBytes, 0),
		}),
		breaker: newBreaker(breakerConfig{
			failures: cfg.BreakerFailures,
			base:     cfg.BreakerBackoff,
			max:      cfg.BreakerMaxBackoff,
		}),
		admit: newAdmission(cfg.Workers, cfg.QueueDepth, cfg.QueueWait),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/slice", s.analysisHandler(runSlice))
	s.mux.HandleFunc("/batch", s.analysisHandler(runBatch))
	s.mux.HandleFunc("/check", s.analysisHandler(runCheck))
	s.mux.HandleFunc("/watch", s.watchHandler)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// startDrain flips the server into draining mode: analysis and watch
// endpoints answer 503 draining, /readyz fails. Run calls it on
// context cancellation.
func (s *Server) startDrain() { s.draining.Store(true) }

// Stats snapshots the server's observable state.
func (s *Server) Stats() Stats {
	closed, open, halfOpen := s.breaker.stateCounts()
	running, queued := s.admit.load()
	st := Stats{
		Store:  s.store.Stats(),
		Phases: s.store.PhaseStats(),
		Breaker: BreakerStats{
			TrackedPrograms: closed + open + halfOpen,
			OpenCircuits:    open + halfOpen,
			Closed:          closed,
			Open:            open,
			HalfOpen:        halfOpen,
		},
		Running:  running,
		Queued:   queued,
		Requests: s.metrics.snapshot(),
		Draining: s.draining.Load(),
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Disk = &ds
	}
	return st
}

// Run serves ln until ctx is cancelled, then drains gracefully: new
// requests get 503 draining, in-flight requests finish (bounded by
// drainTimeout), and only then does Run return.
func (s *Server) Run(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		s.startDrain()
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := hs.Shutdown(sctx)
		<-serveErr // always http.ErrServerClosed after Shutdown
		return err
	}
}

// runFunc executes one admitted, breaker-approved request.
type runFunc func(sess *session.Session, req *Request) (*Response, error)

// analysisHandler wraps run with the hardening shell: drain check,
// body bounds, admission, deadline propagation, breaker, and a panic
// boundary. Every path writes a typed JSON Response.
func (s *Server) analysisHandler(run runFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.write(w, http.StatusServiceUnavailable, &Response{
				Status: "error", Kind: "draining", Error: "server is draining",
				RetryAfterMS: 1000,
			})
			return
		}
		if r.Method != http.MethodPost {
			s.write(w, http.StatusMethodNotAllowed, &Response{
				Status: "error", Kind: "bad_request", Error: "POST required",
			})
			return
		}
		req, errResp := s.decode(w, r)
		if errResp != nil {
			s.write(w, http.StatusBadRequest, errResp)
			return
		}

		// Deadline propagation: client timeout (clamped) or server
		// default → request context → budget → every analysis phase.
		timeout := s.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
			if timeout > s.cfg.MaxTimeout {
				timeout = s.cfg.MaxTimeout
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		release, err := s.admit.acquire(ctx)
		if err != nil {
			var sat errSaturated
			if errors.As(err, &sat) {
				s.write(w, http.StatusTooManyRequests, &Response{
					Status: "error", Kind: "saturated",
					Error:        "worker pool and queue are full",
					RetryAfterMS: retryAfterMS(sat.retryAfter),
				})
				return
			}
			// The request's own deadline or connection died while
			// queued.
			s.write(w, http.StatusGatewayTimeout, &Response{
				Status: "error", Kind: "deadline",
				Error: "request expired while queued",
			})
			return
		}
		defer release()

		bud := s.newBudget(ctx)
		sess := s.openSession(req, bud)
		key := sess.SourceKey()

		dec := s.breaker.admit(key)
		if !dec.allow {
			resp := &Response{
				Status: "error", Kind: "breaker_open",
				Error:        fmt.Sprintf("circuit open for this program after repeated failures (last: %s: %s)", dec.lastKind, dec.lastErr),
				RetryAfterMS: retryAfterMS(dec.retryAfter),
			}
			s.write(w, http.StatusServiceUnavailable, resp)
			return
		}

		resp, err := runGuarded(run, sess, req)
		if err != nil {
			resp, code := errorResponse(err)
			if breakerCounts(err) {
				s.breaker.failure(key, resp.Kind, resp.Error)
			} else if dec.probe {
				s.breaker.abort(key)
			}
			s.write(w, code, resp)
			return
		}
		s.breaker.success(key)
		s.write(w, http.StatusOK, resp)
	}
}

// runGuarded is the outermost panic boundary: even a panic outside the
// session's per-phase boundary (slicing, encoding preparation) becomes
// a typed internal error.
func runGuarded(run runFunc, sess *session.Session, req *Request) (resp *Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &budget.ErrInternal{Phase: "serve", Value: r, Stack: debug.Stack()}
		}
	}()
	return run(sess, req)
}

// decode parses and validates the request body. A non-nil *Response is
// the bad-request answer.
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (*Request, *Response) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &Response{Status: "error", Kind: "bad_request", Error: "malformed request body: " + err.Error()}
	}
	if len(req.Sources) == 0 {
		return nil, &Response{Status: "error", Kind: "bad_request", Error: "sources is required"}
	}
	switch req.Mode {
	case "", "thin", "traditional":
	default:
		return nil, &Response{Status: "error", Kind: "bad_request", Error: fmt.Sprintf("unknown mode %q", req.Mode)}
	}
	return &req, nil
}

func (s *Server) newBudget(ctx context.Context) *budget.Budget {
	var opts []budget.Option
	if s.cfg.MaxSteps > 0 {
		opts = append(opts, budget.WithSteps(s.cfg.MaxSteps))
	}
	return budget.New(ctx, opts...)
}

func (s *Server) openSession(req *Request, bud *budget.Budget) *session.Session {
	opts := []session.Option{
		session.InStore(s.store),
		session.WithBudget(bud),
		session.WithObjSens(!req.NoObjSens),
	}
	if s.disk != nil {
		opts = append(opts, session.WithDiskCache(s.disk))
	}
	return session.Open(req.Sources, opts...)
}

// sliceOptions maps the request's mode to slicer options.
func sliceOptions(req *Request) core.Options {
	if req.Mode == "traditional" {
		return core.Options{Mode: core.Traditional, FollowControl: req.Control}
	}
	return core.Options{Mode: core.Thin}
}

// runSlice answers POST /slice: one seed, one slice.
func runSlice(sess *session.Session, req *Request) (*Response, error) {
	if req.Seed == "" {
		return nil, badRequestError{"seed is required"}
	}
	seed, err := parseSeed(req.Seed)
	if err != nil {
		return nil, badRequestError{err.Error()}
	}
	results, err := sess.SliceAll(sliceOptions(req), []session.Seed{seed})
	if err != nil {
		return nil, err
	}
	if len(results[0].Instrs) == 0 {
		return nil, programError{fmt.Sprintf("no reachable statements at %s", seed)}
	}
	return buildSliceResponse(sess, results)
}

// runBatch answers POST /batch: many seeds over one shared build. A
// seed matching nothing yields an empty per-seed result, not an error.
func runBatch(sess *session.Session, req *Request) (*Response, error) {
	if len(req.Seeds) == 0 {
		return nil, badRequestError{"seeds is required"}
	}
	seeds := make([]session.Seed, 0, len(req.Seeds))
	for _, raw := range req.Seeds {
		seed, err := parseSeed(raw)
		if err != nil {
			return nil, badRequestError{err.Error()}
		}
		seeds = append(seeds, seed)
	}
	results, err := sess.SliceAll(sliceOptions(req), seeds)
	if err != nil {
		return nil, err
	}
	return buildSliceResponse(sess, results)
}

func buildSliceResponse(sess *session.Session, results []session.SeedResult) (*Response, error) {
	resp := &Response{Status: "ok"}
	for _, r := range results {
		sr := SliceResult{Seed: r.Seed.String(), Lines: []string{}}
		if r.Slice != nil {
			sr.Statements = r.Slice.Size()
			sr.Truncated = r.Slice.Truncated
			lines := r.Slice.Lines()
			for _, p := range lines {
				sr.Lines = append(sr.Lines, fmt.Sprintf("%s:%d", p.File, p.Line))
			}
			if r.Slice.Truncated {
				resp.Truncated = true
			}
		}
		resp.Slices = append(resp.Slices, sr)
	}
	if partial, err := analysisPartial(sess); err == nil && partial {
		resp.Truncated = true
	}
	if resp.Truncated {
		resp.Status = "partial"
	}
	return resp, nil
}

// analysisPartial reports whether the (already built, hence cached)
// pipeline artifacts are budget-degraded.
func analysisPartial(sess *session.Session) (bool, error) {
	pts, err := sess.PointsTo()
	if err != nil {
		return false, err
	}
	g, err := sess.Graph()
	if err != nil {
		return false, err
	}
	return pts.Truncated || pts.Downgraded || g.Truncated, nil
}

// runCheck answers POST /check with the checker suite's findings.
func runCheck(sess *session.Session, req *Request) (*Response, error) {
	sel := req.Checks
	if sel == "" {
		sel = "all"
	}
	checks, err := checkers.Select(sel)
	if err != nil {
		return nil, badRequestError{err.Error()}
	}
	a, err := analyzer.FromSession(sess)
	if err != nil {
		return nil, err
	}
	rep := checkers.Run(a, checks, checkers.Config{})
	resp := &Response{Status: "ok", Findings: []Finding{}}
	for _, f := range rep.Findings {
		resp.Findings = append(resp.Findings, Finding{
			Checker: f.Checker, File: f.Pos.File, Line: f.Pos.Line, Message: f.Message,
		})
	}
	if rep.Truncated {
		resp.Truncated = true
		resp.Status = "partial"
	}
	return resp, nil
}

// badRequestError and programError type the two client-fault error
// classes run funcs can produce.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

type programError struct{ msg string }

func (e programError) Error() string { return e.msg }

// errorResponse maps a pipeline error to its typed response and HTTP
// status. The mapping is total: anything not recognized as a budget
// error or a request fault is a deterministic program error
// (parse/type failures, bad entries).
func errorResponse(err error) (*Response, int) {
	resp := &Response{Status: "error", Error: err.Error()}
	if phase, ok := budget.PhaseOf(err); ok {
		resp.Phase = string(phase)
	}
	var bad badRequestError
	var prog programError
	var internal *budget.ErrInternal
	switch {
	case errors.As(err, &bad):
		resp.Kind = "bad_request"
		return resp, http.StatusBadRequest
	case errors.As(err, &prog):
		resp.Kind = "program_error"
		return resp, http.StatusUnprocessableEntity
	case budget.IsCanceled(err):
		if errors.Is(err, context.DeadlineExceeded) {
			resp.Kind = "deadline"
		} else {
			resp.Kind = "canceled"
		}
		return resp, http.StatusGatewayTimeout
	case budget.IsExhausted(err):
		resp.Kind = "exhausted"
		resp.RetryAfterMS = 1000
		return resp, http.StatusServiceUnavailable
	case errors.As(err, &internal):
		resp.Kind = "internal"
		// The panic value is already in Error; drop the stack from
		// the wire (it is in the server's hands via the error).
		resp.Error = fmt.Sprintf("internal error in %s", internal.Phase)
		return resp, http.StatusInternalServerError
	default:
		resp.Kind = "program_error"
		return resp, http.StatusUnprocessableEntity
	}
}

// breakerCounts reports whether err should trip the program's circuit:
// internal faults, budget exhaustion, and deadline expiry do; a client
// disconnect (context.Canceled) and deterministic program errors do
// not.
func breakerCounts(err error) bool {
	var internal *budget.ErrInternal
	if errors.As(err, &internal) {
		return true
	}
	if budget.IsExhausted(err) {
		return true
	}
	return budget.IsCanceled(err) && errors.Is(err, context.DeadlineExceeded)
}

// write emits the response with its Retry-After header and bumps the
// retryAfterMS converts a backoff duration to the wire's millisecond
// hint, rounding up and clamping to at least 1ms. Plain
// Milliseconds() truncates: a sub-millisecond backoff (an early
// breaker re-open, a tiny configured base) became 0, which suppressed
// both the JSON hint and the Retry-After header entirely — the client
// was told nothing instead of "soon". With the floor, write() below
// then emits Retry-After ≥ 1 second (its own ceiling division can
// never round a positive hint down to 0).
func retryAfterMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	ms := int64((d + time.Millisecond - 1) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	return ms
}

// outcome counters.
func (s *Server) write(w http.ResponseWriter, code int, resp *Response) {
	s.count(resp)
	if resp.RetryAfterMS > 0 {
		// Ceiling division: any positive hint yields Retry-After ≥ 1s,
		// never a truncated-to-0 header.
		secs := (resp.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) count(resp *Response) {
	s.metrics.total.Add(1)
	switch {
	case resp.Status == "ok":
		s.metrics.ok.Add(1)
	case resp.Status == "partial":
		s.metrics.partial.Add(1)
	default:
		switch resp.Kind {
		case "bad_request":
			s.metrics.badRequest.Add(1)
		case "program_error":
			s.metrics.programError.Add(1)
		case "saturated":
			s.metrics.saturated.Add(1)
		case "breaker_open":
			s.metrics.breakerOpen.Add(1)
		case "deadline", "canceled":
			s.metrics.deadline.Add(1)
		case "exhausted":
			s.metrics.exhausted.Add(1)
		case "internal":
			s.metrics.internal.Add(1)
		case "draining":
			s.metrics.draining.Add(1)
		}
	}
}

// parseSeed parses "file.mj:line".
func parseSeed(raw string) (session.Seed, error) {
	i := strings.LastIndex(raw, ":")
	if i < 0 {
		return session.Seed{}, fmt.Errorf("seed %q is not of the form file:line", raw)
	}
	line, err := strconv.Atoi(raw[i+1:])
	if err != nil || line <= 0 {
		return session.Seed{}, fmt.Errorf("seed %q has an invalid line number", raw)
	}
	return session.Seed{File: raw[:i], Line: line}, nil
}

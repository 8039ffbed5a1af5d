package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/checkers"
	"thinslice/internal/session"
)

// POST /watch is the long-lived edit-stream endpoint: the client opens
// one full-duplex connection, sends an initial Request-shaped object,
// and then streams edit objects (newline-delimited JSON) as files
// change. The server keeps one session alive for the connection and
// answers every revision — the initial one and each edit — with one
// WatchEvent line carrying the updated slices, checker findings, and
// the counters showing what the revision rebuilt. Program errors in an
// intermediate revision (a half-typed edit that no longer parses) are
// reported as revision-scoped error events and the stream continues;
// only a malformed stream, a drained server, or a closed connection
// ends it.
//
// Watch sessions run unbudgeted: a session's budget is fixed when it
// opens, and one watch session answers every revision of a stream that
// may stay open for hours, so no single deadline fits it. The
// per-revision work is still admitted through the worker pool, so a
// watch stream cannot starve request traffic between edits.

// WatchEdit is one edit message on a /watch stream. Any combination of
// fields may be set; an empty edit just re-queries the current
// revision.
type WatchEdit struct {
	// Update maps file name to new content (added or replaced).
	Update map[string]string `json:"update,omitempty"`
	// Remove lists file names to drop from the source set.
	Remove []string `json:"remove,omitempty"`
	// Seeds, when non-empty, replaces the watched seed list.
	Seeds []string `json:"seeds,omitempty"`
}

// WatchIncremental reports what one revision rebuilt: one points-to
// solve and one SDG build for a revision the store has not seen, none
// for one it has. The other four fields are inert, always 0 and so
// never on the wire: there is no unit tier, delta solver or delta SDG.
type WatchIncremental struct {
	UnitLowers  int `json:"unit_lowers,omitempty"`  // always 0
	UnitReuses  int `json:"unit_reuses,omitempty"`  // always 0
	DeltaSolves int `json:"delta_solves,omitempty"` // always 0
	FullSolves  int `json:"full_solves"`            // pointer analyses
	DeltaSDGs   int `json:"delta_sdgs,omitempty"`   // always 0
	FullSDGs    int `json:"full_sdgs"`              // dependence graph builds
}

// WatchEvent is one revision's answer on a /watch stream. Between
// revisions the server also emits events with Status "heartbeat" at
// the configured WatchHeartbeat interval — they carry the current Rev
// and no other payload, and double as liveness probes: a heartbeat
// that fails to write tears the stream down and frees its slot.
type WatchEvent struct {
	Rev       int           `json:"rev"`
	Status    string        `json:"status"` // ok, partial, error, or heartbeat
	Kind      string        `json:"kind,omitempty"`
	Error     string        `json:"error,omitempty"`
	Phase     string        `json:"phase,omitempty"`
	ElapsedMS int64         `json:"elapsed_ms"`
	Slices    []SliceResult `json:"slices,omitempty"`
	// Findings is present (possibly empty) whenever the stream was
	// opened with checks enabled and the revision analyzed cleanly.
	Findings    []Finding         `json:"findings,omitempty"`
	Incremental *WatchIncremental `json:"incremental,omitempty"`
}

// watchStreams caps concurrent /watch connections independently of the
// worker pool (a stream holds no worker while idle).
const maxWatchStreams = 32

var watchStreams atomic.Int64

// watchHandler serves POST /watch.
func (s *Server) watchHandler(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.write(w, http.StatusServiceUnavailable, &Response{
			Status: "error", Kind: "draining", Error: "server is draining", RetryAfterMS: 1000,
		})
		return
	}
	if r.Method != http.MethodPost {
		s.write(w, http.StatusMethodNotAllowed, &Response{
			Status: "error", Kind: "bad_request", Error: "POST required",
		})
		return
	}
	if n := watchStreams.Add(1); n > maxWatchStreams {
		watchStreams.Add(-1)
		s.write(w, http.StatusTooManyRequests, &Response{
			Status: "error", Kind: "saturated",
			Error:        "too many watch streams",
			RetryAfterMS: 1000,
		})
		return
	}
	defer watchStreams.Add(-1)

	// The stream is read incrementally for the connection's lifetime, so
	// the request-wide byte bound does not apply; each message is bounded
	// by the decoder's own buffer growth on one JSON value.
	dec := json.NewDecoder(r.Body)
	var init Request
	if err := dec.Decode(&init); err != nil {
		s.write(w, http.StatusBadRequest, &Response{
			Status: "error", Kind: "bad_request", Error: "malformed init message: " + err.Error(),
		})
		return
	}
	if len(init.Sources) == 0 {
		s.write(w, http.StatusBadRequest, &Response{
			Status: "error", Kind: "bad_request", Error: "sources is required",
		})
		return
	}
	seeds, err := parseWatchSeeds(&init)
	if err != nil {
		s.write(w, http.StatusBadRequest, &Response{
			Status: "error", Kind: "bad_request", Error: err.Error(),
		})
		return
	}

	opts := []session.Option{
		session.InStore(s.store),
		session.WithObjSens(!init.NoObjSens),
	}
	if s.disk != nil {
		opts = append(opts, session.WithDiskCache(s.disk))
	}
	sess := session.Open(init.Sources, opts...)

	// The stream reads edits and writes events concurrently for the
	// connection's lifetime; without full duplex the server would try to
	// drain the (endless) request body before releasing the response
	// headers and deadlock against a client waiting for revision 0.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		s.write(w, http.StatusInternalServerError, &Response{
			Status: "error", Kind: "internal", Error: "connection does not support full-duplex streaming",
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev *WatchEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	rev := 0
	if !emit(s.watchRevision(r, sess, &init, seeds, rev)) {
		return
	}

	// Edits are decoded on their own goroutine so the main loop can
	// multiplex them with the heartbeat ticker and the idle timer. The
	// reader owns the channel; done unblocks its send when the handler
	// returns first (the deferred close happens-before the connection
	// close that would eventually error the blocked Decode).
	type editMsg struct {
		edit WatchEdit
		err  error
	}
	edits := make(chan editMsg)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			var m editMsg
			m.err = dec.Decode(&m.edit)
			select {
			case edits <- m:
			case <-done:
				return
			}
			if m.err != nil {
				return
			}
		}
	}()

	heartbeat := time.NewTicker(s.cfg.WatchHeartbeat)
	defer heartbeat.Stop()
	idle := time.NewTimer(s.cfg.WatchIdleTimeout)
	defer idle.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			// Doubles as a liveness probe: writing to a closed
			// connection fails and frees the stream slot without
			// waiting out the idle timer.
			if !emit(&WatchEvent{Rev: rev, Status: "heartbeat"}) {
				return
			}
		case <-idle.C:
			emit(&WatchEvent{
				Rev: rev, Status: "error", Kind: "deadline",
				Error: fmt.Sprintf("watch stream idle: no edits within %s", s.cfg.WatchIdleTimeout),
			})
			return
		case m := <-edits:
			if m.err != nil {
				if !errors.Is(m.err, io.EOF) && r.Context().Err() == nil {
					emit(&WatchEvent{
						Rev: rev + 1, Status: "error", Kind: "bad_request",
						Error: "malformed edit message: " + m.err.Error(),
					})
				}
				return
			}
			idle.Reset(s.cfg.WatchIdleTimeout)
			edit := m.edit
			for name, content := range edit.Update {
				sess.Update(name, content)
			}
			for _, name := range edit.Remove {
				sess.Remove(name)
			}
			if len(edit.Seeds) > 0 {
				// Commit the new list only once it parses: a refused
				// list leaves the stream on the seeds it had.
				next := init
				next.Seeds, next.Seed = edit.Seeds, ""
				parsed, err := parseWatchSeeds(&next)
				if err != nil {
					rev++
					if !emit(&WatchEvent{Rev: rev, Status: "error", Kind: "bad_request", Error: err.Error()}) {
						return
					}
					continue
				}
				init, seeds = next, parsed
			}
			rev++
			if !emit(s.watchRevision(r, sess, &init, seeds, rev)) {
				return
			}
			if s.draining.Load() {
				return
			}
		}
	}
}

// watchRevision computes one revision's event: admission, the guarded
// slice/check run, and the build counters around it.
func (s *Server) watchRevision(r *http.Request, sess *session.Session, init *Request, seeds []session.Seed, rev int) *WatchEvent {
	start := time.Now()
	release, err := s.admit.acquire(r.Context())
	if err != nil {
		ev := &WatchEvent{Rev: rev, Status: "error", ElapsedMS: time.Since(start).Milliseconds()}
		var sat errSaturated
		if errors.As(err, &sat) {
			ev.Kind, ev.Error = "saturated", "worker pool and queue are full"
		} else {
			ev.Kind, ev.Error = "canceled", "watch connection closed while queued"
		}
		return ev
	}
	defer release()

	before := sess.Stats()
	resp, err := runGuarded(func(sess *session.Session, req *Request) (*Response, error) {
		return runWatchQuery(sess, req, seeds)
	}, sess, init)
	after := sess.Stats()
	ev := &WatchEvent{Rev: rev}
	if err != nil {
		errResp, _ := errorResponse(err)
		ev.Status, ev.Kind, ev.Error, ev.Phase = "error", errResp.Kind, errResp.Error, errResp.Phase
	} else {
		ev.Status = resp.Status
		ev.Slices = resp.Slices
		ev.Findings = resp.Findings
	}
	ev.Incremental = &WatchIncremental{
		FullSolves: after.PointsTos - before.PointsTos,
		FullSDGs:   after.SDGs - before.SDGs,
	}
	ev.ElapsedMS = time.Since(start).Milliseconds()
	return ev
}

// runWatchQuery answers one revision: slices for every watched seed
// (seeds that match nothing yield empty results, as in /batch — a line
// can temporarily hold no statement mid-edit), plus checker findings
// when the stream was opened with checks.
func runWatchQuery(sess *session.Session, init *Request, seeds []session.Seed) (*Response, error) {
	resp := &Response{Status: "ok"}
	if len(seeds) > 0 {
		results, err := sess.SliceAll(sliceOptions(init), seeds)
		if err != nil {
			return nil, err
		}
		sliced, err := buildSliceResponse(sess, results)
		if err != nil {
			return nil, err
		}
		resp = sliced
	}
	if init.Checks != "" {
		checks, err := checkers.Select(init.Checks)
		if err != nil {
			return nil, badRequestError{err.Error()}
		}
		a, err := analyzer.FromSession(sess)
		if err != nil {
			return nil, err
		}
		rep := checkers.Run(a, checks, checkers.Config{})
		resp.Findings = []Finding{}
		for _, f := range rep.Findings {
			resp.Findings = append(resp.Findings, Finding{
				Checker: f.Checker, File: f.Pos.File, Line: f.Pos.Line, Message: f.Message,
			})
		}
		if rep.Truncated {
			resp.Truncated = true
			resp.Status = "partial"
		}
	}
	return resp, nil
}

// parseWatchSeeds resolves the stream's seed list from Seed/Seeds.
func parseWatchSeeds(req *Request) ([]session.Seed, error) {
	raw := req.Seeds
	if req.Seed != "" {
		raw = append([]string{req.Seed}, raw...)
	}
	seeds := make([]session.Seed, 0, len(raw))
	for _, one := range raw {
		seed, err := parseSeed(one)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, seed)
	}
	if len(seeds) == 0 && req.Checks == "" {
		return nil, fmt.Errorf("watch needs at least one seed or a checks selection")
	}
	return seeds, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"thinslice/internal/server"
)

// Warm-up lengths, in ops. They are fixed counts, not times, and bring
// each workload to steady state before the window opens: for cold, edit
// and check the store has reached its cost cap and evicts on every op
// (cold adds about 21 MB of estimated cost per op, an edit revision
// about 20 MB, a check about 6.5 MB). Each is a whole number of cycles.
const (
	coldWarmup    = 9
	editWarmup    = editSites
	checkWarmup   = 18
	restartWarmup = 3
)

// minWindowOps is the fewest ops p90_ms is reported from: a window that
// ends with fewer runs on until it has them.
const minWindowOps = 100

// load is one workload's end-to-end side: the client that drives the server.
type load interface {
	// setUp starts a fresh server (the first thing it does is call
	// server.New) and warms it up; it is timed as setup_s.
	setUp() error
	// op runs one measured op and returns its latency; a non-nil error is
	// a failed op (non-200, partial or a wrong answer).
	op() (time.Duration, error)
	// harness is the connection /statsz is read over.
	harness() *harness
	// validity reports what the window exercised, from /statsz deltas and
	// the load's own counters.
	validity(before, after server.Stats, ops int) map[string]float64
	tearDown()
}

// runMeasured is the end-to-end run: set-up repeated setups times, then
// one window of closed-loop ops with tracing off.
func runMeasured(e *env, w workload) (*result, error) {
	d := w.e2e(e)
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			d.tearDown()
		}
		// Every set-up starts from a collected heap whose free pages
		// have been handed back to the OS.
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := d.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer d.tearDown()

	before, err := d.harness().stats()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	res := &result{}
	var lats []float64
	heap := &heapPeak{}
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(e.cfg.seconds) * time.Second)
	for {
		if e.cfg.maxOps > 0 && res.attempted >= e.cfg.maxOps ||
			e.cfg.maxOps == 0 && !time.Now().Before(deadline) && res.attempted >= minWindowOps {
			break
		}
		lat, err := d.op()
		res.attempted++
		lats = append(lats, float64(lat)/float64(time.Millisecond))
		if err != nil {
			res.failed++
			if res.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", e.cfg.workload, res.attempted, err)
			}
		}
		heap.sample()
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	after, err := d.harness().stats()
	if err != nil {
		return nil, err
	}

	ops := float64(res.attempted)
	res.set("setup_s", median(setupTimes), "s")
	res.set("ops_per_s", ops/wall.Seconds(), "1/s")
	res.set("p50_ms", quantile(lats, 0.50), "ms")
	res.set("p90_ms", quantile(lats, 0.90), "ms")
	res.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/ops, "ms")
	res.set("heap_peak_mb", heap.peak()/1e6, "MB")
	res.validity = d.validity(before, after, res.attempted)
	return res, nil
}

// marshal encodes a request body.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and slices always encode
	}
	return b
}

// serving is what every load holds: its current server's harness.
type serving struct{ h *harness }

// start builds a server with the benchmark's configuration and serves it.
func (s *serving) start(cacheDir string) error {
	srv, err := server.New(serverConfig(cacheDir))
	if err != nil {
		return err
	}
	s.h, err = startHarness(srv)
	return err
}

func (s *serving) harness() *harness { return s.h }

func (s *serving) tearDown() {
	if s.h != nil {
		s.h.close()
		s.h = nil
	}
}

// batch posts a /batch with every seed of p and checks the answer.
func (s *serving) batch(e *env, p *program, body []byte) error {
	status, data, err := s.h.post("/batch", body)
	if err != nil {
		return err
	}
	resp, err := decodeResponse(status, data)
	if err != nil {
		return err
	}
	return e.exp.program(p.name).checkSlices(resp.Slices, allSeeds(len(p.seeds)))
}

func batchBody(p *program, src string) []byte {
	return marshal(server.Request{Sources: map[string]string{p.file: src}, Seeds: p.seeds})
}

// --- cold and check: every op a program the server has never seen ---

// freshLoad posts to path, cycling over progs with a new nonce per
// op: cold's /batch with every seed, check's /check with every checker.
type freshLoad struct {
	serving
	e      *env
	name   string
	path   string
	progs  []*program
	warmup int
	nonce  uint64
	n      int
}

func newCold(e *env) load {
	return &freshLoad{e: e, name: "cold", path: "/batch", progs: e.programs(p3), warmup: coldWarmup,
		nonce: e.rng.next(), n: e.rng.intn(len(p3))}
}

func newCheck(e *env) load {
	return &freshLoad{e: e, name: "check", path: "/check", progs: e.programs(checkMix), warmup: checkWarmup,
		nonce: e.rng.next(), n: e.rng.intn(len(checkMix))}
}

func (d *freshLoad) setUp() error {
	if err := d.start(""); err != nil {
		return err
	}
	for i := 0; i < d.warmup; i++ {
		if _, err := d.op(); err != nil {
			return err
		}
	}
	return nil
}

func (d *freshLoad) op() (time.Duration, error) {
	p := d.progs[d.n%len(d.progs)]
	d.n++
	d.nonce++
	req := server.Request{Sources: map[string]string{p.file: p.variant(d.nonce)}}
	if d.path == "/batch" {
		req.Seeds = p.seeds
	}
	body := marshal(req)
	t0 := time.Now()
	status, data, err := d.h.post(d.path, body)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	resp, err := decodeResponse(status, data)
	if err != nil {
		return lat, err
	}
	want := d.e.exp.program(p.name)
	if d.path == "/batch" {
		return lat, want.checkSlices(resp.Slices, allSeeds(len(p.seeds)))
	}
	return lat, want.checkFindings(resp.Findings)
}

func (d *freshLoad) validity(before, after server.Stats, ops int) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		d.name + ".pointsto_builds_per_op": float64(after.Phases.PointsTos-before.Phases.PointsTos) / n,
		d.name + ".sdg_builds_per_op":      float64(after.Phases.SDGs-before.Phases.SDGs) / n,
		d.name + ".dataflow_solves_per_op": float64(after.Phases.Dataflows-before.Phases.Dataflows) / n,
		d.name + ".evictions_per_op":       float64(after.Store.Evictions-before.Store.Evictions) / n,
	}
}

// --- edit: one /watch stream, one literal edit per op ---

type editLoad struct {
	serving
	e      *env
	p      *program
	ed     *editor
	stream *watchStream
	rev    int
	inc    server.WatchIncremental
}

func newEdit(e *env) load {
	return &editLoad{e: e, p: e.program(editSpec)}
}

func (d *editLoad) setUp() error {
	if err := d.start(""); err != nil {
		return err
	}
	var err error
	if d.ed, err = newEditor(d.p, d.e.rng); err != nil {
		return err
	}
	if d.stream, err = dialWatch(d.h.ln.Addr().String(), server.Request{
		Sources: map[string]string{d.p.file: d.p.src}, Seeds: d.p.seeds,
	}); err != nil {
		return err
	}
	d.rev = 0
	if err := d.check(); err != nil {
		return err
	}
	for i := 0; i < editWarmup; i++ {
		if _, err := d.op(); err != nil {
			return err
		}
	}
	d.inc = server.WatchIncremental{}
	return nil
}

func (d *editLoad) op() (time.Duration, error) {
	src, err := d.ed.next()
	if err != nil {
		return 0, err
	}
	msg := marshal(server.WatchEdit{Update: map[string]string{d.p.file: src}})
	d.rev++
	t0 := time.Now()
	if err := d.stream.write(msg); err != nil {
		return time.Since(t0), err
	}
	err = d.check()
	return time.Since(t0), err
}

// check reads the next event and compares it with the answers.
func (d *editLoad) check() error {
	ev, err := d.stream.next()
	if err != nil {
		return err
	}
	if ev.Rev != d.rev || ev.Status != "ok" {
		return fmt.Errorf("revision %d: got rev %d status %s %s: %s", d.rev, ev.Rev, ev.Status, ev.Kind, ev.Error)
	}
	if inc := ev.Incremental; inc != nil {
		d.inc.UnitLowers += inc.UnitLowers
		d.inc.UnitReuses += inc.UnitReuses
		d.inc.DeltaSolves += inc.DeltaSolves
		d.inc.FullSolves += inc.FullSolves
		d.inc.DeltaSDGs += inc.DeltaSDGs
		d.inc.FullSDGs += inc.FullSDGs
	}
	return d.e.exp.program(d.p.name).checkSlices(ev.Slices, allSeeds(len(d.p.seeds)))
}

func (d *editLoad) validity(before, after server.Stats, ops int) map[string]float64 {
	return map[string]float64{
		"edit.pointsto.delta_share": ratio(d.inc.DeltaSolves, d.inc.DeltaSolves+d.inc.FullSolves),
		"edit.sdg.delta_share":      ratio(d.inc.DeltaSDGs, d.inc.DeltaSDGs+d.inc.FullSDGs),
		"edit.ir.unit_reuse_ratio":  ratio(d.inc.UnitReuses, d.inc.UnitReuses+d.inc.UnitLowers),
		"edit.evictions_per_op":     float64(after.Store.Evictions-before.Store.Evictions) / float64(ops),
	}
}

func (d *editLoad) tearDown() {
	if d.stream != nil {
		d.stream.close()
		d.stream = nil
	}
	d.serving.tearDown()
}

// --- restart: a fresh server over a populated cache directory per op ---

type restartLoad struct {
	serving
	e      *env
	progs  []*program
	bodies [][]byte
	n      int
	disk   struct{ hits, misses, quarantines int64 }
	builds int
}

func newRestart(e *env) load {
	d := &restartLoad{e: e, progs: e.programs(p3), n: e.rng.intn(len(p3))}
	for _, p := range d.progs {
		d.bodies = append(d.bodies, batchBody(p, p.src))
	}
	return d
}

func (d *restartLoad) setUp() error {
	if err := os.RemoveAll(d.e.cacheDir()); err != nil {
		return err
	}
	if err := d.start(d.e.cacheDir()); err != nil {
		return err
	}
	for i, p := range d.progs {
		if err := d.batch(d.e, p, d.bodies[i]); err != nil {
			return err
		}
	}
	for i := 0; i < restartWarmup; i++ {
		if _, err := d.op(); err != nil {
			return err
		}
	}
	d.disk.hits, d.disk.misses, d.disk.quarantines, d.builds = 0, 0, 0, 0
	return nil
}

func (d *restartLoad) op() (time.Duration, error) {
	k := d.n % len(d.progs)
	d.n++
	t0 := time.Now()
	srv, err := server.New(serverConfig(d.e.cacheDir()))
	if err != nil {
		return time.Since(t0), err
	}
	d.h.swap(srv)
	err = d.batch(d.e, d.progs[k], d.bodies[k])
	lat := time.Since(t0)
	st := srv.Stats()
	if st.Disk != nil {
		d.disk.hits += st.Disk.Hits
		d.disk.misses += st.Disk.Misses
		d.disk.quarantines += st.Disk.Quarantines
	}
	d.builds += st.Phases.Lowers + st.Phases.PointsTos + st.Phases.SDGs
	return lat, err
}

// validity reads each op's own server: every op starts a new one, so
// the harness's /statsz deltas would only see the last.
func (d *restartLoad) validity(_, _ server.Stats, ops int) map[string]float64 {
	return map[string]float64{
		"restart.diskstore.hit_ratio":   ratio(int(d.disk.hits), int(d.disk.hits+d.disk.misses)),
		"restart.diskstore.quarantines": float64(d.disk.quarantines),
		"restart.builds_per_op":         float64(d.builds) / float64(ops),
	}
}

// --- helpers ---

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

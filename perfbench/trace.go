package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one recorded interval of the traced replay. Spans of one op
// share Op; Parent is the ID of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// With on false it records nothing, which is how the replay measures
// its own overhead.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// selfTimes sums each span name's self time: its duration minus the part
// its children cover. Children run one after another on the replay's
// goroutine, so they never overlap.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer is one workload's traced side: it replays the workload's ops
// by calling each layer's public functions in dependency order.
type replayer interface {
	// setUp builds the state the workload's window starts from, with the
	// tracer off except where a layer's set-up cost is itself a metric.
	setUp(t *tracer) error
	// cycle is the number of ops after which the op mix repeats.
	cycle() int
	// op replays one op inside the tracer's current op span and returns
	// the program it ran on; an error is a failed op (a wrong answer).
	op(t *tracer) (string, error)
	// layerMetrics adds the counts and ratios the replay gathered over
	// the traced ops. It runs after the window's runtime readings, so
	// any comparison work it does is not charged to the ops.
	layerMetrics(res *result, self map[string]float64, traced int) error
}

// layerSpans are the span names reported as <name>_ms: each layer's mean
// self time per traced op (0 where the workload's ops never reach it).
var layerSpans = []string{
	"server.decode", "server.encode",
	"session.key", "session.lookup",
	"lang.parse", "lang.check",
	"depgraph.build",
	"ir.lower", "ir.assemble", "ir.decode",
	"pointsto.solve", "pointsto.delta", "pointsto.decode",
	"sdg.build", "sdg.delta", "sdg.decode",
	"core.slice",
	"cha.build", "modref.compute",
	"dataflow.taint", "dataflow.close", "dataflow.init",
	"checkers.run",
	"diskstore.open", "diskstore.get",
}

// runTraced is the per-layer run: the workload's ops replayed layer by
// layer for the window, whole op cycles alternating between spans on and
// spans off so trace.overhead_pct compares the same op mix.
func runTraced(e *env, w workload) (*result, error) {
	r := w.replay(e)
	t := &tracer{t0: time.Now(), on: true, op: -1}
	if err := r.setUp(t); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupSelf := selfTimes(t.spans)

	runtime.GC()
	const allocs, gcCPU, allCPU = "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"
	m0 := readMetrics(allocs, gcCPU, allCPU)
	res := &result{}
	var onMS, offMS []float64
	opProgram := make(map[int]string)
	deadline := time.Now().Add(time.Duration(e.cfg.seconds) * time.Second)
	for i := 0; ; i++ {
		if e.cfg.maxOps > 0 && i >= e.cfg.maxOps || e.cfg.maxOps == 0 && !time.Now().Before(deadline) {
			break
		}
		t.on = (i/r.cycle())%2 == 0
		t.op = i
		start := time.Now()
		root := t.begin("op")
		prog, err := r.op(t)
		t.end(root)
		d := float64(time.Since(start)) / float64(time.Millisecond)
		res.attempted++
		if err != nil {
			res.failed++
			if res.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s replay op %d failed: %v\n", e.cfg.workload, i, err)
			}
		}
		if t.on {
			onMS = append(onMS, d)
			opProgram[i] = prog
		} else {
			offMS = append(offMS, d)
		}
	}
	m1 := readMetrics(allocs, gcCPU, allCPU)

	traced := len(onMS)
	var opSpans []span
	for _, s := range t.spans {
		if s.Op >= 0 {
			opSpans = append(opSpans, s)
		}
	}
	self := make(map[string]float64)
	for name, d := range selfTimes(reindex(opSpans)) {
		self[name] = float64(d) / float64(time.Millisecond) / float64(max(traced, 1))
	}
	for _, name := range layerSpans {
		res.set(name+"_ms", self[name], "ms")
	}
	res.set("diskstore.put_ms", float64(setupSelf["diskstore.put"])/float64(time.Millisecond), "ms")
	if err := r.layerMetrics(res, self, traced); err != nil {
		return nil, err
	}

	ops := float64(res.attempted)
	res.set("runtime.alloc_mb_per_op", (m1[allocs]-m0[allocs])/1e6/ops, "MB")
	res.set("runtime.gc_cpu_frac", safeDiv(m1[gcCPU]-m0[gcCPU], m1[allCPU]-m0[allCPU]), "ratio")
	overhead := 0.0
	if len(onMS) > 0 && len(offMS) > 0 {
		overhead = (median(onMS)/median(offMS) - 1) * 100
	}
	res.set("trace.overhead_pct", overhead, "%")

	res.byProgram = byProgram(opSpans, opProgram)
	res.spansFile = filepath.Join(e.cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", e.cfg.workload, e.cfg.seed))
	if err := writeSpans(res.spansFile, t.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// byProgram breaks each layer's mean self time per op down by program.
func byProgram(spans []span, opProgram map[int]string) map[string]map[string]float64 {
	perProg := make(map[string][]span)
	ops := make(map[string]int)
	for _, p := range opProgram {
		ops[p]++
	}
	for _, s := range spans {
		if p, ok := opProgram[s.Op]; ok {
			perProg[p] = append(perProg[p], s)
		}
	}
	progs := make([]string, 0, len(perProg))
	for p := range perProg {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	out := make(map[string]map[string]float64)
	for _, p := range progs {
		for name, d := range selfTimes(reindex(perProg[p])) {
			if name == "op" {
				continue
			}
			if out[name+"_ms"] == nil {
				out[name+"_ms"] = make(map[string]float64)
			}
			out[name+"_ms"][p] = float64(d) / float64(time.Millisecond) / float64(ops[p])
		}
	}
	return out
}

// reindex renumbers a subset of spans so parent links index into it.
func reindex(spans []span) []span {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID = i
		if p, ok := pos[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = -1
		}
		out[i] = s
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package sdg

// Construction. A dependence graph is three layers: a node scaffolding
// fixed by (program, points-to result), per-method structure that
// depends only on a method's body (intraprocedural def-use edges,
// control dependences, the positions of its heap accesses and call
// sites), and global structure derived from the points-to result (call
// linking, heap pairing, statics, array lengths). BuildDelta derives the
// middle layer as base-relative method templates keyed by qualified
// name, replays every context off its template, and computes the
// points-to-derived layer from the result. A later build reuses the
// templates of every method an edit left alone; a cold build is the same
// call with no templates to reuse.
//
// Every node's in-edge order is its emission order within a fixed phase
// sequence, and each in-edge category of a node has exactly one
// emitter: local/base edges come from the node's own instruction
// (template order = EachUse order), param/return edges arrive in
// (caller context, call instruction, canonical callee) order, heap
// edges in heap-index append order (context, instruction), and control
// edges from the node's own instruction's CDG rows. Contexts replay in
// canonical order, so a delta build, a cold build and every step-capped
// prefix of one agree node by node — and therefore in Fingerprint and
// in the codec payload.

import (
	"time"

	"thinslice/internal/analysis/cdg"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
)

// tmplEdge is one base-relative dependence: node (base + to) depends on
// (base + src).
type tmplEdge struct {
	to, src int32
	kind    EdgeKind
}

// methodTemplate is the context-independent derivation state of one
// method body. All offsets are relative to the method's first
// instruction ID, so a template survives the instruction renumbering
// that editing *other* files causes.
type methodTemplate struct {
	size  int        // instruction count (guards against stale reuse)
	uses  []tmplEdge // local/base def-use edges, in instruction order
	calls []int32    // offsets of call instructions
	heap  []int32    // offsets of heap-access instructions
	ctrl  []tmplEdge // intraprocedural control dependences
	entry []int32    // offsets of instructions control dependent on entry
}

// BuildState carries the per-method templates of one build so the next
// edit can reuse them. States are cheap to hold (flat int slices, no
// pointers into the program they were derived from).
type BuildState struct {
	templates map[string]*methodTemplate
}

// DeltaStats reports how much of a BuildDelta run was reused.
type DeltaStats struct {
	// TemplatesReused and TemplatesBuilt partition the distinct reachable
	// methods of the new program.
	TemplatesReused int
	TemplatesBuilt  int
	// Ctxs is the number of contexts replayed (nodes come from every
	// context regardless of reuse; only the per-method derivation work is
	// saved).
	Ctxs int
}

// newMethodTemplate derives m's template: one body walk plus one CDG
// construction. Call instructions take no use edges: argument flow
// reaches the callee's formal parameters via EdgeParam, and the call
// node itself only receives EdgeReturn flow — following the SDG shape,
// where a call result does not directly depend on the arguments in the
// caller.
func newMethodTemplate(m *ir.Method, first int) *methodTemplate {
	t := &methodTemplate{}
	cg := cdg.Build(m)
	m.Instrs(func(ins ir.Instr) {
		local := int32(ins.ID() - first)
		t.size++
		if _, isCall := ins.(*ir.Call); isCall {
			t.calls = append(t.calls, local)
		} else {
			ins.EachUse(func(u *ir.Reg, role ir.Role) {
				if u.Def == nil {
					return
				}
				kind := EdgeLocal
				if role == ir.RoleBase {
					kind = EdgeBase
				}
				t.uses = append(t.uses, tmplEdge{to: local, src: int32(u.Def.ID() - first), kind: kind})
			})
			switch ins.(type) {
			case *ir.SetField, *ir.GetField, *ir.ArrayStore, *ir.ArrayLoad,
				*ir.ArrayLen, *ir.SetStatic, *ir.GetStatic:
				t.heap = append(t.heap, local)
			}
		}
		for _, br := range cg.InstrDeps(ins) {
			if br != ins {
				t.ctrl = append(t.ctrl, tmplEdge{to: local, src: int32(br.ID() - first), kind: EdgeControl})
			}
		}
		if cg.DependsOnEntry(ins) {
			t.entry = append(t.entry, local)
		}
	})
	return t
}

// replayScan replays one context's scan phase off its method template:
// use edges, then call links. With h set (the count pass) it also
// records the context's heap accesses and the caller lists; the fill
// pass replays the edges alone.
func (g *Graph) replayScan(mc *pointsto.MCtx, t *methodTemplate, add func(to Node, d Dep), h *heapIndex) {
	base := int(g.base[mc])
	first := g.firstID[mc.Method]
	for _, e := range t.uses {
		add(Node(base+int(e.to)), Dep{Src: Node(base + int(e.src)), Kind: e.kind, Via: NoNode})
	}
	for _, local := range t.calls {
		call := g.Prog.InstrByID(first + int(local)).(*ir.Call)
		g.linkCall(mc, base-first, Node(base+int(local)), call, add, h != nil)
	}
	if h == nil {
		return
	}
	// Points-to IDs arrive sorted straight off the solver's bitsets;
	// the pairing phase's intersection tests rely on that order.
	objIDs := func(r *ir.Reg) []int {
		return g.Pts.PointsToIDsIn(nil, r, mc)
	}
	for _, local := range t.heap {
		node := Node(base + int(local))
		switch ins := g.Prog.InstrByID(first + int(local)).(type) {
		case *ir.SetField:
			q := ins.Field.QualifiedName()
			h.fieldStores[q] = append(h.fieldStores[q], newHeapAccess(node, objIDs(ins.Obj)))
		case *ir.GetField:
			q := ins.Field.QualifiedName()
			h.fieldLoads[q] = append(h.fieldLoads[q], newHeapAccess(node, objIDs(ins.Obj)))
		case *ir.ArrayStore:
			h.elemStores = append(h.elemStores, newHeapAccess(node, objIDs(ins.Arr)))
		case *ir.ArrayLoad:
			h.elemLoads = append(h.elemLoads, newHeapAccess(node, objIDs(ins.Arr)))
		case *ir.ArrayLen:
			h.lenReads = append(h.lenReads, heapAccess{node: node, objs: objIDs(ins.Arr)})
		case *ir.SetStatic:
			q := ins.Field.QualifiedName()
			h.staticStores[q] = append(h.staticStores[q], node)
		case *ir.GetStatic:
			q := ins.Field.QualifiedName()
			h.staticLoads[q] = append(h.staticLoads[q], node)
		}
	}
}

// replayCtrl replays one context's control dependences off the
// template. Per node, its EdgeControl rows precede its EdgeCallControl
// rows (both come from the node's own instruction).
func (g *Graph) replayCtrl(mc *pointsto.MCtx, t *methodTemplate, add func(to Node, d Dep)) {
	base := int(g.base[mc])
	for _, e := range t.ctrl {
		add(Node(base+int(e.to)), Dep{Src: Node(base + int(e.src)), Kind: EdgeControl, Via: NoNode})
	}
	callers := g.callerNodes[mc]
	for _, local := range t.entry {
		node := Node(base + int(local))
		for _, caller := range callers {
			add(node, Dep{Src: caller, Kind: EdgeCallControl, Via: NoNode})
		}
	}
}

// BuildDelta constructs the dependence graph over prog/pts, reusing
// prev's per-method templates for every method whose qualified name is
// not in changed. With a nil prev it derives every template: the cold
// build. Either way it returns the templates the next edit can reuse.
//
// changed must contain the qualified name of every method whose body
// differs from the build prev describes — the depgraph frontier plus
// added units. A template whose recorded instruction count disagrees
// with the new body is rebuilt regardless, as a stale-input guard.
//
// b meters the build (PhaseSDG: one step per instruction replayed, per
// heap load paired and, under a step cap, per edge). A canceled context
// or passed deadline aborts with *budget.ErrCanceled. An exhausted step
// cap returns the partial graph flagged Truncated with a nil error:
// every node is present, and every node's in-edges are a prefix of its
// complete list. The cap cuts the same emission sequence on every run,
// so truncation is deterministic.
//
// Construction makes two passes over one emission sequence. The count
// pass derives templates, records caller lists and heap accesses, and
// counts each node's in-edges; the fill pass replays the sequence and
// writes each edge straight into its final CSR slot, keeping per node
// exactly the counted prefix.
func BuildDelta(prog *ir.Program, pts *pointsto.Result, prev *BuildState, changed []string, b *budget.Budget) (*Graph, *BuildState, DeltaStats, error) {
	g, size := newGraph(prog, pts)
	g.meter = b.Phase(budget.PhaseSDG)
	changedSet := make(map[string]bool, len(changed))
	for _, q := range changed {
		changedSet[q] = true
	}
	stats := DeltaStats{Ctxs: len(g.mctxs)}
	st := &BuildState{templates: make(map[string]*methodTemplate)}
	tmplOf := make(map[*ir.Method]*methodTemplate, len(prog.Methods))
	template := func(m *ir.Method) *methodTemplate {
		if t, ok := tmplOf[m]; ok {
			return t
		}
		q := m.Sig.QualifiedName()
		var t *methodTemplate
		if prev != nil && !changedSet[q] {
			t = prev.templates[q]
		}
		if t != nil && t.size == size[m] {
			stats.TemplatesReused++
		} else {
			t = newMethodTemplate(m, g.firstID[m])
			stats.TemplatesBuilt++
		}
		tmplOf[m] = t
		st.templates[q] = t
		return t
	}

	// Count pass: scan every context, then heap pairing, then control.
	// Edges spend steps only under a step cap; without one, the
	// per-context and per-load ticks poll for cancellation.
	n := len(g.nodeCtx)
	off := make([]int32, n+1)
	count := func(to Node, _ Dep) { off[to+1]++ }
	if b.Limited(budget.PhaseSDG) {
		count = func(to Node, _ Dep) {
			if g.tick() {
				off[to+1]++
			}
		}
	}
	tmpls := make([]*methodTemplate, len(g.mctxs))
	h := newHeapIndex()
	for i, mc := range g.mctxs {
		if !g.tickN(size[mc.Method]) {
			break
		}
		tmpls[i] = template(mc.Method)
		g.replayScan(mc, tmpls[i], count, h)
	}
	g.emitHeap(h, g.tick, count)
	for i, mc := range g.mctxs {
		if g.stop != nil {
			break
		}
		g.replayCtrl(mc, tmpls[i], count)
	}
	if g.stop != nil {
		if budget.IsCanceled(g.stop) {
			return nil, nil, stats, g.stop
		}
		g.Truncated, g.LimitErr = true, g.stop
	}

	// Fill pass: the same sequence over the recorded heap index and
	// caller lists. Contexts the count pass never reached have no
	// template and counted no edges.
	start := time.Now()
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	deps := make([]Dep, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	g.csrBuild = time.Since(start)
	place := func(to Node, d Dep) {
		if cur[to] < off[to+1] {
			deps[cur[to]] = d
			cur[to]++
		}
	}
	for i, mc := range g.mctxs {
		if tmpls[i] != nil {
			g.replayScan(mc, tmpls[i], place, nil)
		}
	}
	g.emitHeap(h, nil, place)
	for i, mc := range g.mctxs {
		if tmpls[i] != nil {
			g.replayCtrl(mc, tmpls[i], place)
		}
	}
	g.csrOff, g.csrDeps, g.numEdges = off, deps, len(deps)
	return g, st, stats, nil
}

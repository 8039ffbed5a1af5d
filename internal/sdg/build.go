package sdg

// Construction. A dependence graph is three layers: a node scaffolding
// fixed by (program, points-to result), per-method structure that
// depends only on a method's body (intraprocedural def-use edges,
// control dependences, the positions of its heap accesses and call
// sites), and global structure derived from the points-to result (call
// linking, heap pairing, statics, array lengths). BuildBudget derives
// the middle layer once per method as a base-relative template, replays
// every context of the method off it, and computes the points-to-derived
// layer from the result.
//
// Every node's in-edge order is its emission order within a fixed phase
// sequence, and each in-edge category of a node has exactly one
// emitter: local/base edges come from the node's own instruction
// (template order = EachUse order), param/return edges arrive in
// (caller context, call instruction, canonical callee) order, the heap
// list in heap-index append order (context, instruction), and control
// edges from the node's own instruction's CDG rows, then its context's
// callers. Contexts replay in canonical order, so a build and every
// step-capped prefix of it agree node by node — and therefore in
// Fingerprint and in the codec payload.

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
// instruction ID, so every context of the method replays the same
// template from its own base.
type methodTemplate struct {
	uses  []tmplEdge // local/base def-use edges, in instruction order
	calls []int32    // offsets of call instructions
	heap  []int32    // offsets of heap-access instructions
	ctrl  []tmplEdge // intraprocedural control dependences
	entry []int32    // offsets of instructions control dependent on entry
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
// records the context's heap accesses. record, when non-nil, sees every
// (callee context, call site) pair.
func (b *builder) replayScan(mc *pointsto.MCtx, t *methodTemplate, add func(to Node, d Dep), h *heapIndex, record func(callee int, call Node)) {
	g := b.g
	base, first := int(g.base[mc.ID]), int(g.first[mc.ID])
	for _, e := range t.uses {
		add(Node(base+int(e.to)), Dep{Src: Node(base + int(e.src)), Kind: e.kind, Via: NoNode})
	}
	for _, local := range t.calls {
		call := g.Prog.InstrByID(first + int(local)).(*ir.Call)
		b.linkCall(mc, base-first, Node(base+int(local)), call, add, record)
	}
	if h == nil {
		return
	}
	objs := func(r *ir.Reg) pointsto.Set { return g.Pts.PointsToSetIn(r, mc) }
	for _, local := range t.heap {
		node := Node(base + int(local))
		switch ins := g.Prog.InstrByID(first + int(local)).(type) {
		case *ir.SetField:
			q := ins.Field.QualifiedName()
			h.fieldStores[q] = append(h.fieldStores[q], heapAccess{node, objs(ins.Obj)})
		case *ir.GetField:
			q := ins.Field.QualifiedName()
			h.fieldLoads[q] = append(h.fieldLoads[q], heapAccess{node, objs(ins.Obj)})
		case *ir.ArrayStore:
			h.elemStores = append(h.elemStores, heapAccess{node, objs(ins.Arr)})
		case *ir.ArrayLoad:
			h.elemLoads = append(h.elemLoads, heapAccess{node, objs(ins.Arr)})
		case *ir.ArrayLen:
			h.lenReads = append(h.lenReads, heapAccess{node, objs(ins.Arr)})
		case *ir.SetStatic:
			q := ins.Field.QualifiedName()
			h.staticStores[q] = append(h.staticStores[q], node)
		case *ir.GetStatic:
			q := ins.Field.QualifiedName()
			h.staticLoads[q] = append(h.staticLoads[q], node)
		}
	}
}

// replayCtrl replays one context's intraprocedural control dependences
// off the template.
func (b *builder) replayCtrl(mc *pointsto.MCtx, t *methodTemplate, add func(to Node, d Dep)) {
	base := int(b.g.base[mc.ID])
	for _, e := range t.ctrl {
		add(Node(base+int(e.to)), Dep{Src: Node(base + int(e.src)), Kind: EdgeControl, Via: NoNode})
	}
}

// BuildBudget constructs the dependence graph over prog/pts under a
// budget. Each reachable method's template is derived once, when its
// first context is scanned, and replayed for every context.
//
// b meters the build (PhaseSDG: one step per instruction replayed, per
// heap load paired and, under a step cap, per logical edge, shared or
// not). A canceled context or passed deadline aborts with
// *budget.ErrCanceled. An exhausted step cap returns the partial graph
// flagged Truncated with a nil error: every node is present, and every
// node's logical row is a prefix of its complete row. The cap cuts the
// same emission sequence on every run, so truncation is deterministic.
//
// Construction makes two passes over the own-edge sequence. The count
// pass derives templates, counts each context's callers, records the
// heap accesses, counts each node's own edges, builds every heap list
// and points each row at its heap list and caller list; the fill pass
// replays the scan and control phases and writes each own edge and
// each caller straight into its final slot, keeping per node exactly
// the counted prefix.
func BuildBudget(prog *ir.Program, pts *pointsto.Result, b *budget.Budget) (*Graph, error) {
	bd := &builder{
		meter:   b.Phase(budget.PhaseSDG),
		capped:  b.Limited(budget.PhaseSDG),
		returns: make(map[*ir.Method][]*ir.Return, len(prog.Methods)),
	}
	g := newGraph(prog, pts, bd.returns)
	bd.g = g
	tmplOf := make(map[*ir.Method]*methodTemplate, len(prog.Methods))

	// Count pass: scan every context, then heap pairing, then control.
	// Own edges spend steps only under a step cap; without one, the
	// per-context and per-load ticks poll for cancellation. Node n's
	// scan edges (segment 0) are counted in off[2n+1] and its control
	// edges (segment 1) in off[2n+2].
	n, numCtx := len(g.nodeCtx), len(g.mctxs)
	off := make([]int32, 2*n+1)
	counter := func(seg int) func(to Node, _ Dep) {
		if bd.capped {
			return func(to Node, _ Dep) {
				if bd.tick() {
					off[2*int(to)+seg+1]++
				}
			}
		}
		return func(to Node, _ Dep) { off[2*int(to)+seg+1]++ }
	}
	ncallers := make([]int32, numCtx)
	countCaller := func(callee int, _ Node) { ncallers[callee]++ }
	tmpls := make([]*methodTemplate, numCtx)
	h := newHeapIndex()
	countScan := counter(0)
	for i, mc := range g.mctxs {
		if !bd.tickN(g.ctxSize(i)) {
			break
		}
		t, ok := tmplOf[mc.Method]
		if !ok {
			t = newMethodTemplate(mc.Method, int(g.first[i]))
			tmplOf[mc.Method] = t
		}
		tmpls[i] = t
		bd.replayScan(mc, t, countScan, h, countCaller)
	}
	// Caller lists come first among the lists, one per context in ID
	// order; the fill pass writes their nodes.
	g.lists = make([]span, numCtx)
	total := int32(0)
	for i, k := range ncallers {
		g.lists[i] = span{total, k}
		total += k
	}
	g.srcs = make([]Node, total)
	g.refs = make([]refs, n)
	for i := range g.refs {
		g.refs[i] = refs{-1, -1}
	}
	bd.emitHeap(h)
	countCtrl := counter(1)
	for i, mc := range g.mctxs {
		if bd.stop != nil {
			break
		}
		bd.replayCtrl(mc, tmpls[i], countCtrl)
		if g.lists[i].n == 0 {
			continue
		}
		for _, local := range tmpls[i].entry {
			if bd.stop != nil {
				break
			}
			g.refs[g.base[i]+local].calls = bd.refer(int32(i))
		}
	}
	if bd.stop != nil {
		if budget.IsCanceled(bd.stop) {
			return nil, bd.stop
		}
		g.Truncated, g.LimitErr = true, bd.stop
	}

	// Fill pass: the scan and control sequence again, over the same
	// contexts. Contexts the count pass never reached have no template
	// and counted no edges.
	start := time.Now()
	for i := 1; i <= 2*n; i++ {
		off[i] += off[i-1]
	}
	own := make([]Dep, off[2*n])
	cur := make([]int32, 2*n)
	copy(cur, off[:2*n])
	g.csrBuild = time.Since(start)
	placer := func(seg int) func(to Node, d Dep) {
		return func(to Node, d Dep) {
			if s := 2*int(to) + seg; cur[s] < off[s+1] {
				own[cur[s]] = d
				cur[s]++
			}
		}
	}
	next := make([]int32, numCtx)
	for i, l := range g.lists[:numCtx] {
		next[i] = l.off
	}
	fillCaller := func(callee int, call Node) {
		g.srcs[next[callee]] = call
		next[callee]++
	}
	placeScan, placeCtrl := placer(0), placer(1)
	for i, mc := range g.mctxs {
		if tmpls[i] != nil {
			bd.replayScan(mc, tmpls[i], placeScan, nil, fillCaller)
		}
	}
	for i, mc := range g.mctxs {
		if tmpls[i] != nil {
			bd.replayCtrl(mc, tmpls[i], placeCtrl)
		}
	}
	g.own, g.ownOff = own, off
	g.numEdges += len(own)
	return g, nil
}

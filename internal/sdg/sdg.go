// Package sdg builds the context-insensitive dependence graph variant
// of paper §5.2. Nodes are (instruction, call-graph-context) pairs:
// like WALA, the graph contains one copy of a method's statements per
// call graph node, so the object-sensitive cloning of container classes
// performed by the pointer analysis (paper §6.1) is visible to the
// slicers. Edges carry the classification thin slicing needs —
// producer flow, base-pointer flow, heap flow (direct store→load edges
// justified by the points-to analysis), parameter/return flow, and
// control dependence.
//
// Following §5.2, heap dependences are direct interprocedural edges
// from stores to may-aliased loads, avoiding the heap parameters that
// make the context-sensitive SDG (§5.3, package csslice) blow up.
package sdg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
	"time"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
)

// EdgeKind classifies a dependence edge. (int32 keeps Dep at 12 bytes
// — the CSR edge array is the graph's dominant allocation.)
type EdgeKind int32

// Edge kinds. Thin slices traverse Local/Heap/Param/Return flow;
// traditional slices additionally traverse Base flow and control.
const (
	// EdgeLocal is intraprocedural SSA def-use flow into a producer
	// (or branch-condition) operand.
	EdgeLocal EdgeKind = iota
	// EdgeBase is def-use flow into a base-pointer or array-index
	// operand: a "base pointer flow dependence" (paper §3), ignored by
	// thin slicing.
	EdgeBase
	// EdgeHeap is a direct store→load edge between may-aliased heap
	// accesses (producer flow through the heap).
	EdgeHeap
	// EdgeParam is actual-argument → formal-parameter flow; Via names
	// the call site, which is itself a producer statement.
	EdgeParam
	// EdgeReturn is return-value → call-result flow.
	EdgeReturn
	// EdgeControl is intraprocedural control dependence on a branch.
	EdgeControl
	// EdgeCallControl makes callee statements that always execute on
	// entry control dependent on the call sites of their method.
	EdgeCallControl
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeLocal:
		return "local"
	case EdgeBase:
		return "base"
	case EdgeHeap:
		return "heap"
	case EdgeParam:
		return "param"
	case EdgeReturn:
		return "return"
	case EdgeControl:
		return "control"
	case EdgeCallControl:
		return "call-control"
	}
	return "?"
}

// IsProducerFlow reports whether edges of kind k carry producer value
// flow (the edges a thin slice follows).
func (k EdgeKind) IsProducerFlow() bool {
	switch k {
	case EdgeLocal, EdgeHeap, EdgeParam, EdgeReturn:
		return true
	}
	return false
}

// IsControl reports whether k is a control dependence kind.
func (k EdgeKind) IsControl() bool {
	return k == EdgeControl || k == EdgeCallControl
}

// Node identifies one statement instance: an instruction in a
// particular call-graph context.
type Node int32

// NoNode is the absent-node sentinel (e.g. Dep.Via on non-param edges).
const NoNode Node = -1

// Dep is one incoming dependence of a node: the node depends on Src.
// Via is the call-site node mediating param flow (itself part of the
// producer chain), or NoNode.
type Dep struct {
	Src  Node
	Kind EdgeKind
	Via  Node
}

// Graph is the dependence graph, stored as in-edges per node.
type Graph struct {
	Prog *ir.Program
	Pts  *pointsto.Result

	// Truncated reports that construction stopped at a step cap: the
	// node set is complete but some dependence edges are missing, so
	// slices over this graph may be under-approximate. LimitErr carries
	// the triggering *budget.ErrExhausted.
	Truncated bool
	LimitErr  error

	meter *budget.Meter
	stop  error
	// CSR (compressed sparse row) in-edge layout: node n's dependences
	// are csrDeps[csrOff[n]:csrOff[n+1]]. A flat layout keeps the
	// backward closure's inner loop on one contiguous array instead of
	// chasing per-node slice headers.
	csrOff   []int32
	csrDeps  []Dep
	csrBuild time.Duration
	mctxs    []*pointsto.MCtx
	base     map[*pointsto.MCtx]int32 // first node of each context
	nodeCtx  []*pointsto.MCtx         // dense: node → context (one entry per node)
	firstID  map[*ir.Method]int       // first instruction ID of each method
	numEdges int
	// callerNodes are the call-site nodes that may invoke a context.
	callerNodes map[*pointsto.MCtx][]Node
	// returns caches each method's Return instructions: linkCall needs
	// them once per (call site, callee context) pair, and re-walking
	// the whole callee body every time is quadratic in practice.
	returns map[*ir.Method][]*ir.Return
}

// NumNodes returns the number of statement instances (the paper's
// "SDG Statements": scalar statements across call-graph clones,
// without heap parameters).
func (g *Graph) NumNodes() int { return len(g.nodeCtx) }

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Deps returns the dependences of node n, in construction order (a
// view into the CSR edge array; callers must not mutate it).
func (g *Graph) Deps(n Node) []Dep { return g.csrDeps[g.csrOff[n]:g.csrOff[n+1]] }

// CSRBuildDuration reports how long the build spent laying out the CSR
// arrays between its count and fill passes (the bench harness's
// csr_build_us column); zero for a decoded graph.
func (g *Graph) CSRBuildDuration() time.Duration { return g.csrBuild }

// newGraph lays out the node numbering that prog and pts determine:
// contexts in MCtx ID order, each owning one node per instruction of
// its method, numbered in instruction order from the context's base.
// The builder and DecodeGraph share it, so a decoded graph numbers its
// nodes exactly as the build that encoded it. size maps each method to
// its instruction count.
func newGraph(prog *ir.Program, pts *pointsto.Result) (g *Graph, size map[*ir.Method]int) {
	g = &Graph{
		Prog:        prog,
		Pts:         pts,
		base:        make(map[*pointsto.MCtx]int32),
		firstID:     make(map[*ir.Method]int, len(prog.Methods)),
		callerNodes: make(map[*pointsto.MCtx][]Node),
		returns:     make(map[*ir.Method][]*ir.Return, len(prog.Methods)),
	}
	// One walk per method collects everything the layout and linkCall
	// need; contexts then reuse the per-method numbers instead of
	// re-walking bodies once per clone.
	size = make(map[*ir.Method]int, len(prog.Methods))
	for _, m := range prog.Methods {
		first, n := -1, 0
		var rets []*ir.Return
		m.Instrs(func(ins ir.Instr) {
			if first < 0 {
				first = ins.ID()
			}
			n++
			if ret, ok := ins.(*ir.Return); ok {
				rets = append(rets, ret)
			}
		})
		g.firstID[m], g.returns[m], size[m] = first, rets, n
	}
	g.mctxs = pts.MCtxs()
	total := 0
	for _, mc := range g.mctxs {
		g.base[mc] = int32(total)
		total += size[mc.Method]
	}
	g.nodeCtx = make([]*pointsto.MCtx, 0, total)
	for _, mc := range g.mctxs {
		for range size[mc.Method] {
			g.nodeCtx = append(g.nodeCtx, mc)
		}
	}
	return g, size
}

// CtxOf returns the call-graph context of n.
func (g *Graph) CtxOf(n Node) *pointsto.MCtx { return g.nodeCtx[n] }

// InstrOf returns the instruction of n.
func (g *Graph) InstrOf(n Node) ir.Instr {
	mc := g.nodeCtx[n]
	local := int(n) - int(g.base[mc])
	return g.Prog.InstrByID(g.firstID[mc.Method] + local)
}

// NodeOf returns the node for an instruction in a specific context.
func (g *Graph) NodeOf(mc *pointsto.MCtx, ins ir.Instr) Node {
	return Node(int(g.base[mc]) + ins.ID() - g.firstID[ins.Block().Method])
}

// NodesOf returns all statement instances of an instruction (one per
// context its method was analyzed under).
func (g *Graph) NodesOf(ins ir.Instr) []Node {
	m := ins.Block().Method
	var out []Node
	for _, mc := range g.Pts.MCtxsOf(m) {
		out = append(out, g.NodeOf(mc, ins))
	}
	return out
}

// Reachable reports whether m has at least one analyzed context.
func (g *Graph) Reachable(m *ir.Method) bool {
	return len(g.Pts.MCtxsOf(m)) > 0
}

// CallerNodes returns the call-site nodes that may invoke context mc.
func (g *Graph) CallerNodes(mc *pointsto.MCtx) []Node { return g.callerNodes[mc] }

// Fingerprint returns a sha256 digest of the graph's full structure —
// every node's ordered dependence list, the per-context caller-node
// lists, and the edge count. Two builds of the same program, and a
// build and its decoded copy, must produce identical fingerprints; the
// equivalence tests pin exactly that.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	buf := make([]byte, 8)
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(buf, uint64(v))
		h.Write(buf)
	}
	wr(int64(len(g.nodeCtx)))
	wr(int64(g.numEdges))
	for n := range g.nodeCtx {
		deps := g.Deps(Node(n))
		wr(int64(len(deps)))
		for _, d := range deps {
			wr(int64(d.Src))
			wr(int64(d.Kind))
			wr(int64(d.Via))
		}
	}
	for _, mc := range g.mctxs {
		callers := g.callerNodes[mc]
		wr(int64(len(callers)))
		for _, c := range callers {
			wr(int64(c))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// heapAccess is one heap load or store with the points-to set of its
// base pointer in the access's context. The set is a read-only view of
// the solver's offset bitset: the pairing phase tests may-alias with a
// handful of word ANDs over the span both sets cover, and on realistic
// programs the IDs of one base pointer cluster into a single word.
type heapAccess struct {
	node Node
	objs pointsto.Set
}

// heapIndex collects the heap accesses discovered during the scan
// phase, keyed so the pairing phase can match stores to may-aliased
// loads. Accesses are appended in (context, instruction) order; the
// pairing phase relies on that order for reproducible edge lists.
type heapIndex struct {
	fieldStores  map[string][]heapAccess
	fieldLoads   map[string][]heapAccess
	elemStores   []heapAccess
	elemLoads    []heapAccess
	lenReads     []heapAccess
	staticStores map[string][]Node
	staticLoads  map[string][]Node
}

func newHeapIndex() *heapIndex {
	return &heapIndex{
		fieldStores:  make(map[string][]heapAccess),
		fieldLoads:   make(map[string][]heapAccess),
		staticStores: make(map[string][]Node),
		staticLoads:  make(map[string][]Node),
	}
}

// Build constructs the dependence graph over the contexts reachable in
// pts, unbounded.
func Build(prog *ir.Program, pts *pointsto.Result) *Graph {
	g, err := BuildBudget(prog, pts, nil)
	if err != nil {
		// Unreachable: a nil budget cannot be canceled or exhausted.
		panic(err)
	}
	return g
}

// lenDeps returns the heap edges of one array-length read: the
// allocation sites of its may-pointees, across every context instance
// of the allocation (the object's heap context names the allocating
// container context only indirectly). Objects of one site share its
// nodes and distinct sites have disjoint ones, so each site is emitted
// once, at its first object.
func (g *Graph) lenDeps(lr heapAccess, add func(to Node, d Dep)) {
	var seen []ir.Instr
	lr.objs.ForEach(func(id int) {
		o := g.Pts.Objects()[id]
		if !o.IsArray() || slices.Contains(seen, o.Site) {
			return
		}
		seen = append(seen, o.Site)
		for _, mc := range g.Pts.MCtxsOf(o.Site.Block().Method) {
			add(lr.node, Dep{Src: g.NodeOf(mc, o.Site), Kind: EdgeHeap, Via: NoNode})
		}
	})
}

// maskKey identifies a single-word points-to set; loads with equal
// sets match exactly the same stores, so per-field pairing caches the
// match list once per distinct set instead of re-testing every (load,
// store) pair. Sets spanning several words (rare: the IDs of one base
// pointer must cross a 64-ID word boundary) fall back to direct pairing.
type maskKey struct {
	word int
	bits uint64
}

// matchStores returns the nodes of stores aliasing ld, in stores slice
// order (the order the pairing loops have always emitted), caching by
// set when ld's set is a single word.
func matchStores(ld *heapAccess, stores []heapAccess, cache map[maskKey][]Node) []Node {
	word, bits, ok := ld.objs.OneWord()
	if ok {
		if m, hit := cache[maskKey{word, bits}]; hit {
			return m
		}
	}
	var m []Node
	for i := range stores {
		if ld.objs.Intersects(stores[i].objs) {
			m = append(m, stores[i].node)
		}
	}
	if ok {
		cache[maskKey{word, bits}] = m
	}
	return m
}

// emitHeap runs the points-to-derived phases over a heap index: heap
// pairing, array lengths and statics, sending every edge to add. Field
// names are visited in sorted order, so the sequence of loads, and with
// it the point where a step cap stops the phase, is the same on every
// run. tick, when non-nil, is spent once per load before its edges; a
// false return ends the phase.
func (g *Graph) emitHeap(h *heapIndex, tick func() bool, add func(to Node, d Dep)) {
	spend := func() bool { return tick == nil || tick() }
	// Heap edges: store→load when the base points-to sets (in the
	// respective contexts) intersect.
	for _, fname := range sortedKeys(h.fieldLoads) {
		loads, stores := h.fieldLoads[fname], h.fieldStores[fname]
		cache := make(map[maskKey][]Node)
		for i := range loads {
			if !spend() {
				return
			}
			for _, st := range matchStores(&loads[i], stores, cache) {
				add(loads[i].node, Dep{Src: st, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
	for _, ld := range h.elemLoads {
		if !spend() {
			return
		}
		for _, st := range h.elemStores {
			if ld.objs.Intersects(st.objs) {
				add(ld.node, Dep{Src: st.node, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
	for _, lr := range h.lenReads {
		if !spend() {
			return
		}
		g.lenDeps(lr, add)
	}
	// Static fields are single global locations: every store reaches
	// every load of the same field.
	for _, fname := range sortedKeys(h.staticLoads) {
		stores := h.staticStores[fname]
		for _, ld := range h.staticLoads[fname] {
			if !spend() {
				return
			}
			for _, st := range stores {
				add(ld, Dep{Src: st, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //determinism:ok — sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tick spends one construction step; once the budget fails the graph
// stops growing (sticky), and the builder interprets the violation.
func (g *Graph) tick() bool { return g.tickN(1) }

// tickN spends n construction steps at once.
func (g *Graph) tickN(n int) bool {
	if g.stop != nil {
		return false
	}
	if err := g.meter.TickN(int64(n)); err != nil {
		g.stop = err
		return false
	}
	return true
}

// linkCall adds parameter and return edges for every callee context of
// a call site in a caller context, whose nodes are its instruction IDs
// plus callerDelta. With record set it also records the call site as a
// caller of each callee context.
func (g *Graph) linkCall(caller *pointsto.MCtx, callerDelta int, callNode Node, call *ir.Call, add func(to Node, d Dep), record bool) {
	for _, callee := range g.Pts.CalleesAt(call, caller) {
		if record {
			g.callerNodes[callee] = append(g.callerNodes[callee], callNode)
		}
		calleeDelta := int(g.base[callee]) - g.firstID[callee.Method]
		params := callee.Method.Params
		offset := 0
		if !callee.Method.Sig.Static {
			offset = 1
			if call.Recv != nil && call.Recv.Def != nil {
				add(Node(calleeDelta+params[0].ID()),
					Dep{Src: Node(callerDelta + call.Recv.Def.ID()), Kind: EdgeParam, Via: callNode})
			}
		}
		for i, arg := range call.Args {
			if i+offset >= len(params) {
				break
			}
			if arg.Def != nil {
				add(Node(calleeDelta+params[i+offset].ID()),
					Dep{Src: Node(callerDelta + arg.Def.ID()), Kind: EdgeParam, Via: callNode})
			}
		}
		if call.Dst != nil {
			for _, ret := range g.returns[callee.Method] {
				if ret.Val != nil {
					add(callNode, Dep{Src: Node(calleeDelta + ret.ID()), Kind: EdgeReturn, Via: NoNode})
				}
			}
		}
	}
}

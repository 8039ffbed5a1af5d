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
//
// The graph stores those edges factored. Loads that pair on the same
// key (a field and a one-word points-to set, one static field) depend
// on the same stores, and every statement that always executes on a
// method's entry depends on the same call sites, so each such list is
// stored once and referenced from every row that contains it. On
// javac@5 the 1,225,042 logical edges take 19,252 own edges and 2,493
// shared heap sources.
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

// EdgeKind classifies a dependence edge. (int32 keeps Dep at 12 bytes.)
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

// span is one shared list: srcs[off : off+n].
type span struct{ off, n int32 }

// refs names a node's two shared lists, each an index into lists or -1.
type refs struct{ heap, calls int32 }

// Graph is the dependence graph, stored as in-edges per node.
//
// A node's logical row, the sequence EachDep yields, is its own scan
// edges (local, base, param, return), then its heap list, then its own
// control edges, then its context's callers when the node executes on
// every entry to its method. Own edges are compressed sparse rows:
// node n's scan edges are own[ownOff[2n]:ownOff[2n+1]] and its control
// edges own[ownOff[2n+1]:ownOff[2n+2]]. Shared lists are spans of
// srcs. Lists 0 to len(mctxs)-1 are the contexts' caller lists in MCtx
// ID order, so they form one CSR keyed by context ID; the heap lists
// follow, each stored once for every load that pairs with it.
type Graph struct {
	Prog *ir.Program
	Pts  *pointsto.Result

	// Truncated reports that construction stopped at a step cap: the
	// node set is complete but some dependence edges are missing, so
	// slices over this graph may be under-approximate. LimitErr carries
	// the triggering *budget.ErrExhausted.
	Truncated bool
	LimitErr  error

	own      []Dep
	ownOff   []int32
	refs     []refs
	lists    []span
	srcs     []Node
	numEdges int
	csrBuild time.Duration

	mctxs   []*pointsto.MCtx
	base    []int32 // per context ID: its first node
	first   []int32 // per context ID: its method's first instruction ID
	nodeCtx []int32 // per node: its context ID
}

// NumNodes returns the number of statement instances (the paper's
// "SDG Statements": scalar statements across call-graph clones,
// without heap parameters).
func (g *Graph) NumNodes() int { return len(g.nodeCtx) }

// NumEdges returns the number of logical dependence edges, counting a
// shared list once for every row that contains it.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLists returns the number of shared lists, the range of
// Row.HeapList and Row.CallList.
func (g *Graph) NumLists() int { return len(g.lists) }

// Row is one node's dependences in factored form. Its logical sequence
// is Scan, then Heap as EdgeHeap edges, then Ctrl, then Calls as
// EdgeCallControl edges; shared edges carry no Via. The slices are
// views into the graph; callers must not mutate them.
type Row struct {
	Scan  []Dep  // own local, base, param and return edges
	Heap  []Node // sources of the node's heap list
	Ctrl  []Dep  // own EdgeControl edges
	Calls []Node // the call sites its context's entry depends on

	// HeapList and CallList name Heap and Calls among the graph's
	// NumLists shared lists, or are -1 when the list is empty. Rows
	// naming the same list hold the same sources; a list a step cap
	// cut short has a name of its own.
	HeapList, CallList int32
}

// Len returns the number of logical edges in r.
func (r *Row) Len() int { return len(r.Scan) + len(r.Heap) + len(r.Ctrl) + len(r.Calls) }

// Row returns node n's dependences in factored form.
func (g *Graph) Row(n Node) Row {
	i := 2 * int(n)
	o := g.ownOff[i : i+3]
	ref := g.refs[n]
	return Row{
		Scan:     g.own[o[0]:o[1]],
		Ctrl:     g.own[o[1]:o[2]],
		Heap:     g.list(ref.heap),
		Calls:    g.list(ref.calls),
		HeapList: ref.heap,
		CallList: ref.calls,
	}
}

// list returns the sources of list i, or nil for i < 0.
func (g *Graph) list(i int32) []Node {
	if i < 0 {
		return nil
	}
	l := g.lists[i]
	return g.srcs[l.off : l.off+l.n]
}

// EachDep calls f with every dependence of node n, in the logical
// order: own scan edges, heap list, own control edges, callers.
func (g *Graph) EachDep(n Node, f func(Dep)) {
	r := g.Row(n)
	for _, d := range r.Scan {
		f(d)
	}
	for _, src := range r.Heap {
		f(Dep{Src: src, Kind: EdgeHeap, Via: NoNode})
	}
	for _, d := range r.Ctrl {
		f(d)
	}
	for _, src := range r.Calls {
		f(Dep{Src: src, Kind: EdgeCallControl, Via: NoNode})
	}
}

// CSRBuildDuration reports how long the build spent laying out the own
// edge arrays between its count and fill passes (the bench harness's
// csr_build_us column); zero for a decoded graph.
func (g *Graph) CSRBuildDuration() time.Duration { return g.csrBuild }

// newGraph lays out the node numbering that prog and pts determine:
// contexts in MCtx ID order, each owning one node per instruction of
// its method, numbered in instruction order from the context's base.
// The builder and DecodeGraph share it, so a decoded graph numbers its
// nodes exactly as the build that encoded it. A non-nil returns map
// receives each method's Return instructions from the same walk.
func newGraph(prog *ir.Program, pts *pointsto.Result, returns map[*ir.Method][]*ir.Return) *Graph {
	type extent struct{ first, size int }
	ext := make(map[*ir.Method]extent, len(prog.Methods))
	for _, m := range prog.Methods {
		e := extent{first: -1}
		var rets []*ir.Return
		m.Instrs(func(ins ir.Instr) {
			if e.first < 0 {
				e.first = ins.ID()
			}
			e.size++
			if ret, ok := ins.(*ir.Return); ok && returns != nil {
				rets = append(rets, ret)
			}
		})
		ext[m] = e
		if returns != nil {
			returns[m] = rets
		}
	}
	g := &Graph{Prog: prog, Pts: pts, mctxs: pts.MCtxs()}
	g.base = make([]int32, len(g.mctxs))
	g.first = make([]int32, len(g.mctxs))
	total := 0
	for i, mc := range g.mctxs {
		e := ext[mc.Method]
		g.base[i], g.first[i] = int32(total), int32(e.first)
		total += e.size
	}
	g.nodeCtx = make([]int32, 0, total)
	for i, mc := range g.mctxs {
		for range ext[mc.Method].size {
			g.nodeCtx = append(g.nodeCtx, int32(i))
		}
	}
	return g
}

// ctxSize returns the number of nodes of context i.
func (g *Graph) ctxSize(i int) int {
	end := len(g.nodeCtx)
	if i+1 < len(g.base) {
		end = int(g.base[i+1])
	}
	return end - int(g.base[i])
}

// CtxOf returns the call-graph context of n.
func (g *Graph) CtxOf(n Node) *pointsto.MCtx { return g.mctxs[g.nodeCtx[n]] }

// InstrOf returns the instruction of n.
func (g *Graph) InstrOf(n Node) ir.Instr {
	c := g.nodeCtx[n]
	return g.Prog.InstrByID(int(g.first[c] + int32(n) - g.base[c]))
}

// NodeOf returns the node for an instruction of mc's method in mc.
func (g *Graph) NodeOf(mc *pointsto.MCtx, ins ir.Instr) Node {
	return Node(int(g.base[mc.ID]) + ins.ID() - int(g.first[mc.ID]))
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
func (g *Graph) CallerNodes(mc *pointsto.MCtx) []Node { return g.list(int32(mc.ID)) }

// Fingerprint returns a sha256 digest of the graph's full structure —
// every node's logical dependence sequence, the per-context caller-node
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
		r := g.Row(Node(n))
		wr(int64(r.Len()))
		g.EachDep(Node(n), func(d Dep) {
			wr(int64(d.Src))
			wr(int64(d.Kind))
			wr(int64(d.Via))
		})
	}
	for _, mc := range g.mctxs {
		callers := g.CallerNodes(mc)
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

// maskKey identifies a single-word points-to set; loads with equal
// sets match exactly the same stores, so they share one heap list
// instead of re-testing every (load, store) pair. Sets spanning
// several words (rare: the IDs of one base pointer must cross a 64-ID
// word boundary) fall back to a private list.
type maskKey struct {
	word int
	bits uint64
}

// builder holds the state that only construction needs.
type builder struct {
	g      *Graph
	meter  *budget.Meter
	capped bool // a step cap meters every logical edge
	stop   error
	// returns caches each method's Return instructions: linkCall needs
	// them once per (call site, callee context) pair, and re-walking
	// the whole callee body every time is quadratic in practice.
	returns map[*ir.Method][]*ir.Return
}

// tick spends one construction step; once the budget fails the graph
// stops growing (sticky), and the builder interprets the violation.
func (b *builder) tick() bool { return b.tickN(1) }

// tickN spends n construction steps at once.
func (b *builder) tickN(n int) bool {
	if b.stop != nil {
		return false
	}
	if err := b.meter.TickN(int64(n)); err != nil {
		b.stop = err
		return false
	}
	return true
}

// take spends one step per edge of an n-edge list under a step cap and
// returns how many of the edges fit; without a cap it spends nothing.
// A cap therefore cuts the logical edge sequence at the same edge
// whether its edges are own or shared.
func (b *builder) take(n int32) int32 {
	if !b.capped {
		return n
	}
	for i := int32(0); i < n; i++ {
		if !b.tick() {
			return i
		}
	}
	return n
}

// refer points one row at list i (-1: no list), keeping only the
// prefix of it that the step budget admits; a cut prefix becomes a list
// of its own. It returns the reference to store.
func (b *builder) refer(i int32) int32 {
	if i < 0 {
		return -1
	}
	l := b.g.lists[i]
	k := b.take(l.n)
	b.g.numEdges += int(k)
	switch k {
	case l.n:
		return i
	case 0:
		return -1
	}
	return b.newList(l.off, k)
}

// newList records srcs[off : off+n] as a list and returns its index,
// or -1 for an empty one.
func (b *builder) newList(off, n int32) int32 {
	if n == 0 {
		return -1
	}
	b.g.lists = append(b.g.lists, span{off, n})
	return int32(len(b.g.lists) - 1)
}

// storeList returns the list of stores aliasing ld, in stores slice
// order (the order the pairing loops have always emitted), appending
// it to srcs unless a load with the same one-word set already did.
func (b *builder) storeList(ld *heapAccess, stores []heapAccess, cache map[maskKey]int32) int32 {
	word, bits, ok := ld.objs.OneWord()
	if ok {
		if i, hit := cache[maskKey{word, bits}]; hit {
			return i
		}
	}
	g := b.g
	off := int32(len(g.srcs))
	for i := range stores {
		if ld.objs.Intersects(stores[i].objs) {
			g.srcs = append(g.srcs, stores[i].node)
		}
	}
	i := b.newList(off, int32(len(g.srcs))-off)
	if ok {
		cache[maskKey{word, bits}] = i
	}
	return i
}

// lenList returns the private list of one array-length read: the
// allocation sites of its may-pointees, across every context instance
// of the allocation (the object's heap context names the allocating
// container context only indirectly). Objects of one site share its
// nodes and distinct sites have disjoint ones, so each site is listed
// once, at its first object.
func (b *builder) lenList(lr heapAccess) int32 {
	g := b.g
	off := int32(len(g.srcs))
	var seen []ir.Instr
	lr.objs.ForEach(func(id int) {
		o := g.Pts.Objects()[id]
		if !o.IsArray() || slices.Contains(seen, o.Site) {
			return
		}
		seen = append(seen, o.Site)
		for _, mc := range g.Pts.MCtxsOf(o.Site.Block().Method) {
			g.srcs = append(g.srcs, g.NodeOf(mc, o.Site))
		}
	})
	return b.newList(off, int32(len(g.srcs))-off)
}

// emitHeap runs the points-to-derived phase over a heap index: every
// load's heap list, from field, element, array-length and static
// pairing. Field names are visited in sorted order, so the sequence of
// loads, and with it the point where a step cap stops the phase, is
// the same on every run. Each load spends one step before its edges.
func (b *builder) emitHeap(h *heapIndex) {
	refs := b.g.refs
	pair := func(loads, stores []heapAccess, cache map[maskKey]int32) bool {
		for i := range loads {
			if !b.tick() {
				return false
			}
			refs[loads[i].node].heap = b.refer(b.storeList(&loads[i], stores, cache))
		}
		return true
	}
	// Heap edges: store→load when the base points-to sets (in the
	// respective contexts) intersect.
	for _, fname := range sortedKeys(h.fieldLoads) {
		if !pair(h.fieldLoads[fname], h.fieldStores[fname], make(map[maskKey]int32)) {
			return
		}
	}
	if !pair(h.elemLoads, h.elemStores, make(map[maskKey]int32)) {
		return
	}
	for _, lr := range h.lenReads {
		if !b.tick() {
			return
		}
		refs[lr.node].heap = b.refer(b.lenList(lr))
	}
	// Static fields are single global locations: every store reaches
	// every load of the same field, so the field's loads share one list.
	for _, fname := range sortedKeys(h.staticLoads) {
		list := int32(-1)
		for i, ld := range h.staticLoads[fname] {
			if !b.tick() {
				return
			}
			if i == 0 {
				off := int32(len(b.g.srcs))
				b.g.srcs = append(b.g.srcs, h.staticStores[fname]...)
				list = b.newList(off, int32(len(b.g.srcs))-off)
			}
			refs[ld].heap = b.refer(list)
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

// linkCall adds parameter and return edges for every callee context of
// a call site in a caller context, whose nodes are its instruction IDs
// plus callerDelta. A non-nil record also sees each callee context the
// call site invokes.
func (b *builder) linkCall(caller *pointsto.MCtx, callerDelta int, callNode Node, call *ir.Call, add func(to Node, d Dep), record func(callee int, call Node)) {
	g := b.g
	for _, callee := range g.Pts.CalleesAt(call, caller) {
		if record != nil {
			record(callee.ID, callNode)
		}
		calleeDelta := int(g.base[callee.ID] - g.first[callee.ID])
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
			for _, ret := range b.returns[callee.Method] {
				if ret.Val != nil {
					add(callNode, Dep{Src: Node(calleeDelta + ret.ID()), Kind: EdgeReturn, Via: NoNode})
				}
			}
		}
	}
}

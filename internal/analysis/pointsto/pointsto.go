// Package pointsto implements a subset-based (Andersen-style) pointer
// analysis with on-the-fly call graph construction for the IR, in the
// style the thin slicing paper builds on (Andersen [4] with on-the-fly
// call graph [23] and object-sensitive cloning for key collections
// classes [16], paper §6.1).
//
// The analysis is field-sensitive (one points-to cell per abstract
// object and field) and optionally object-sensitive for a configured
// set of container classes: methods of those classes are analyzed once
// per abstract receiver object, and allocation sites inside them are
// cloned per context. This is the precision lever behind the paper's
// ThinNoObjSens/TradNoObjSens ablation columns.
package pointsto

import (
	"fmt"
	"slices"
	"sort"

	"thinslice/internal/budget"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
)

// Object is an abstract heap object: an allocation site plus a heap
// context (the receiver object of the container method that allocated
// it, or nil).
type Object struct {
	ID    int
	Site  ir.Instr // New, NewArray, ConstStr, StrOp, or Input
	Ctx   *Object  // heap context; nil for context-insensitive sites
	Class *types.ClassInfo
	// Elem is non-nil for array objects and holds the element type.
	Elem  types.Type
	depth int
}

// IsArray reports whether o is an array object.
func (o *Object) IsArray() bool { return o.Elem != nil }

func (o *Object) String() string {
	name := "?"
	if o.Class != nil {
		name = o.Class.Name
	} else if o.Elem != nil {
		name = o.Elem.String() + "[]"
	}
	s := fmt.Sprintf("o%d<%s@%s>", o.ID, name, o.Site.Pos())
	if o.Ctx != nil {
		s += fmt.Sprintf("[ctx o%d]", o.Ctx.ID)
	}
	return s
}

// MCtx is a method analyzed under a context (a call-graph node).
type MCtx struct {
	ID     int
	Method *ir.Method
	Ctx    *Object // receiver object for container methods; nil otherwise

	// first is the ID of the method's first instruction, and slots holds
	// one entry per instruction of the method: instruction ID - first
	// indexes it, the numbering the SDG gives its nodes too.
	first int
	slots []slot
}

// slot is one instruction of a method context: the points-to set of the
// register the instruction defines and, for a call, its callee list.
// Both fields are an index plus one, so 0 means none. During a solve v
// names a constraint-graph node; in a Result it names a set in sets.
type slot struct {
	v     int32
	calls int32 // index into Result.callees
}

// extraVar is the points-to set of a register in a context whose
// method body does not hold the register's definition.
type extraVar struct {
	mc *MCtx
	v  int32 // node ID during a solve, then an index into Result.sets
}

// slotSlab carves zeroed slot tables out of shared chunks.
type slotSlab []slot

func (sl *slotSlab) take(n int) []slot {
	if n > len(*sl) {
		*sl = make([]slot, max(n, slotSlabSize))
	}
	out := (*sl)[:n:n]
	*sl = (*sl)[n:]
	return out
}

// span returns the ID of m's first instruction and m's instruction
// count. A method's instruction IDs are contiguous (ir.Verify), so an
// instruction's ID minus first indexes the method's instructions.
func span(m *ir.Method) (first, n int) {
	first = -1
	for _, b := range m.Blocks {
		if first < 0 && len(b.Instrs) > 0 {
			first = b.Instrs[0].ID()
		}
		n += len(b.Instrs)
	}
	return max(first, 0), n
}

func (mc *MCtx) String() string {
	if mc.Ctx == nil {
		return mc.Method.Name()
	}
	return fmt.Sprintf("%s[o%d]", mc.Method.Name(), mc.Ctx.ID)
}

// Config controls the analysis.
type Config struct {
	// Entries are the root methods; if empty, all static methods named
	// "main" are used, and if none exist, all methods are roots.
	Entries []*ir.Method
	// ObjSensContainers enables object-sensitive cloning of container
	// classes. When false the analysis is fully context-insensitive
	// (the paper's NoObjSens configuration).
	ObjSensContainers bool
	// ContainerClasses names the classes treated object-sensitively.
	ContainerClasses []string
	// MaxCtxDepth caps heap-context nesting (contexts deeper than this
	// are truncated to keep the abstraction finite). 0 means 3.
	MaxCtxDepth int
	// Budget bounds the solver (PhasePointsTo steps, cancellation,
	// deadline). Nil means unlimited. When the step cap is exhausted
	// under object-sensitive cloning, Analyze restarts the solver
	// context-insensitively with a fresh allowance before giving up.
	Budget *budget.Budget
	// NoCycleElim disables online cycle elimination, leaving the plain
	// difference-propagation solver. This is the reference mode the
	// equivalence property tests compare against; production callers
	// leave it false and get pointer-equivalent variable nodes collapsed
	// into union-find representatives (Nuutila/HCD-style).
	NoCycleElim bool
	// RetainState is ignored: every solve starts from an empty
	// constraint graph and keeps none of it on the Result. The field
	// remains only for callers that still set it.
	RetainState bool
}

// Result is the analysis output.
type Result struct {
	// Downgraded reports that the object-sensitive run exhausted its
	// step budget and the analysis restarted context-insensitively
	// (the paper's NoObjSens precision), trading precision for
	// termination within budget.
	Downgraded bool
	// Truncated reports that the solver stopped before reaching its
	// fixpoint: points-to sets and the call graph are valid but
	// incomplete. LimitErr carries the triggering *budget.ErrExhausted.
	Truncated bool
	LimitErr  error
	// Collapsed counts the variable/field nodes the online cycle
	// elimination merged into representatives (0 in NoCycleElim mode).
	Collapsed int

	prog    *ir.Program
	objects []*Object
	mctxs   []*MCtx
	mctxsOf map[*ir.Method][]*MCtx
	// sets holds the final non-empty points-to sets of registers, which
	// the contexts' slots and extra index. callees holds the callee
	// contexts of each (context, call) pair with any, in ID order.
	sets    []bitset
	callees [][]*MCtx
	// extra holds the sets of registers without a definition in their
	// method's body (Def is nil or not the program's instruction), per
	// context.
	extra   map[*ir.Reg][]extraVar
	entries []*ir.Method
}

// slotOf returns the index of reg's defining instruction in mc's slots,
// or -1 when mc's method body does not hold that definition.
func (r *Result) slotOf(reg *ir.Reg, mc *MCtx) int {
	if reg == nil || reg.Def == nil {
		return -1
	}
	d := reg.Def
	i := d.ID() - mc.first
	if uint(i) >= uint(len(mc.slots)) || r.prog.InstrByID(d.ID()) != d {
		return -1
	}
	return i
}

// setIn returns the points-to set of reg in context mc.
func (r *Result) setIn(reg *ir.Reg, mc *MCtx) bitset {
	if i := r.slotOf(reg, mc); i >= 0 {
		if v := mc.slots[i].v; v != 0 {
			return r.sets[v-1]
		}
		return bitset{}
	}
	for _, e := range r.extra[reg] {
		if e.mc == mc {
			return r.sets[e.v]
		}
	}
	return bitset{}
}

// numVarSets counts the points-to sets r's slots and extra entries hold.
func (r *Result) numVarSets() int {
	n := 0
	for _, mc := range r.mctxs {
		for _, sl := range mc.slots {
			if sl.v != 0 {
				n++
			}
		}
	}
	for _, list := range r.extra { //determinism:ok summed, order-free
		n += len(list)
	}
	return n
}

// union returns the union of reg's points-to sets over every context.
func (r *Result) union(reg *ir.Reg) bitset {
	var u bitset
	if reg == nil {
		return u
	}
	if d := reg.Def; d != nil && d.Block() != nil {
		if mcs := r.mctxsOf[d.Block().Method]; len(mcs) > 0 {
			if i := r.slotOf(reg, mcs[0]); i >= 0 {
				for _, mc := range mcs {
					if v := mc.slots[i].v; v != 0 {
						u.or(r.sets[v-1])
					}
				}
			}
		}
	}
	for _, e := range r.extra[reg] {
		u.or(r.sets[e.v])
	}
	return u
}

// MCtxs returns every reachable method-context (call graph node), in
// discovery order.
func (r *Result) MCtxs() []*MCtx { return r.mctxs }

// MCtxsOf returns the contexts under which m was analyzed.
func (r *Result) MCtxsOf(m *ir.Method) []*MCtx { return r.mctxsOf[m] }

// PointsToIn returns the points-to set of reg in a specific method
// context (empty for untracked or non-reference registers).
func (r *Result) PointsToIn(reg *ir.Reg, mc *MCtx) []*Object {
	var out []*Object
	r.setIn(reg, mc).forEach(func(id int) { out = append(out, r.objects[id]) })
	return out
}

// PointsToSetIn returns the points-to set of reg in context mc (empty
// for untracked or non-reference registers). It is the allocation-free
// variant of PointsToIn for callers that only test or list IDs, like
// the SDG build's heap-access pairing.
func (r *Result) PointsToSetIn(reg *ir.Reg, mc *MCtx) Set {
	return Set{r.setIn(reg, mc)}
}

// CalleesAt returns the callee contexts of a call site as invoked from
// a specific caller context.
func (r *Result) CalleesAt(call *ir.Call, caller *MCtx) []*MCtx {
	i := call.ID() - caller.first
	if uint(i) >= uint(len(caller.slots)) || caller.slots[i].calls == 0 {
		return nil
	}
	return r.callees[caller.slots[i].calls-1]
}

// Objects returns all abstract objects, in creation order.
func (r *Result) Objects() []*Object { return r.objects }

// NumCGNodes returns the number of call-graph nodes (method-context
// pairs); with cloning this exceeds the number of distinct methods,
// matching Table 1's "call graph nodes" metric.
func (r *Result) NumCGNodes() int { return len(r.mctxs) }

// ReachableMethods returns the distinct methods discovered during
// on-the-fly call graph construction, in deterministic order.
func (r *Result) ReachableMethods() []*ir.Method {
	ms := make([]*ir.Method, 0)
	for _, mc := range r.mctxs {
		if r.mctxsOf[mc.Method][0] == mc {
			ms = append(ms, mc.Method)
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// Reachable reports whether m was discovered by the analysis.
func (r *Result) Reachable(m *ir.Method) bool { return len(r.mctxsOf[m]) > 0 }

// Entries returns the root methods used.
func (r *Result) Entries() []*ir.Method { return r.entries }

// PointsTo returns the context-insensitive projection of the points-to
// set of reg: the union over all analyzed contexts.
func (r *Result) PointsTo(reg *ir.Reg) []*Object {
	var out []*Object
	r.union(reg).forEach(func(id int) { out = append(out, r.objects[id]) })
	return out
}

// MayAlias reports whether two registers may point to a common object.
func (r *Result) MayAlias(a, b *ir.Reg) bool {
	return r.union(a).intersects(r.union(b))
}

// Callees returns the possible concrete targets of a call site,
// context-insensitively, in deterministic order: the methods of its
// callee contexts under every context of its method.
func (r *Result) Callees(call *ir.Call) []*ir.Method {
	ms := make([]*ir.Method, 0)
	if call.Block() == nil {
		return ms
	}
	for _, mc := range r.mctxsOf[call.Block().Method] {
		for _, callee := range r.CalleesAt(call, mc) {
			if !slices.Contains(ms, callee.Method) {
				ms = append(ms, callee.Method)
			}
		}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// CastCheckable reports whether the points-to analysis verifies that a
// cast cannot fail: every object in pts(src) is compatible with the
// target type. A cast with a non-empty points-to set that is not
// checkable is a "tough cast" candidate (paper §6.3).
func (r *Result) CastCheckable(c *ir.Cast) (verified bool, nonEmpty bool) {
	objs := r.PointsTo(c.Src)
	if len(objs) == 0 {
		return true, false
	}
	for _, o := range objs {
		if !objCompatible(o, c.Target) {
			return false, true
		}
	}
	return true, true
}

// CompatibleWith reports whether the object's dynamic type conforms to
// t: a cast of a reference pointing (only) to compatible objects cannot
// fail. Exported for client analyses (the checker suite).
func (o *Object) CompatibleWith(t types.Type) bool { return objCompatible(o, t) }

func objCompatible(o *Object, t types.Type) bool {
	switch t := t.(type) {
	case *types.Class:
		return o.Class != nil && o.Class.IsSubclassOf(t.Info)
	case *types.Array:
		return o.IsArray()
	}
	return false
}

// --- solver internals ---

type loadCon struct {
	field *types.FieldInfo // nil for array elements
	dst   *node
}

type storeCon struct {
	field *types.FieldInfo
	src   *node
}

type callCon struct {
	call   *ir.Call
	caller *MCtx
}

// node is one constraint-graph variable. Nodes are slab-allocated by
// the solver and unified by union-find when cycle elimination collapses
// a strongly connected component of copy edges: after a collapse only
// the representative's fields are live, and every access goes through
// solver.find.
type node struct {
	id       int32
	inWork   bool
	pts      bitset
	frontier bitset // bits not yet propagated
	succs    []*node
	loads    []loadCon
	stores   []storeCon
	calls    []callCon
	filters  []*filter
}

type objFieldKey struct {
	obj   *Object
	field *types.FieldInfo // nil = array elements
}

type objKey struct {
	site ir.Instr
	ctx  *Object
}

type mctxKey struct {
	m   *ir.Method
	ctx *Object
}

type solver struct {
	prog     *ir.Program
	res      *Result
	maxDepth int

	containers map[string]bool
	nodes      []*node
	fieldNodes map[objFieldKey]*node
	staticNode map[*types.FieldInfo]*node
	objects    map[objKey]*Object
	mctxs      map[mctxKey]*MCtx
	// rets holds, per context ID, the reference-typed values its method
	// returns, gathered once per method and shared by its contexts.
	rets [][]*ir.Reg
	work []*node

	// Slab allocation: nodes, objects and context slots are carved out
	// of fixed-size chunks so building the constraint graph costs one
	// allocation per slab instead of one per node, and neighbors stay
	// cache-adjacent.
	nodeSlab []node
	objSlab  []Object
	slots    slotSlab

	// Union-find over node IDs for cycle elimination. parent[i] == i
	// marks a representative. edgeSet dedups copy edges by packed
	// (from, to) representative IDs, replacing a per-node successor map.
	cycleElim  bool
	parent     []int32
	edgeSet    map[uint64]struct{}
	edgesSince int // copy edges added since the last SCC sweep

	// diffScratch backs orDiff's result. Both call sites copy the diff
	// into the target's frontier before the next orDiff call, so one
	// buffer serves the whole solve instead of one allocation per
	// propagation step.
	diffScratch bitset

	meter *budget.Meter
	// stop is the sticky budget violation that ended the run early.
	stop error
}

// findID returns the representative ID of i, with path halving.
func (s *solver) findID(i int32) int32 {
	for s.parent[i] != i {
		s.parent[i] = s.parent[s.parent[i]]
		i = s.parent[i]
	}
	return i
}

// find returns the live representative of n.
func (s *solver) find(n *node) *node {
	if s.parent[n.id] == n.id {
		return n
	}
	return s.nodes[s.findID(n.id)]
}

// tick spends one budget step; once it fails the solver stops
// generating constraints and drains no further work.
func (s *solver) tick() bool {
	if s.stop != nil {
		return false
	}
	if err := s.meter.Tick(); err != nil {
		s.stop = err
		return false
	}
	return true
}

// Analyze runs the pointer analysis over prog under cfg.Budget.
//
// Degradation ladder: a canceled context or passed deadline aborts with
// a typed *budget.ErrCanceled. An exhausted step cap first downgrades —
// when object-sensitive cloning is on, the solver restarts
// context-insensitively with a fresh allowance and marks the result
// Downgraded — and only if that run also exhausts does Analyze return
// the partial fixpoint marked Truncated (with a nil error): callers get
// a sound-but-incomplete call graph rather than a hang or a crash.
func Analyze(prog *ir.Program, cfg Config) (*Result, error) {
	res := run(prog, cfg)
	stop := res.LimitErr
	if stop == nil {
		return res, nil
	}
	if budget.IsCanceled(stop) {
		return nil, stop
	}
	if cfg.ObjSensContainers {
		cfg2 := cfg
		cfg2.ObjSensContainers = false
		res2 := run(prog, cfg2)
		res2.Downgraded = true
		switch {
		case res2.LimitErr == nil:
			return res2, nil
		case budget.IsCanceled(res2.LimitErr):
			return nil, res2.LimitErr
		}
		res2.Truncated = true
		return res2, nil
	}
	res.Truncated = true
	return res, nil
}

// newSolver builds an initialized solver.
func newSolver(prog *ir.Program, cfg Config) *solver {
	// edgeSet scales with program size: presizing it from the
	// instruction count avoids its incremental rehashes (it grows to a
	// few entries per instruction on the larger corpora).
	s := &solver{
		prog:       prog,
		maxDepth:   cfg.MaxCtxDepth,
		containers: make(map[string]bool),
		fieldNodes: make(map[objFieldKey]*node),
		staticNode: make(map[*types.FieldInfo]*node),
		objects:    make(map[objKey]*Object),
		mctxs:      make(map[mctxKey]*MCtx),
		cycleElim:  !cfg.NoCycleElim,
		edgeSet:    make(map[uint64]struct{}, 2*prog.NumInstrs),
		meter:      cfg.Budget.Phase(budget.PhasePointsTo),
	}
	if s.maxDepth == 0 {
		s.maxDepth = 3
	}
	if cfg.ObjSensContainers {
		for _, c := range cfg.ContainerClasses {
			s.containers[c] = true
		}
	}
	s.res = &Result{prog: prog, mctxsOf: make(map[*ir.Method][]*MCtx)}
	return s
}

// defaultEntries resolves the configured entry methods against prog.
func defaultEntries(prog *ir.Program, cfg Config) []*ir.Method {
	entries := cfg.Entries
	if len(entries) == 0 {
		for _, m := range prog.Methods {
			if m.Sig.Static && m.Sig.Name == "main" {
				entries = append(entries, m)
			}
		}
	}
	if len(entries) == 0 {
		entries = prog.Methods
	}
	return entries
}

// finish drains nothing further: it records the stop state, moves the
// final sets out of the constraint graph, and canonicalizes complete
// fixpoints.
func (s *solver) finish() *Result {
	s.res.LimitErr = s.stop
	s.keepSets()
	if s.stop == nil {
		s.canonicalize()
	}
	return s.res
}

// keepSets gives the Result the points-to sets of its variable nodes'
// representatives, one set per representative, and rewrites the slots
// and extra entries from node IDs to set indexes. An empty set becomes
// no set, as the query API cannot tell the two apart. The Result then
// holds nothing of the constraint graph.
func (s *solver) keepSets() {
	s.res.sets = make([]bitset, 0, s.res.numVarSets()) // at most one set per slot or entry
	setOf := make([]int32, len(s.nodes))               // representative ID → set index + 1, or -1 when empty
	keep := func(nodePlus1 int32) int32 {
		rep := s.findID(nodePlus1 - 1)
		if setOf[rep] == 0 {
			setOf[rep] = -1
			if pts := s.nodes[rep].pts; !pts.empty() {
				s.res.sets = append(s.res.sets, pts)
				setOf[rep] = int32(len(s.res.sets))
			}
		}
		return max(setOf[rep], 0)
	}
	for _, mc := range s.res.mctxs {
		for i := range mc.slots {
			if v := mc.slots[i].v; v != 0 {
				mc.slots[i].v = keep(v)
			}
		}
	}
	for reg, list := range s.res.extra { //determinism:ok set numbering is internal; no query or encoding reads it
		kept := list[:0]
		for _, e := range list {
			if v := keep(e.v + 1); v != 0 {
				kept = append(kept, extraVar{e.mc, v - 1})
			}
		}
		if len(kept) == 0 {
			delete(s.res.extra, reg)
			continue
		}
		s.res.extra[reg] = kept
	}
}

// run performs one solver pass; budget violations are left in the
// result's LimitErr for Analyze to interpret.
func run(prog *ir.Program, cfg Config) *Result {
	s := newSolver(prog, cfg)
	entries := defaultEntries(prog, cfg)
	s.res.entries = entries
	for _, m := range entries {
		s.reach(m, nil)
	}
	s.solve()
	return s.finish()
}

func isRefType(t types.Type) bool { return types.IsRef(t) }

// nodeSlabSize and objSlabSize are the slab-allocation chunk sizes.
// Slabs are never reallocated once handed out, so node and Object
// pointers stay stable for the lifetime of the result.
const (
	nodeSlabSize = 256
	objSlabSize  = 128
	slotSlabSize = 4096
)

func (s *solver) newNode() *node {
	if len(s.nodeSlab) == cap(s.nodeSlab) {
		s.nodeSlab = make([]node, 0, nodeSlabSize)
	}
	s.nodeSlab = append(s.nodeSlab, node{id: int32(len(s.nodes))})
	n := &s.nodeSlab[len(s.nodeSlab)-1]
	s.nodes = append(s.nodes, n)
	s.parent = append(s.parent, n.id)
	return n
}

// varNode returns the node of reg in context mc: the node in the slot
// of reg's defining instruction, or for a register without a definition
// in mc's method body, the node in the extra map.
func (s *solver) varNode(reg *ir.Reg, mc *MCtx) *node {
	if i := s.res.slotOf(reg, mc); i >= 0 {
		sl := &mc.slots[i]
		if sl.v != 0 {
			return s.find(s.nodes[sl.v-1])
		}
		n := s.newNode()
		sl.v = n.id + 1
		return n
	}
	list := s.res.extra[reg]
	for _, e := range list {
		if e.mc == mc {
			return s.find(s.nodes[e.v])
		}
	}
	n := s.newNode()
	if s.res.extra == nil {
		s.res.extra = make(map[*ir.Reg][]extraVar)
	}
	s.res.extra[reg] = append(list, extraVar{mc, n.id})
	return n
}

func (s *solver) fieldNode(o *Object, f *types.FieldInfo) *node {
	k := objFieldKey{o, f}
	if n, ok := s.fieldNodes[k]; ok {
		return s.find(n)
	}
	n := s.newNode()
	s.fieldNodes[k] = n
	return n
}

func (s *solver) staticFieldNode(f *types.FieldInfo) *node {
	if n, ok := s.staticNode[f]; ok {
		return s.find(n)
	}
	n := s.newNode()
	s.staticNode[f] = n
	return n
}

func (s *solver) object(site ir.Instr, ctx *Object, class *types.ClassInfo, elem types.Type) *Object {
	// Truncate over-deep contexts to keep the abstraction finite.
	depth := 0
	if ctx != nil {
		depth = ctx.depth + 1
	}
	if depth > s.maxDepth {
		ctx = nil
		depth = 0
	}
	k := objKey{site, ctx}
	if o, ok := s.objects[k]; ok {
		return o
	}
	if len(s.objSlab) == cap(s.objSlab) {
		s.objSlab = make([]Object, 0, objSlabSize)
	}
	s.objSlab = append(s.objSlab, Object{ID: len(s.res.objects), Site: site, Ctx: ctx, Class: class, Elem: elem, depth: depth})
	o := &s.objSlab[len(s.objSlab)-1]
	s.objects[k] = o
	s.res.objects = append(s.res.objects, o)
	return o
}

func (s *solver) mctx(m *ir.Method, ctx *Object) (*MCtx, bool) {
	k := mctxKey{m, ctx}
	if mc, ok := s.mctxs[k]; ok {
		return mc, false
	}
	mc := &MCtx{ID: len(s.res.mctxs), Method: m, Ctx: ctx}
	others := s.res.mctxsOf[m]
	if len(others) > 0 {
		mc.first, mc.slots = others[0].first, s.slots.take(len(others[0].slots))
		s.rets = append(s.rets, s.rets[others[0].ID])
	} else {
		first, n := span(m)
		mc.first, mc.slots = first, s.slots.take(n)
		var rets []*ir.Reg
		m.Instrs(func(ins ir.Instr) {
			if ret, ok := ins.(*ir.Return); ok && ret.Val != nil && isRefType(ret.Val.Typ) {
				rets = append(rets, ret.Val)
			}
		})
		s.rets = append(s.rets, rets)
	}
	s.mctxs[k] = mc
	s.res.mctxs = append(s.res.mctxs, mc)
	s.res.mctxsOf[m] = append(others, mc)
	return mc, true
}

func (s *solver) push(n *node) {
	if !n.inWork {
		n.inWork = true
		s.work = append(s.work, n)
	}
}

func (s *solver) addObj(n *node, o *Object) {
	n = s.find(n)
	if n.pts.add(o.ID) {
		n.frontier.add(o.ID)
		s.push(n)
	}
}

func edgeKey(from, to int32) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

func (s *solver) addEdge(from, to *node) {
	from, to = s.find(from), s.find(to)
	if from == to {
		return
	}
	key := edgeKey(from.id, to.id)
	if _, ok := s.edgeSet[key]; ok {
		return
	}
	s.edgeSet[key] = struct{}{}
	from.succs = append(from.succs, to)
	s.edgesSince++
	if diff := s.orDiff(&to.pts, from.pts); !diff.empty() {
		to.frontier.or(diff)
		s.push(to)
	}
}

// reach ensures (m, ctx) is a call graph node and its constraints are
// generated; returns the node.
func (s *solver) reach(m *ir.Method, ctx *Object) *MCtx {
	mc, fresh := s.mctx(m, ctx)
	if fresh {
		s.processBody(mc)
	}
	return mc
}

// calleeCtx decides the analysis context for a target method given the
// receiver object.
func (s *solver) calleeCtx(target *ir.Method, recv *Object) *Object {
	if recv != nil && s.containers[target.Sig.Owner.Name] {
		return recv
	}
	return nil
}

// heapCtx is the cloning context for allocation sites in mc.
func (s *solver) heapCtx(mc *MCtx) *Object { return mc.Ctx }

func (s *solver) processBody(mc *MCtx) {
	strClass := s.prog.Info.String
	mc.Method.Instrs(func(ins ir.Instr) {
		if !s.tick() {
			return
		}
		switch ins := ins.(type) {
		case *ir.New:
			o := s.object(ins, s.heapCtx(mc), ins.Class, nil)
			s.addObj(s.varNode(ins.Dst, mc), o)
		case *ir.NewArray:
			o := s.object(ins, s.heapCtx(mc), nil, ins.Elem)
			s.addObj(s.varNode(ins.Dst, mc), o)
		case *ir.ConstStr:
			o := s.object(ins, s.heapCtx(mc), strClass, nil)
			s.addObj(s.varNode(ins.Dst, mc), o)
		case *ir.StrOp:
			if isRefType(ins.Dst.Typ) {
				o := s.object(ins, s.heapCtx(mc), strClass, nil)
				s.addObj(s.varNode(ins.Dst, mc), o)
			}
		case *ir.Input:
			if !ins.IsInt {
				o := s.object(ins, s.heapCtx(mc), strClass, nil)
				s.addObj(s.varNode(ins.Dst, mc), o)
			}
		case *ir.Copy:
			if isRefType(ins.Src.Typ) {
				s.addEdge(s.varNode(ins.Src, mc), s.varNode(ins.Dst, mc))
			}
		case *ir.Cast:
			if isRefType(ins.Dst.Typ) && isRefType(ins.Src.Typ) {
				// Filtered edge: model checkcast by registering a
				// load-like constraint that copies only compatible
				// objects. Implemented as a direct edge plus filter in
				// propagation would complicate the solver; instead use
				// a dedicated filter node pattern: connect src -> dst
				// and rely on the filter at propagation time.
				s.addFilteredEdge(s.varNode(ins.Src, mc), s.varNode(ins.Dst, mc), ins.Target)
			}
		case *ir.Phi:
			if isRefType(ins.Dst.Typ) || anyRef(ins.Edges) {
				dst := s.varNode(ins.Dst, mc)
				for _, e := range ins.Edges {
					s.addEdge(s.varNode(e, mc), dst)
				}
			}
		case *ir.GetField:
			if isRefType(ins.Dst.Typ) {
				base := s.varNode(ins.Obj, mc)
				base.loads = append(base.loads, loadCon{ins.Field, s.varNode(ins.Dst, mc)})
				s.replayObjects(base)
			}
		case *ir.SetField:
			if isRefType(ins.Val.Typ) {
				base := s.varNode(ins.Obj, mc)
				base.stores = append(base.stores, storeCon{ins.Field, s.varNode(ins.Val, mc)})
				s.replayObjects(base)
			}
		case *ir.GetStatic:
			if isRefType(ins.Dst.Typ) {
				s.addEdge(s.staticFieldNode(ins.Field), s.varNode(ins.Dst, mc))
			}
		case *ir.SetStatic:
			if isRefType(ins.Val.Typ) {
				s.addEdge(s.varNode(ins.Val, mc), s.staticFieldNode(ins.Field))
			}
		case *ir.ArrayLoad:
			if isRefType(ins.Dst.Typ) {
				base := s.varNode(ins.Arr, mc)
				base.loads = append(base.loads, loadCon{nil, s.varNode(ins.Dst, mc)})
				s.replayObjects(base)
			}
		case *ir.ArrayStore:
			if isRefType(ins.Val.Typ) {
				base := s.varNode(ins.Arr, mc)
				base.stores = append(base.stores, storeCon{nil, s.varNode(ins.Val, mc)})
				s.replayObjects(base)
			}
		case *ir.Call:
			s.processCall(mc, ins)
		}
	})
}

func anyRef(regs []*ir.Reg) bool {
	for _, r := range regs {
		if isRefType(r.Typ) {
			return true
		}
	}
	return false
}

// addFilteredEdge adds a subset edge that only lets objects compatible
// with t through (checkcast semantics, as in WALA's cast handling).
func (s *solver) addFilteredEdge(from, to *node, t types.Type) {
	from.filters = append(from.filters, &filter{dst: to, typ: t})
	s.replayObjects(from)
}

type filter struct {
	dst *node
	typ types.Type
}

func (s *solver) processCall(mc *MCtx, call *ir.Call) {
	switch call.Mode {
	case ir.CallStatic:
		target := s.prog.MethodOf[call.Callee]
		if target == nil {
			return
		}
		callee := s.reach(target, nil)
		s.linkCall(mc, call, callee, nil)
	case ir.CallVirtual, ir.CallCtor:
		recv := s.varNode(call.Recv, mc)
		recv.calls = append(recv.calls, callCon{call: call, caller: mc})
		s.replayObjects(recv)
	}
}

// replayObjects re-applies complex constraints for objects already in a
// node's points-to set (needed when constraints are registered after
// propagation began).
func (s *solver) replayObjects(n *node) {
	n = s.find(n)
	if !n.pts.empty() {
		// Move everything back into the frontier so the new constraint
		// sees all known objects.
		n.frontier.or(n.pts)
		s.push(n)
	}
}

// linkCall connects a call site in (caller) to callee with the given
// receiver object (nil for static calls).
func (s *solver) linkCall(caller *MCtx, call *ir.Call, callee *MCtx, recvObj *Object) {
	sl := &caller.slots[call.ID()-caller.first]
	var list []*MCtx
	if sl.calls != 0 {
		list = s.res.callees[sl.calls-1]
	}
	if slices.Contains(list, callee) {
		if recvObj != nil {
			// Still need to flow this receiver object into the formal.
			s.flowReceiver(callee, recvObj)
		}
		return
	}
	if sl.calls == 0 {
		s.res.callees = append(s.res.callees, nil)
		sl.calls = int32(len(s.res.callees))
	}
	s.res.callees[sl.calls-1] = append(list, callee)

	params := callee.Method.Params
	offset := 0
	if !callee.Method.Sig.Static {
		offset = 1
		if recvObj != nil {
			s.flowReceiver(callee, recvObj)
		}
	}
	for i, arg := range call.Args {
		if i+offset >= len(params) {
			break
		}
		formal := params[i+offset]
		if isRefType(arg.Typ) && isRefType(formal.Dst.Typ) {
			s.addEdge(s.varNode(arg, caller), s.varNode(formal.Dst, callee))
		}
	}
	if call.Dst != nil && isRefType(call.Dst.Typ) {
		dst := s.varNode(call.Dst, caller)
		for _, ret := range s.rets[callee.ID] {
			s.addEdge(s.varNode(ret, callee), dst)
		}
	}
}

func (s *solver) flowReceiver(callee *MCtx, recvObj *Object) {
	if callee.Method.Sig.Static || len(callee.Method.Params) == 0 {
		return
	}
	thisFormal := callee.Method.Params[0]
	s.addObj(s.varNode(thisFormal.Dst, callee), recvObj)
}

// sweepEveryOverride, when positive, forces a sweep after that many
// new copy edges regardless of graph size (test hook: small programs
// never reach the proportional threshold, and the equivalence sweeps
// must still exercise the collapse path).
var sweepEveryOverride int

// sweepThreshold is the number of new copy edges that triggers an SCC
// sweep: proportional to the graph so sweep cost (O(V+E)) amortizes.
func (s *solver) sweepThreshold() int {
	if sweepEveryOverride > 0 {
		return sweepEveryOverride
	}
	if t := len(s.nodes); t > 256 {
		return t
	}
	return 256
}

func (s *solver) solve() {
	for len(s.work) > 0 {
		if !s.tick() {
			return
		}
		if s.cycleElim && s.edgesSince >= s.sweepThreshold() {
			s.edgesSince = 0
			s.collapseCycles()
		}
		n := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		n.inWork = false
		if s.find(n) != n {
			continue // collapsed into a representative that owns its frontier
		}
		delta := n.frontier
		n.frontier = bitset{}
		if delta.empty() {
			continue
		}
		// Apply complex constraints for each new object.
		delta.forEach(func(id int) {
			if !s.tick() {
				return
			}
			o := s.res.objects[id]
			for _, lc := range n.loads {
				if lc.field == nil && !o.IsArray() {
					continue
				}
				if lc.field != nil && (o.Class == nil || !o.Class.IsSubclassOf(lc.field.Owner)) {
					// Field loads only apply to objects whose class
					// actually declares or inherits the field.
					continue
				}
				s.addEdge(s.fieldNode(o, lc.field), lc.dst)
			}
			for _, sc := range n.stores {
				if sc.field == nil && !o.IsArray() {
					continue
				}
				if sc.field != nil && (o.Class == nil || !o.Class.IsSubclassOf(sc.field.Owner)) {
					continue
				}
				s.addEdge(sc.src, s.fieldNode(o, sc.field))
			}
			for _, f := range n.filters {
				if objCompatible(o, f.typ) {
					s.addObj(f.dst, o)
				}
			}
			for _, cc := range n.calls {
				s.dispatch(cc, o)
			}
		})
		// Propagate along copy edges.
		for _, succ := range n.succs {
			succ = s.find(succ)
			if succ == n {
				continue
			}
			if diff := s.orDiff(&succ.pts, delta); !diff.empty() {
				succ.frontier.or(diff)
				s.push(succ)
			}
		}
	}
}

// collapseCycles runs one Nuutila/HCD-style sweep: an iterative Tarjan
// SCC pass over the current copy-edge graph (successors resolved
// through union-find), then collapses every multi-node component into
// its minimum-ID member. Components are collected first and collapsed
// after the pass, so detection runs over a stable graph. Deterministic:
// roots are visited in node-ID order and successor lists keep insertion
// order.
func (s *solver) collapseCycles() {
	if !s.tick() {
		return
	}
	n := len(s.nodes)
	index := make([]int32, n) // 0 = unvisited, else discovery index+1
	low := make([]int32, n)
	onStack := make([]bool, n)
	var (
		sccStack []int32
		comps    [][]int32
		idx      int32
	)
	type frame struct {
		v  int32
		si int
	}
	var dfs []frame
	for root := 0; root < n; root++ {
		v := int32(root)
		if s.parent[v] != v || index[v] != 0 {
			continue
		}
		idx++
		index[v], low[v] = idx, idx
		sccStack = append(sccStack, v)
		onStack[v] = true
		dfs = append(dfs[:0], frame{v, 0})
		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			nd := s.nodes[f.v]
			if f.si < len(nd.succs) {
				w := s.findID(nd.succs[f.si].id)
				f.si++
				switch {
				case w == f.v:
					// self edge after earlier collapses
				case index[w] == 0:
					idx++
					index[w], low[w] = idx, idx
					sccStack = append(sccStack, w)
					onStack[w] = true
					dfs = append(dfs, frame{w, 0})
				case onStack[w] && index[w] < low[f.v]:
					low[f.v] = index[w]
				}
				continue
			}
			if low[f.v] == index[f.v] {
				var comp []int32
				for {
					w := sccStack[len(sccStack)-1]
					sccStack = sccStack[:len(sccStack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				if len(comp) > 1 {
					comps = append(comps, comp)
				}
			}
			child := f.v
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := &dfs[len(dfs)-1]
				if low[child] < low[p.v] {
					low[p.v] = low[child]
				}
			}
		}
	}
	for _, comp := range comps {
		s.collapse(comp)
	}
}

// collapse unifies one SCC into its minimum-ID member: points-to sets
// and constraint lists merge onto the representative, successor lists
// are rewritten through union-find with internal edges dropped, and the
// representative replays its full set so constraints that members had
// not yet processed fire exactly once (idempotent adds make the replay
// safe).
func (s *solver) collapse(comp []int32) {
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	rep := comp[0]
	rn := s.nodes[rep]
	for _, id := range comp[1:] {
		m := s.nodes[id]
		s.parent[id] = rep
		rn.pts.or(m.pts)
		rn.succs = append(rn.succs, m.succs...)
		rn.loads = append(rn.loads, m.loads...)
		rn.stores = append(rn.stores, m.stores...)
		rn.calls = append(rn.calls, m.calls...)
		rn.filters = append(rn.filters, m.filters...)
		m.pts, m.frontier, m.succs = bitset{}, bitset{}, nil
		m.loads, m.stores, m.calls, m.filters = nil, nil, nil, nil
		s.res.Collapsed++
	}
	// Rewrite successors through find, dropping internal and duplicate
	// edges, and register the surviving keys so later addEdge calls
	// dedup against representative IDs.
	out := rn.succs[:0]
	seen := make(map[int32]bool, len(rn.succs))
	for _, sc := range rn.succs {
		t := s.findID(sc.id)
		if t == rep || seen[t] {
			continue
		}
		seen[t] = true
		s.edgeSet[edgeKey(rep, t)] = struct{}{}
		out = append(out, s.nodes[t])
	}
	rn.succs = out
	if !rn.pts.empty() {
		rn.frontier = bitset{}
		rn.frontier.or(rn.pts)
		s.push(rn)
	}
}

func (s *solver) dispatch(cc callCon, o *Object) {
	call := cc.call
	var targetSig *types.MethodInfo
	if call.Mode == ir.CallCtor {
		targetSig = call.Callee
	} else {
		if o.Class == nil {
			return // arrays have no methods
		}
		targetSig = o.Class.LookupMethod(call.Callee.Name)
		if targetSig == nil {
			return
		}
	}
	target := s.prog.MethodOf[targetSig]
	if target == nil {
		return
	}
	ctx := s.calleeCtx(target, o)
	callee := s.reach(target, ctx)
	s.linkCall(cc.caller, call, callee, o)
}

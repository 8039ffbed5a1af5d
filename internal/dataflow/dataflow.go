// Package dataflow is an IFDS-style interprocedural finite
// distributive subset solver (Reps–Horwitz–Sagiv tabulation) over an
// exploded supergraph derived from the SSA IR, the points-to-resolved
// call edges, and the CHA call graph. Where the slicers answer "which
// producer statements can this value come from", the dataflow engine
// answers "which facts hold before this statement instance" — flow-
// and context-sensitively, with summary edges per (callee, entry fact)
// making re-analysis of a procedure under the same entry fact free.
//
// The node space is borrowed from the dependence graph: a supergraph
// node is an sdg.Node, i.e. an (instruction, call-graph context) pair,
// so dataflow facts, slice membership, and witness chains all speak
// the same coordinates. Control-flow successors come from the IR block
// structure; interprocedural edges from pointsto.CalleesAt, falling
// back to the CHA cone when a truncated points-to result has no edge
// for a reachable call site.
//
// The solver is budgeted (budget.PhaseDataflow): exhaustion or
// cancellation mid-solve yields a typed Truncated partial whose facts
// are all genuine (the tabulation is monotone), never a panic or a
// wrong answer. Truncated results are never cached by sessions.
//
// Every (node, fact) pair records the edge that first discovered it,
// so Trace reconstructs a witness path — the same thin-slice-style
// step chains checker findings already carry.
package dataflow

import (
	"fmt"
	"sync"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
)

// Fact identifies one dataflow fact in a problem's domain. Facts are
// interned by the engine's Facts table; Zero is the distinguished
// "reachable at all" fact present in every domain.
type Fact int32

// Zero is the IFDS zero fact Λ: it holds at every reachable program
// point and is the source of every gen edge.
const Zero Fact = 0

// FactKind classifies a fact descriptor. The vocabulary is fixed so
// results can be encoded and decoded independent of the problem that
// produced them: SSA registers, abstract heap locations (field,
// array-element, and array-length cells of a points-to object),
// per-object typestate, and static fields.
type FactKind uint8

// Fact kinds.
const (
	KindZero     FactKind = iota // the zero fact
	KindReg                      // an SSA register holds the property
	KindObjField                 // field cell of an abstract object
	KindObjElem                  // element cell of an abstract array
	KindObjLen                   // length cell of an abstract array
	KindObjState                 // abstract object is in a protocol state
	KindStatic                   // a static field cell
)

func (k FactKind) String() string {
	switch k {
	case KindZero:
		return "zero"
	case KindReg:
		return "reg"
	case KindObjField:
		return "objfield"
	case KindObjElem:
		return "objelem"
	case KindObjLen:
		return "objlen"
	case KindObjState:
		return "objstate"
	case KindStatic:
		return "static"
	}
	return "?"
}

// FactDesc is the structural identity of a fact.
type FactDesc struct {
	Kind  FactKind
	Reg   *ir.Reg          // KindReg
	Obj   *pointsto.Object // KindObjField, KindObjElem, KindObjLen, KindObjState
	Field *types.FieldInfo // KindObjField, KindStatic
	State uint8            // KindObjState: problem-defined protocol state
}

// Global reports whether the fact names a location that outlives any
// stack frame — heap cells, typestate, and statics. Global facts cross
// call, return, and call-to-return edges unchanged in the stock
// problems (all of which are gen-only for globals, so the double
// routing can never disagree with itself).
func (d FactDesc) Global() bool {
	switch d.Kind {
	case KindObjField, KindObjElem, KindObjLen, KindObjState, KindStatic:
		return true
	}
	return false
}

func (d FactDesc) String() string {
	switch d.Kind {
	case KindZero:
		return "Λ"
	case KindReg:
		return fmt.Sprintf("reg %s", d.Reg)
	case KindObjField:
		return fmt.Sprintf("%s.%s", d.Obj, d.Field.QualifiedName())
	case KindObjElem:
		return fmt.Sprintf("%s[*]", d.Obj)
	case KindObjLen:
		return fmt.Sprintf("%s.length", d.Obj)
	case KindObjState:
		return fmt.Sprintf("%s@state%d", d.Obj, d.State)
	case KindStatic:
		return fmt.Sprintf("static %s", d.Field.QualifiedName())
	}
	return "?"
}

type objFieldKey struct {
	obj   int
	field *types.FieldInfo
}

type objTagKey struct {
	obj   int
	kind  FactKind
	state uint8
}

// Facts interns fact descriptors into dense Fact IDs. IDs are assigned
// in first-request order, which is deterministic because the solver's
// evaluation order is.
type Facts struct {
	descs    []FactDesc
	regs     map[*ir.Reg]Fact
	objField map[objFieldKey]Fact
	objTag   map[objTagKey]Fact
	statics  map[*types.FieldInfo]Fact
}

// NewFacts returns a table holding only the zero fact.
func NewFacts() *Facts {
	return &Facts{
		descs:    []FactDesc{{Kind: KindZero}},
		regs:     make(map[*ir.Reg]Fact),
		objField: make(map[objFieldKey]Fact),
		objTag:   make(map[objTagKey]Fact),
		statics:  make(map[*types.FieldInfo]Fact),
	}
}

// NumFacts returns the number of interned facts (zero included).
func (f *Facts) NumFacts() int { return len(f.descs) }

// Desc returns the descriptor of d.
func (f *Facts) Desc(d Fact) FactDesc { return f.descs[d] }

func (f *Facts) intern(desc FactDesc) Fact {
	f.descs = append(f.descs, desc)
	return Fact(len(f.descs) - 1)
}

// Reg interns the fact "register r holds the property".
func (f *Facts) Reg(r *ir.Reg) Fact {
	if d, ok := f.regs[r]; ok {
		return d
	}
	d := f.intern(FactDesc{Kind: KindReg, Reg: r})
	f.regs[r] = d
	return d
}

// ObjField interns the fact for the (object, field) heap cell.
func (f *Facts) ObjField(o *pointsto.Object, fld *types.FieldInfo) Fact {
	k := objFieldKey{o.ID, fld}
	if d, ok := f.objField[k]; ok {
		return d
	}
	d := f.intern(FactDesc{Kind: KindObjField, Obj: o, Field: fld})
	f.objField[k] = d
	return d
}

// ObjElem interns the fact for the element cell of array object o.
func (f *Facts) ObjElem(o *pointsto.Object) Fact { return f.objTagFact(o, KindObjElem, 0) }

// ObjLen interns the fact for the length cell of array object o.
func (f *Facts) ObjLen(o *pointsto.Object) Fact { return f.objTagFact(o, KindObjLen, 0) }

// ObjState interns the fact "object o is in protocol state s".
func (f *Facts) ObjState(o *pointsto.Object, s uint8) Fact { return f.objTagFact(o, KindObjState, s) }

func (f *Facts) objTagFact(o *pointsto.Object, kind FactKind, state uint8) Fact {
	k := objTagKey{o.ID, kind, state}
	if d, ok := f.objTag[k]; ok {
		return d
	}
	d := f.intern(FactDesc{Kind: kind, Obj: o, State: state})
	f.objTag[k] = d
	return d
}

// Lookup returns the interned fact matching desc without interning a
// new one; Zero doubles as "not present" for non-zero descriptors (an
// un-interned fact cannot hold anywhere).
func (f *Facts) Lookup(desc FactDesc) Fact {
	switch desc.Kind {
	case KindReg:
		return f.regs[desc.Reg]
	case KindObjField:
		return f.objField[objFieldKey{desc.Obj.ID, desc.Field}]
	case KindObjElem, KindObjLen, KindObjState:
		st := desc.State
		if desc.Kind != KindObjState {
			st = 0
		}
		return f.objTag[objTagKey{desc.Obj.ID, desc.Kind, st}]
	case KindStatic:
		return f.statics[desc.Field]
	}
	return Zero
}

// Static interns the fact for a static field cell.
func (f *Facts) Static(fld *types.FieldInfo) Fact {
	if d, ok := f.statics[fld]; ok {
		return d
	}
	d := f.intern(FactDesc{Kind: KindStatic, Field: fld})
	f.statics[fld] = d
	return d
}

// Problem defines one IFDS client analysis: a distributive subset
// problem given fact-by-fact as flow functions over supergraph edges.
// Flow functions append the complete successor set of d to dst and
// return it — identity is NOT implicit; a fact not appended is killed.
// The zero fact must always survive (append it back), and gen edges
// originate from it. Implementations must be deterministic and must
// not retain dst.
type Problem interface {
	// Name is the stable problem identifier, part of the artifact key.
	Name() string
	// ConfigKey captures any configuration that shapes the flow
	// functions (e.g. the taint source set); two problems with equal
	// Name and ConfigKey must compute identical results.
	ConfigKey() string
	// Normal maps fact d holding before ins (in context mc) to the
	// facts holding before ins's intraprocedural successors.
	Normal(env *Env, mc *pointsto.MCtx, ins ir.Instr, d Fact, dst []Fact) []Fact
	// Call maps fact d holding before a call (in the caller's context)
	// to the facts holding at the callee's entry point.
	Call(env *Env, caller *pointsto.MCtx, call *ir.Call, callee *pointsto.MCtx, d Fact, dst []Fact) []Fact
	// Return maps fact d holding before exit (a Return or Throw in the
	// callee) to the facts holding at the caller's return site.
	Return(env *Env, caller *pointsto.MCtx, call *ir.Call, callee *pointsto.MCtx, exit ir.Instr, d Fact, dst []Fact) []Fact
	// CallToReturn maps fact d holding before a call to the facts
	// carried around the call along the local bypass edge; resolved
	// reports whether any callee was found for the site.
	CallToReturn(env *Env, caller *pointsto.MCtx, call *ir.Call, resolved bool, d Fact, dst []Fact) []Fact
}

// Env is the read-only world flow functions see: the interning fact
// table plus the points-to result for heap-cell resolution.
type Env struct {
	Facts *Facts
	Pts   *pointsto.Result
}

// PointsTo returns the points-to set of reg in context mc (empty for
// untracked or non-reference registers).
func (e *Env) PointsTo(reg *ir.Reg, mc *pointsto.MCtx) []*pointsto.Object {
	return e.Pts.PointsToIn(reg, mc)
}

// PointsToHas reports whether obj is in the points-to set of reg in mc.
func (e *Env) PointsToHas(reg *ir.Reg, mc *pointsto.MCtx, obj *pointsto.Object) bool {
	for _, o := range e.PointsTo(reg, mc) {
		if o == obj {
			return true
		}
	}
	return false
}

// StepKind classifies one hop of a witness trace.
type StepKind uint8

// Trace step kinds.
const (
	StepGen     StepKind = iota // fact generated here (from the zero fact)
	StepFlow                    // intraprocedural transfer
	StepCall                    // carried into a callee at a call site
	StepReturn                  // carried back to the caller at an exit
	StepSummary                 // jumped over a call via a summary edge
)

// EdgeKind maps the step onto the dependence-edge vocabulary thin
// slice witnesses use, so IFDS traces render exactly like slicer
// chains.
func (k StepKind) EdgeKind() sdg.EdgeKind {
	switch k {
	case StepCall:
		return sdg.EdgeParam
	case StepReturn:
		return sdg.EdgeReturn
	case StepSummary:
		return sdg.EdgeParam
	}
	return sdg.EdgeLocal
}

// Step is one hop of a reconstructed witness path.
type Step struct {
	Node sdg.Node
	Ins  ir.Instr
	Fact Fact
	Kind StepKind
}

// Inputs bundles the artifacts the solver reads.
type Inputs struct {
	Prog  *ir.Program
	Pts   *pointsto.Result
	Graph *sdg.Graph // supplies the (instruction, context) node space
	CHA   *cha.CallGraph
}

// parentRec records how a (node, fact) pair was first discovered:
// prev is the predecessor's packed node/fact key (parentRoot for
// seeds and gens at entry) and step classifies the edge.
type parentRec struct {
	prev uint64
	step StepKind
}

const parentRoot = ^uint64(0)

// nfKey packs a node and a fact into one key: the parent reference of
// the (node, fact) table, and the (entry node, entry fact) key of the
// solver's caller and summary tables.
func nfKey(n sdg.Node, d Fact) uint64 { return uint64(uint32(n))<<32 | uint64(uint32(d)) }

// Results holds the solved exploded-supergraph reachability: which
// facts hold before which statement instances, plus the discovery
// parents for witness reconstruction.
type Results struct {
	// Truncated reports the solve stopped early on an exhausted budget
	// or cancellation: every recorded fact is genuine but later ones
	// may be missing, so absence-based queries are unreliable. Err
	// carries the typed budget error.
	Truncated bool
	Err       error

	// Name and ConfigKey echo the problem that produced the results.
	Name      string
	ConfigKey string

	graph *sdg.Graph
	facts *Facts
	// The (node, fact) table in compressed rows: node n's facts, in
	// discovery order, are nodeFacts[nodeOff[n]:nodeOff[n+1]], and
	// nodeParents holds the discovery parent of each entry. nodeUp is
	// each entry's parent position (-1 at a root), resolved on the first
	// Trace (decoding resolves it up front to check the chains).
	nodeOff     []int32
	nodeFacts   []Fact
	nodeParents []parentRec
	nodeUp      []int32
	upOnce      sync.Once

	// PathEdges counts distinct tabulated path edges; SummaryEdges
	// counts (callee entry fact → exit fact) summaries. Surfaced in
	// solver stats and tests.
	PathEdges    int
	SummaryEdges int
}

// Facts returns the fact table of the results.
func (r *Results) Facts() *Facts { return r.facts }

// Graph returns the dependence graph supplying the node space.
func (r *Results) Graph() *sdg.Graph { return r.graph }

// NumNodeFacts returns the number of recorded (node, fact) pairs —
// the size proxy cost-accounted stores use.
func (r *Results) NumNodeFacts() int { return len(r.nodeFacts) }

// row returns the table positions of node n's facts (empty for nodes
// outside the graph).
func (r *Results) row(n sdg.Node) (lo, hi int32) {
	if n < 0 || int(n) >= len(r.nodeOff)-1 {
		return 0, 0
	}
	return r.nodeOff[n], r.nodeOff[n+1]
}

// index returns the table position of (n, d), or -1 when d does not
// hold at n. A node holds a few dozen facts, so a scan of its row is
// cheaper than any index over the whole table.
func (r *Results) index(n sdg.Node, d Fact) int32 {
	lo, hi := r.row(n)
	for i := lo; i < hi; i++ {
		if r.nodeFacts[i] == d {
			return i
		}
	}
	return -1
}

// Holds reports whether fact d holds before statement instance n.
func (r *Results) Holds(n sdg.Node, d Fact) bool { return r.index(n, d) >= 0 }

// Reachable reports whether n is reachable at all (the zero fact
// holds there).
func (r *Results) Reachable(n sdg.Node) bool { return r.Holds(n, Zero) }

// FactsAt returns the facts holding before n (zero included), in
// discovery order. Callers must not mutate the slice.
func (r *Results) FactsAt(n sdg.Node) []Fact {
	lo, hi := r.row(n)
	if lo == hi {
		return nil
	}
	return r.nodeFacts[lo:hi:hi]
}

// Trace reconstructs a witness path for fact d at node n: the chain of
// statement instances along which d was first discovered, most recent
// first (the queried node leads, the generating statement ends it).
// Hops where the fact merely flows unchanged through straight-line
// code are compressed away, leaving the thin-slice-style chain of
// fact-changing steps. Returns nil when d does not hold at n.
func (r *Results) Trace(n sdg.Node, d Fact) []Step {
	i := r.index(n, d)
	if i < 0 {
		return nil
	}
	r.upOnce.Do(func() {
		if r.nodeUp == nil {
			// The solver records a pair before any pair it discovers, so
			// every parent resolves.
			r.nodeUp, _ = parentPositions(r.nodeOff, r.nodeFacts, r.nodeParents, r.facts.NumFacts())
		}
	})
	rec := r.nodeParents[i]
	const maxSteps = 128
	out := []Step{{Node: n, Ins: r.graph.InstrOf(n), Fact: d, Kind: rec.step}}
	for rec.prev != parentRoot && len(out) < maxSteps {
		i = r.nodeUp[i]
		prevNode, prevFact := sdg.Node(int32(rec.prev>>32)), r.nodeFacts[i]
		next := r.nodeParents[i]
		// Keep hops where the fact identity changes (gens, parameter
		// and return bindings, heap transfers) or a call boundary is
		// crossed; drop same-fact straight-line flow outright — the
		// step already kept is where the fact was produced, and the
		// dropped instructions merely sit between producer and use.
		if prevFact != out[len(out)-1].Fact || next.step == StepCall || next.step == StepReturn || next.step == StepSummary {
			out = append(out, Step{Node: prevNode, Ins: r.graph.InstrOf(prevNode), Fact: prevFact, Kind: next.step})
		}
		// For a non-zero query the chain ends at the generating
		// statement: the first zero-fact step is the origin, and
		// walking further would only retrace plain reachability.
		if d != Zero && out[len(out)-1].Fact == Zero {
			break
		}
		rec = next
	}
	return out
}

// parentPositions resolves each entry's parent key to the parent's
// table position, -1 at a root. Entries are grouped by their parent's
// node, so every parent row is indexed once, in a fact-indexed scratch
// slice: O(entries + nodes + facts), with no hashing. A key naming a
// pair outside the table is an error.
func parentPositions(off []int32, facts []Fact, parents []parentRec, numFacts int) ([]int32, error) {
	numNodes := len(off) - 1
	up := make([]int32, len(parents))
	// byParent[start[p]:start[p+1]] are the entries whose parent is at node p.
	start := make([]int32, numNodes+2)
	for i, rec := range parents {
		up[i] = -1
		if rec.prev == parentRoot {
			continue
		}
		if p := rec.prev >> 32; p < uint64(numNodes) {
			start[p+2]++
		} else {
			return nil, fmt.Errorf("dangling parent reference %#x", rec.prev)
		}
	}
	for p := 2; p < len(start); p++ {
		start[p] += start[p-1]
	}
	// start[p+1] is the fill cursor of node p; filling leaves it at the
	// end of p's group, which is where group p+1 starts.
	byParent := make([]int32, start[numNodes+1])
	for i, rec := range parents {
		if rec.prev != parentRoot {
			p := rec.prev>>32 + 1
			byParent[start[p]] = int32(i)
			start[p]++
		}
	}
	slot := make([]int32, numFacts) // fact → position+1 within the current row
	for p := 0; p < numNodes; p++ {
		kids := byParent[start[p]:start[p+1]]
		if len(kids) == 0 {
			continue
		}
		lo, hi := off[p], off[p+1]
		for j := lo; j < hi; j++ {
			slot[facts[j]] = j + 1
		}
		for _, i := range kids {
			d := uint64(uint32(parents[i].prev))
			if d >= uint64(numFacts) || slot[d] == 0 {
				return nil, fmt.Errorf("dangling parent reference %#x", parents[i].prev)
			}
			up[i] = slot[d] - 1
		}
		for j := lo; j < hi; j++ {
			slot[facts[j]] = 0
		}
	}
	return up, nil
}

// NodesHolding returns every node where fact d holds, in node order.
// Intended for tests and diagnostics, not hot paths.
func (r *Results) NodesHolding(d Fact) []sdg.Node {
	var out []sdg.Node
	for n := 0; n+1 < len(r.nodeOff); n++ {
		if r.Holds(sdg.Node(n), d) {
			out = append(out, sdg.Node(n))
		}
	}
	return out
}

// bitTable is a node-indexed table of fact bitsets: row n is stride
// words, one bit per fact. Facts are interned during the solve, so a
// fact past the current width widens every row.
type bitTable struct {
	words  []uint64
	rows   int
	stride int
}

func newBitTable(rows int) bitTable {
	return bitTable{words: make([]uint64, rows), rows: rows, stride: 1}
}

// add sets bit (n, d) and reports whether it was clear.
func (t *bitTable) add(n sdg.Node, d Fact) bool {
	w := int(d) >> 6
	if w >= t.stride {
		t.widen(w + 1)
	}
	p := &t.words[int(n)*t.stride+w]
	bit := uint64(1) << (uint(d) & 63)
	if *p&bit != 0 {
		return false
	}
	*p |= bit
	return true
}

// widen re-lays the table out with at least need words per row,
// doubling so a solve widens O(log facts) times.
func (t *bitTable) widen(need int) {
	stride := max(2*t.stride, need)
	words := make([]uint64, t.rows*stride)
	for n := 0; n < t.rows; n++ {
		copy(words[n*stride:], t.words[n*t.stride:(n+1)*t.stride])
	}
	t.words, t.stride = words, stride
}

type callerRec struct {
	call sdg.Node
	d1   Fact // caller's path-edge source fact
	d2   Fact // fact at the call site
}

type exitRec struct {
	exit sdg.Node
	d    Fact
}

// procEntry is one procedure instance entered with one fact: the
// callers registered for it (incoming) and the exit facts it reaches
// (its end summary), each list in append order.
type procEntry struct {
	incoming   []callerRec
	endSummary []exitRec
}

type pathEdge struct {
	d1 Fact // fact at the procedure entry
	n  sdg.Node
	d2 Fact // fact at n
}

// found is one (node, fact) pair in discovery order, with its parent.
type found struct {
	n   sdg.Node
	d   Fact
	rec parentRec
}

// solver is the tabulation state. Everything per node is a dense table
// indexed by sdg.Node.
type solver struct {
	in    Inputs
	p     Problem
	env   *Env
	meter *budget.Meter

	res *Results
	// instr is the node → instruction table. Consecutive nodes of one
	// context are consecutive instruction IDs (the SDG node layout), so
	// it is filled in one pass with one graph lookup per context.
	instr []ir.Instr
	// entries caches each context's entry node.
	entries map[*pointsto.MCtx]sdg.Node

	// Path edges (d1, n, d2), split by shape as WALA's IFDS
	// LocalPathEdges does: d1 = Λ and d1 = d2 are one bit per (node,
	// d2) — all path edges of the init and close problems and nearly
	// all of taint's — and otherEdges[n] holds every other shape of n
	// under the key d1<<32 | d2.
	zeroEdges  bitTable
	sameEdges  bitTable
	otherEdges []map[uint64]struct{}

	// holds marks the (node, fact) pairs recorded in discovered, which
	// keeps them in discovery order in chunks: recording a pair never
	// copies the earlier ones, as growing one slice would.
	holds      bitTable
	discovered [][]found

	work []pathEdge // FIFO; work[:head] is done
	head int
	// procIndex maps nfKey(entry node, entry fact) to its procs entry;
	// the indirection keeps list appends from writing the map.
	procIndex map[uint64]int32
	procs     []procEntry
	buf       []Fact
	retBuf    []Fact
	stop      error
}

// Solve runs the tabulation for problem p. Budget exhaustion returns a
// Truncated partial result (facts found so far, all genuine);
// cancellation and deadline expiry return a typed error.
func Solve(in Inputs, p Problem, bud *budget.Budget) (*Results, error) {
	if err := bud.Err(budget.PhaseDataflow); err != nil {
		return nil, err
	}
	fx := NewFacts()
	numNodes := in.Graph.NumNodes()
	s := &solver{
		in:    in,
		p:     p,
		env:   &Env{Facts: fx, Pts: in.Pts},
		meter: bud.Phase(budget.PhaseDataflow),
		res: &Results{
			Name:      p.Name(),
			ConfigKey: p.ConfigKey(),
			graph:     in.Graph,
			facts:     fx,
		},
		instr:      instrTable(in.Graph),
		entries:    make(map[*pointsto.MCtx]sdg.Node),
		zeroEdges:  newBitTable(numNodes),
		sameEdges:  newBitTable(numNodes),
		otherEdges: make([]map[uint64]struct{}, numNodes),
		holds:      newBitTable(numNodes),
		procIndex:  make(map[uint64]int32),
	}
	s.seed()
	s.run()
	if s.stop != nil {
		if budget.IsCanceled(s.stop) {
			return nil, s.stop
		}
		s.res.Truncated, s.res.Err = true, s.stop
	}
	s.finish()
	return s.res, nil
}

// instrTable returns the instruction of every node of g.
func instrTable(g *sdg.Graph) []ir.Instr {
	instr := make([]ir.Instr, g.NumNodes())
	for n := range instr {
		if n > 0 && g.CtxOf(sdg.Node(n)) == g.CtxOf(sdg.Node(n-1)) {
			instr[n] = g.Prog.InstrByID(instr[n-1].ID() + 1)
		} else {
			instr[n] = g.InstrOf(sdg.Node(n))
		}
	}
	return instr
}

// proc returns the state of the procedure instance entered at node
// entry with fact d.
func (s *solver) proc(entry sdg.Node, d Fact) *procEntry {
	k := nfKey(entry, d)
	i, ok := s.procIndex[k]
	if !ok {
		i = int32(len(s.procs))
		s.procIndex[k] = i
		s.procs = append(s.procs, procEntry{})
	}
	return &s.procs[i]
}

// entry returns the entry node of context mc.
func (s *solver) entry(mc *pointsto.MCtx) sdg.Node {
	n, ok := s.entries[mc]
	if !ok {
		n = s.in.Graph.NodeOf(mc, mc.Method.Blocks[0].Instrs[0])
		s.entries[mc] = n
	}
	return n
}

// seed roots the tabulation at every analysis entry method.
func (s *solver) seed() {
	for _, m := range s.in.Pts.Entries() {
		for _, mc := range s.in.Pts.MCtxsOf(m) {
			s.propagate(Zero, s.entry(mc), Zero, parentRoot, StepGen)
		}
	}
}

// propagate adds path edge (d1, n, d2) if new, recording the discovery
// parent of its (node, fact) pair the first time the pair is seen.
func (s *solver) propagate(d1 Fact, n sdg.Node, d2 Fact, parent uint64, step StepKind) {
	if !s.addPathEdge(d1, n, d2) {
		return
	}
	s.res.PathEdges++
	if len(s.work) == cap(s.work) && s.head >= len(s.work)/2 {
		// Reclaim the popped prefix instead of growing the queue.
		s.work = s.work[:copy(s.work, s.work[s.head:])]
		s.head = 0
	}
	s.work = append(s.work, pathEdge{d1, n, d2})
	if s.holds.add(n, d2) {
		s.record(found{n, d2, parentRec{prev: parent, step: step}})
	}
}

// record appends a newly discovered pair, opening a chunk when the last
// one is full. Chunks grow with the table up to a fixed size, so a
// small solve stays small.
func (s *solver) record(f found) {
	last := len(s.discovered) - 1
	if last < 0 || len(s.discovered[last]) == cap(s.discovered[last]) {
		size := 256
		if last >= 0 {
			size = min(2*cap(s.discovered[last]), 1<<14)
		}
		s.discovered = append(s.discovered, make([]found, 0, size))
		last++
	}
	s.discovered[last] = append(s.discovered[last], f)
}

// addPathEdge inserts path edge (d1, n, d2) and reports whether it was
// new.
func (s *solver) addPathEdge(d1 Fact, n sdg.Node, d2 Fact) bool {
	switch d1 {
	case Zero:
		return s.zeroEdges.add(n, d2)
	case d2:
		return s.sameEdges.add(n, d2)
	}
	m := s.otherEdges[n]
	if m == nil {
		m = make(map[uint64]struct{})
		s.otherEdges[n] = m
	}
	k := uint64(uint32(d1))<<32 | uint64(uint32(d2))
	if _, ok := m[k]; ok {
		return false
	}
	m[k] = struct{}{}
	return true
}

// finish lays the discovered (node, fact) pairs out as the results'
// compressed rows. A stable counting sort by node keeps each node's
// facts in discovery order.
func (s *solver) finish() {
	r := s.res
	off := make([]int32, len(s.instr)+1)
	total := 0
	for _, chunk := range s.discovered {
		total += len(chunk)
		for _, f := range chunk {
			off[f.n+1]++
		}
	}
	for n := 1; n < len(off); n++ {
		off[n] += off[n-1]
	}
	r.nodeFacts = make([]Fact, total)
	r.nodeParents = make([]parentRec, total)
	for _, chunk := range s.discovered {
		for _, f := range chunk {
			i := off[f.n]
			r.nodeFacts[i], r.nodeParents[i] = f.d, f.rec
			off[f.n]++
		}
	}
	// off[n] now holds the end of row n, i.e. the start of row n+1.
	copy(off[1:], off)
	off[0] = 0
	r.nodeOff = off
}

// callees resolves the call targets at a call site in context. When
// a truncated points-to result has no edge for the site, the CHA cone
// provides the fallback targets (their analyzed contexts).
func (s *solver) callees(call *ir.Call, mc *pointsto.MCtx) []*pointsto.MCtx {
	out := s.in.Pts.CalleesAt(call, mc)
	if len(out) > 0 || s.in.CHA == nil || !s.in.Pts.Truncated {
		return out
	}
	for _, m := range s.in.CHA.Callees(call) {
		out = append(out, s.in.Pts.MCtxsOf(m)...)
	}
	return out
}

// succs appends the intraprocedural CFG successors of node n, whose
// instruction ins is neither a call nor an exit. ir.Verify guarantees
// that IDs are contiguous in block order and that a block ends in its
// only terminator, so a non-terminator is followed by node n+1 and a
// branch target's first instruction is n plus the ID difference.
func succs(n sdg.Node, ins ir.Instr, dst []sdg.Node) []sdg.Node {
	switch t := ins.(type) {
	case *ir.If:
		return append(dst, jump(n, ins, t.Then), jump(n, ins, t.Else))
	case *ir.Goto:
		return append(dst, jump(n, ins, t.Target))
	}
	return append(dst, n+1)
}

// jump returns the node of b's first instruction, for a branch at node
// n with instruction ins.
func jump(n sdg.Node, ins ir.Instr, b *ir.Block) sdg.Node {
	return n + sdg.Node(b.Instrs[0].ID()-ins.ID())
}

// run is the tabulation worklist loop.
func (s *solver) run() {
	var succBuf [2]sdg.Node
	for s.head < len(s.work) {
		if err := s.meter.Tick(); err != nil {
			s.stop = err
			return
		}
		e := s.work[s.head]
		s.head++
		ins := s.instr[e.n]
		mc := s.in.Graph.CtxOf(e.n)
		switch t := ins.(type) {
		case *ir.Call:
			s.processCall(e, t, mc)
		case *ir.Return, *ir.Throw:
			s.processExit(e, ins, mc)
		default:
			out := s.p.Normal(s.env, mc, ins, e.d2, s.buf[:0])
			parent := nfKey(e.n, e.d2)
			for _, sn := range succs(e.n, ins, succBuf[:0]) {
				for _, d3 := range out {
					s.propagate(e.d1, sn, d3, parent, stepFor(e.d2, d3))
				}
			}
			s.buf = out[:0]
		}
	}
}

// stepFor classifies an intraprocedural hop: a new fact born from the
// zero fact is a gen, everything else is flow.
func stepFor(from, to Fact) StepKind {
	if from == Zero && to != Zero {
		return StepGen
	}
	return StepFlow
}

// processCall handles a call node: call edges into each resolved
// callee (registering incoming and applying any summaries already
// discovered), plus the local call-to-return bypass. Calls never end
// a block, so the return site is the next node.
func (s *solver) processCall(e pathEdge, call *ir.Call, mc *pointsto.MCtx) {
	parent := nfKey(e.n, e.d2)
	retSite := e.n + 1
	callees := s.callees(call, mc)
	for _, callee := range callees {
		entryNode := s.entry(callee)
		out := s.p.Call(s.env, mc, call, callee, e.d2, s.buf[:0])
		for _, d3 := range out {
			s.propagate(d3, entryNode, d3, parent, StepCall)
			// Register the caller under the callee's entry fact, then
			// apply any summaries already tabulated for it. A path edge
			// is popped once, so a repeat registration can only come
			// from this pop and is the list's last element.
			pe := s.proc(entryNode, d3)
			cr := callerRec{e.n, e.d1, e.d2}
			if n := len(pe.incoming); n == 0 || pe.incoming[n-1] != cr {
				pe.incoming = append(pe.incoming, cr)
			}
			for _, ex := range pe.endSummary {
				rout := s.p.Return(s.env, mc, call, callee, s.instr[ex.exit], ex.d, s.retBuf[:0])
				for _, d5 := range rout {
					s.propagate(e.d1, retSite, d5, nfKey(ex.exit, ex.d), StepReturn)
				}
				s.retBuf = rout[:0]
			}
		}
		s.buf = out[:0]
	}
	out := s.p.CallToReturn(s.env, mc, call, len(callees) > 0, e.d2, s.buf[:0])
	for _, d3 := range out {
		s.propagate(e.d1, retSite, d3, parent, stepFor(e.d2, d3))
	}
	s.buf = out[:0]
}

// processExit handles a Return/Throw node: record the summary for this
// procedure instance's entry fact and flow back to every registered
// caller. Each path edge is popped once, so its summary is new.
func (s *solver) processExit(e pathEdge, exit ir.Instr, mc *pointsto.MCtx) {
	pe := s.proc(s.entry(mc), e.d1)
	pe.endSummary = append(pe.endSummary, exitRec{e.n, e.d2})
	s.res.SummaryEdges++
	parent := nfKey(e.n, e.d2)
	for _, cr := range pe.incoming {
		callIns := s.instr[cr.call].(*ir.Call)
		callerCtx := s.in.Graph.CtxOf(cr.call)
		out := s.p.Return(s.env, callerCtx, callIns, mc, exit, e.d2, s.buf[:0])
		for _, d5 := range out {
			s.propagate(cr.d1, cr.call+1, d5, parent, StepReturn)
		}
		s.buf = out[:0]
	}
}

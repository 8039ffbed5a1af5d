// Package expand implements hierarchical expansion of thin slices
// (paper §4): explaining heap-based value flow via additional thin
// slices on the aliased base pointers (restricted to objects that flow
// to both, §4.1), explaining array index agreement, surfacing control
// dependences (§4.2), and the limit construction that recovers the
// traditional slice.
package expand

import (
	"sort"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/core"
	"thinslice/internal/ir"
	"thinslice/internal/sdg"
)

// HeapPair is a store→load producer edge through the heap appearing in
// a slice; the pair whose aliasing a user may ask to have explained.
type HeapPair struct {
	Load  sdg.Node // GetField, ArrayLoad, or ArrayLen instance
	Store sdg.Node // SetField, ArrayStore, or NewArray (for lengths)
}

// HeapPairs returns the heap edges internal to sl, ordered.
func HeapPairs(g *sdg.Graph, sl *core.Slice) []HeapPair {
	var out []HeapPair
	for _, n := range sl.Nodes() {
		g.EachDep(n, func(d sdg.Dep) {
			if d.Kind == sdg.EdgeHeap && sl.ContainsNode(d.Src) {
				out = append(out, HeapPair{Load: n, Store: d.Src})
			}
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load < out[j].Load
		}
		return out[i].Store < out[j].Store
	})
	return out
}

// basePointer returns the base-pointer register of a heap access, or
// nil when the access has none (static fields).
func basePointer(ins ir.Instr) *ir.Reg {
	switch ins := ins.(type) {
	case *ir.GetField:
		return ins.Obj
	case *ir.SetField:
		return ins.Obj
	case *ir.ArrayLoad:
		return ins.Arr
	case *ir.ArrayStore:
		return ins.Arr
	case *ir.ArrayLen:
		return ins.Arr
	case *ir.NewArray:
		return ins.Dst
	}
	return nil
}

// indexOperand returns the index register of an array access, or nil.
func indexOperand(ins ir.Instr) *ir.Reg {
	switch ins := ins.(type) {
	case *ir.ArrayLoad:
		return ins.Idx
	case *ir.ArrayStore:
		return ins.Idx
	}
	return nil
}

// AliasExplanation answers "why do these two accesses touch the same
// location?" with two filtered thin slices (paper §4.1).
type AliasExplanation struct {
	Pair HeapPair
	// Common is the set of abstract objects that flow to both base
	// pointers, establishing the aliasing.
	Common []*pointsto.Object
	// LoadFlow and StoreFlow are thin slices showing how a common
	// object reaches the load's and the store's base pointer,
	// restricted to statements carrying a common object.
	LoadFlow  *core.Slice
	StoreFlow *core.Slice
	// IndexFlows are thin slices on the array index expressions, when
	// the accesses are array accesses (paper §4.1's second question).
	IndexFlows []*core.Slice
}

// Statements returns the union of explanation statements, sorted.
func (e *AliasExplanation) Statements() []ir.Instr {
	seen := make(map[ir.Instr]bool)
	var out []ir.Instr
	collect := func(sl *core.Slice) {
		if sl == nil {
			return
		}
		for _, ins := range sl.Instrs() {
			if !seen[ins] {
				seen[ins] = true
				out = append(out, ins)
			}
		}
	}
	collect(e.LoadFlow)
	collect(e.StoreFlow)
	for _, sl := range e.IndexFlows {
		collect(sl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ExplainAliasing computes the aliasing explanation for a heap pair:
// two more thin slices, seeded at the definitions of the two base
// pointers and filtered to the flow of objects common to both
// points-to sets (in the respective contexts of the two accesses).
func ExplainAliasing(g *sdg.Graph, pair HeapPair) *AliasExplanation {
	return explainAliasing(g, pair, core.NewThin(g))
}

// explainAliasing is ExplainAliasing over a caller-provided thin
// slicer, so expansions can reuse one carrying their budget.
func explainAliasing(g *sdg.Graph, pair HeapPair, thin *core.Slicer) *AliasExplanation {
	exp := &AliasExplanation{Pair: pair}
	loadIns := g.InstrOf(pair.Load)
	storeIns := g.InstrOf(pair.Store)
	loadBase := basePointer(loadIns)
	storeBase := basePointer(storeIns)
	if loadBase == nil || storeBase == nil {
		return exp // static field: no aliasing to explain
	}
	loadCtx := g.CtxOf(pair.Load)
	storeCtx := g.CtxOf(pair.Store)
	common := commonObjects(
		g.Pts.PointsToIn(loadBase, loadCtx),
		g.Pts.PointsToIn(storeBase, storeCtx))
	exp.Common = common
	commonIDs := make(map[int]bool, len(common))
	for _, o := range common {
		commonIDs[o.ID] = true
	}
	keep := func(ins ir.Instr) bool { return carriesObject(g.Pts, ins, commonIDs) }
	if loadBase.Def != nil {
		exp.LoadFlow = thin.SliceFiltered(keep, g.NodeOf(loadCtx, loadBase.Def))
	}
	if storeBase.Def != nil {
		exp.StoreFlow = thin.SliceFiltered(keep, g.NodeOf(storeCtx, storeBase.Def))
	}
	// Array accesses additionally raise "how can the indices agree?".
	for _, acc := range []struct {
		node sdg.Node
		ins  ir.Instr
		ctx  *pointsto.MCtx
	}{{pair.Load, loadIns, loadCtx}, {pair.Store, storeIns, storeCtx}} {
		if idx := indexOperand(acc.ins); idx != nil && idx.Def != nil {
			exp.IndexFlows = append(exp.IndexFlows, thin.SliceNodes(g.NodeOf(acc.ctx, idx.Def)))
		}
	}
	return exp
}

func commonObjects(a, b []*pointsto.Object) []*pointsto.Object {
	inA := make(map[int]bool)
	for _, o := range a {
		inA[o.ID] = true
	}
	var out []*pointsto.Object
	for _, o := range b {
		if inA[o.ID] {
			out = append(out, o)
		}
	}
	return out
}

// carriesObject reports whether a statement moves one of the given
// objects: it defines a reference holding one, or stores one into the
// heap. This is the §4.1 filter that drops statements showing flow of
// an object to only one of the two base pointers. The check uses the
// context-insensitive projection of the points-to sets.
func carriesObject(pts *pointsto.Result, ins ir.Instr, ids map[int]bool) bool {
	check := func(r *ir.Reg) bool {
		for _, o := range pts.PointsTo(r) {
			if ids[o.ID] {
				return true
			}
		}
		return false
	}
	if d := ins.Def(); d != nil && check(d) {
		return true
	}
	switch ins := ins.(type) {
	case *ir.SetField:
		return check(ins.Val)
	case *ir.ArrayStore:
		return check(ins.Val)
	case *ir.SetStatic:
		return check(ins.Val)
	case *ir.Return:
		return ins.Val != nil && check(ins.Val)
	}
	return false
}

// ControlExplanation returns the statements that ins is directly
// control dependent on, in any context: branch conditions in its
// method and, for statements that always execute on entry, the call
// sites of the method (paper §4.2). The user would next thin-slice
// from these.
func ControlExplanation(g *sdg.Graph, ins ir.Instr) []ir.Instr {
	var out []ir.Instr
	seen := make(map[ir.Instr]bool)
	for _, n := range g.NodesOf(ins) {
		g.EachDep(n, func(d sdg.Dep) {
			if !d.Kind.IsControl() {
				return
			}
			src := g.InstrOf(d.Src)
			if !seen[src] {
				seen[src] = true
				out = append(out, src)
			}
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Expansion is an iterative expansion state over a thin slice.
type Expansion struct {
	g    *sdg.Graph
	thin *core.Slicer
	// Members is the current statement-instance set.
	Members map[sdg.Node]bool
	// Depth counts expansion rounds performed.
	Depth int
	// Filtered selects whether aliasing explanations restrict to
	// common objects (the interactive behavior) or include all base
	// pointer flow (the limit construction covering the traditional
	// slice).
	Filtered bool
	// Truncated reports that a violated budget stopped the expansion
	// before its fixpoint; Err carries the typed budget error.
	Truncated bool
	Err       error

	meter *budget.Meter
}

// NewExpansion starts an unbounded expansion from the thin slice of
// the seeds.
func NewExpansion(g *sdg.Graph, filtered bool, seeds ...ir.Instr) *Expansion {
	return NewExpansionBudget(g, filtered, nil, seeds...)
}

// NewExpansionBudget starts an expansion whose rounds and inner thin
// slices are bounded by b (PhaseExpand / PhaseSlice). A violated
// budget leaves the expansion at its current member set, flagged
// Truncated — by construction every member is still a valid
// explanation statement.
func NewExpansionBudget(g *sdg.Graph, filtered bool, b *budget.Budget, seeds ...ir.Instr) *Expansion {
	e := &Expansion{
		g:        g,
		thin:     core.NewThin(g).WithBudget(b),
		Members:  make(map[sdg.Node]bool),
		Filtered: filtered,
		meter:    b.Phase(budget.PhaseExpand),
	}
	initial := e.thin.Slice(seeds...)
	e.noteSlice(initial)
	for _, n := range initial.Nodes() {
		e.Members[n] = true
	}
	return e
}

// noteSlice folds a component slice's truncation into the expansion.
func (e *Expansion) noteSlice(sl *core.Slice) {
	if sl != nil && sl.Truncated {
		e.Truncated = true
		if e.Err == nil {
			e.Err = sl.Err
		}
	}
}

// Size returns the current statement-instance count.
func (e *Expansion) Size() int { return len(e.Members) }

// Contains reports whether any instance of ins is a member.
func (e *Expansion) Contains(ins ir.Instr) bool {
	for _, n := range e.g.NodesOf(ins) {
		if e.Members[n] {
			return true
		}
	}
	return false
}

// Instrs returns the member statements (instruction projection).
func (e *Expansion) Instrs() map[ir.Instr]bool {
	out := make(map[ir.Instr]bool, len(e.Members))
	for n := range e.Members {
		out[e.g.InstrOf(n)] = true
	}
	return out
}

// Step performs one expansion round: for every member, add control
// explanations (plus their thin slices) and aliasing explanations for
// heap edges and base pointers. It reports whether the set grew.
func (e *Expansion) Step() bool {
	before := len(e.Members)
	add := func(n sdg.Node) { e.Members[n] = true }
	addSlice := func(sl *core.Slice) {
		if sl == nil {
			return
		}
		e.noteSlice(sl)
		for _, n := range sl.Nodes() {
			add(n)
		}
	}
	members := make([]sdg.Node, 0, len(e.Members))
	for n := range e.Members {
		members = append(members, n)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for _, n := range members {
		if err := e.meter.Tick(); err != nil {
			e.Truncated = true
			if e.Err == nil {
				e.Err = err
			}
			return false
		}
		ctx := e.g.CtxOf(n)
		// Control: include the branches/calls and their producer chains.
		e.g.EachDep(n, func(d sdg.Dep) {
			switch {
			case d.Kind.IsControl():
				add(d.Src)
				addSlice(e.thin.SliceNodes(d.Src))
			case d.Kind == sdg.EdgeHeap && e.Filtered:
				exp := explainAliasing(e.g, HeapPair{Load: n, Store: d.Src}, e.thin)
				if exp.LoadFlow != nil {
					addSlice(exp.LoadFlow)
				}
				if exp.StoreFlow != nil {
					addSlice(exp.StoreFlow)
				}
				for _, sl := range exp.IndexFlows {
					addSlice(sl)
				}
			case d.Kind == sdg.EdgeBase && !e.Filtered:
				add(d.Src)
				addSlice(e.thin.SliceNodes(d.Src))
			}
		})
		if e.Filtered {
			// Base-pointer flow of accesses with no matched store
			// (e.g. the seed's own reads) still deserves an
			// explanation seed.
			ins := e.g.InstrOf(n)
			if base := basePointer(ins); base != nil && base.Def != nil {
				add(e.g.NodeOf(ctx, base.Def))
			}
		}
	}
	e.Depth++
	return len(e.Members) > before
}

// Run expands to fixpoint and returns the number of rounds.
func (e *Expansion) Run() int {
	for e.Step() {
	}
	return e.Depth
}

// ExpandToTraditional runs the unfiltered expansion to fixpoint. By
// construction this converges to (at least) the traditional slice with
// control dependences (paper §2: "in the limit yielding a traditional
// slice"), which the property tests verify.
func ExpandToTraditional(g *sdg.Graph, seeds ...ir.Instr) map[ir.Instr]bool {
	e := NewExpansion(g, false, seeds...)
	e.Run()
	return e.Instrs()
}

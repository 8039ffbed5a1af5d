package sdg

import (
	"fmt"

	"thinslice/internal/ir"
)

// VerifyGraph checks the structural invariants of a finalized
// dependence graph — the properties every consumer (the slicers, the
// IFDS solver, the codec) silently relies on:
//
//   - factored layout: the own-edge offsets have 2·NumNodes+1 entries,
//     start at 0, are monotone non-decreasing and end at the own-edge
//     count; every list is a span inside the shared sources, lists
//     0 to the context count are the contexts' caller lists, and every
//     row's list references are in range; a row's scan edges hold no
//     control, heap or call-control kind and its control edges only
//     EdgeControl; a row's call list is its own context's callers (or,
//     in a truncated graph, a prefix of them); NumEdges counts the
//     logical edges;
//   - node identity: every node has a context, context base ranges
//     partition [0, NumNodes) exactly, and NodeOf(CtxOf(n), InstrOf(n))
//     round-trips to n;
//   - edge endpoints, over each node's logical row: every Dep.Src is in
//     bounds; Via is set exactly on EdgeParam edges and names a
//     call-site node; intraprocedural kinds (local, base, control) stay
//     within one context; EdgeParam targets a formal parameter,
//     EdgeReturn links a return statement to a call, and
//     EdgeCallControl sources are call sites.
//
// It returns every violation found, or nil for a well-formed graph.
func VerifyGraph(g *Graph) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	n := g.NumNodes()
	if len(g.ownOff) != 2*n+1 || len(g.refs) != n {
		report("layout: %d own offsets and %d list references for %d nodes, want %d and %d", len(g.ownOff), len(g.refs), n, 2*n+1, n)
		return errs // the per-node walk below would be out of bounds
	}
	if g.ownOff[0] != 0 {
		report("layout: own offsets start at %d, want 0", g.ownOff[0])
	}
	for i := 1; i <= 2*n; i++ {
		if g.ownOff[i] < g.ownOff[i-1] {
			report("layout: own offsets not monotone at slot %d: %d < %d", i, g.ownOff[i], g.ownOff[i-1])
			return errs
		}
	}
	if int(g.ownOff[2*n]) != len(g.own) {
		report("layout: final own offset %d != %d own edges", g.ownOff[2*n], len(g.own))
		return errs
	}
	if len(g.lists) < len(g.mctxs) {
		report("layout: %d lists for %d contexts' caller lists", len(g.lists), len(g.mctxs))
		return errs
	}
	for i, l := range g.lists {
		if l.off < 0 || l.n < 0 || int(l.off)+int(l.n) > len(g.srcs) {
			report("layout: list %d spans [%d, %d) outside the %d shared sources", i, l.off, int(l.off)+int(l.n), len(g.srcs))
			return errs
		}
	}
	logical := len(g.own)
	for i, ref := range g.refs {
		if ref.heap < -1 || int(ref.heap) >= len(g.lists) || ref.calls < -1 || int(ref.calls) >= len(g.lists) {
			report("node %d: list references %d and %d outside [-1, %d)", i, ref.heap, ref.calls, len(g.lists))
			return errs
		}
		logical += len(g.list(ref.heap)) + len(g.list(ref.calls))
	}
	if g.numEdges != logical {
		report("layout: NumEdges %d != %d logical edges", g.numEdges, logical)
	}

	// Context base ranges must partition [0, NumNodes) and agree with
	// the dense node→context table and the node numbering arithmetic.
	covered := 0
	for id, mc := range g.mctxs {
		base := int(g.base[id])
		size := 0
		mc.Method.Instrs(func(ir.Instr) { size++ })
		if base < 0 || base+size > n {
			report("context %v: node range [%d, %d) outside [0, %d)", mc, base, base+size, n)
			continue
		}
		covered += size
		for i := 0; i < size; i++ {
			if int(g.nodeCtx[base+i]) != id {
				report("node %d: in the base range of context %v but mapped to context %d", base+i, mc, g.nodeCtx[base+i])
				break
			}
		}
	}
	if covered != n {
		report("context base ranges cover %d nodes, graph has %d", covered, n)
	}
	for i := 0; i < n; i++ {
		node := Node(i)
		if c := g.nodeCtx[i]; c < 0 || int(c) >= len(g.mctxs) {
			report("node %d has no context", i)
			continue
		}
		ins := g.InstrOf(node)
		if ins == nil {
			report("node %d has no instruction", i)
			continue
		}
		if rt := g.NodeOf(g.CtxOf(node), ins); rt != node {
			report("node %d: NodeOf(CtxOf, InstrOf) round-trips to %d", i, rt)
		}
	}
	if len(errs) > 0 {
		return errs // endpoint checks below assume sane node identity
	}

	inBounds := func(v Node) bool { return v >= 0 && int(v) < n }
	for i := 0; i < n; i++ {
		node := Node(i)
		ins := g.InstrOf(node)
		r := g.Row(node)
		for _, d := range r.Scan {
			if d.Kind.IsControl() || d.Kind == EdgeHeap {
				report("node %d (%s): %s edge among its own scan edges", i, ins, d.Kind)
			}
		}
		for _, d := range r.Ctrl {
			if d.Kind != EdgeControl {
				report("node %d (%s): %s edge among its own control edges", i, ins, d.Kind)
			}
		}
		if r.CallList >= 0 {
			ctx := g.nodeCtx[i]
			callers, l := g.list(ctx), g.lists[r.CallList]
			if r.CallList != ctx && (!g.Truncated || l.off != g.lists[ctx].off || l.n > int32(len(callers))) {
				report("node %d (%s): call-control list %d is not its context's callers", i, ins, r.CallList)
			}
		}
		g.EachDep(node, func(d Dep) {
			if !inBounds(d.Src) {
				report("node %d (%s): dep source %d out of bounds", i, ins, d.Src)
				return
			}
			if (d.Via != NoNode) != (d.Kind == EdgeParam) {
				report("node %d (%s): Via %d on %s edge (set exactly on param edges)", i, ins, d.Via, d.Kind)
				return
			}
			switch d.Kind {
			case EdgeLocal, EdgeBase, EdgeControl:
				if g.CtxOf(d.Src) != g.CtxOf(node) {
					report("node %d (%s): intraprocedural %s edge crosses contexts (from node %d)", i, ins, d.Kind, d.Src)
				}
			case EdgeParam:
				if !inBounds(d.Via) {
					report("node %d (%s): param edge Via %d out of bounds", i, ins, d.Via)
					return
				}
				if _, ok := ins.(*ir.Param); !ok {
					report("node %d (%s): param edge into a non-parameter", i, ins)
				}
				if _, ok := g.InstrOf(d.Via).(*ir.Call); !ok {
					report("node %d (%s): param edge Via %d is not a call site (%s)", i, ins, d.Via, g.InstrOf(d.Via))
				}
				if g.CtxOf(d.Src) != g.CtxOf(d.Via) {
					report("node %d (%s): param edge source and call site are in different contexts", i, ins)
				}
			case EdgeReturn:
				if _, ok := ins.(*ir.Call); !ok {
					report("node %d (%s): return edge into a non-call", i, ins)
				}
				if _, ok := g.InstrOf(d.Src).(*ir.Return); !ok {
					report("node %d (%s): return edge from a non-return (%s)", i, ins, g.InstrOf(d.Src))
				}
			case EdgeCallControl:
				if _, ok := g.InstrOf(d.Src).(*ir.Call); !ok {
					report("node %d (%s): call-control edge from a non-call (%s)", i, ins, g.InstrOf(d.Src))
				}
			case EdgeHeap:
				// Heap edges may cross contexts freely; bounds were
				// checked above.
			default:
				report("node %d (%s): unknown edge kind %d", i, ins, d.Kind)
			}
		})
	}
	return errs
}

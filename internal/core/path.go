package core

import (
	"thinslice/internal/ir"
	"thinslice/internal/sdg"
)

// PathStep is one hop of a dependence chain: the statement reached and
// the edge kind used to reach it from the previous step (the first
// step has no incoming edge and Kind is meaningless).
type PathStep struct {
	Node sdg.Node
	Ins  ir.Instr
	// Kind is the dependence kind connecting the previous step to this
	// one (EdgeLocal for the seed step).
	Kind sdg.EdgeKind
	// ViaCall is the call site mediating a param edge, or nil.
	ViaCall ir.Instr
}

// PathTo returns a shortest chain of dependence edges from any seed
// statement to any instance of target, traversing only edges this
// slicer follows — the "why is this statement in my slice?" question a
// browsing tool must answer. It returns nil when target is not in the
// slice. The chain starts at a seed and ends at target.
func (s *Slicer) PathTo(target ir.Instr, seeds ...ir.Instr) []PathStep {
	g := s.G
	type parentEdge struct {
		prev sdg.Node
		kind sdg.EdgeKind
		via  sdg.Node
	}
	// Dense BFS state: one parents entry per statement instance and a
	// visited bitset, replacing the map-based frontier.
	parents := make([]parentEdge, g.NumNodes())
	inQueue := newBitset(g.NumNodes())
	var queue []sdg.Node
	for _, seed := range seeds {
		for _, n := range g.NodesOf(seed) {
			if inQueue.add(int(n)) {
				parents[n] = parentEdge{prev: sdg.NoNode, via: sdg.NoNode}
				queue = append(queue, n)
			}
		}
	}
	targetNodes := newBitset(g.NumNodes())
	for _, n := range g.NodesOf(target) {
		targetNodes.add(int(n))
	}
	var hit sdg.Node = sdg.NoNode
	// own queues the sources of own edges; it reports whether a Via
	// call site was the target.
	own := func(n sdg.Node, deps []sdg.Dep) bool {
		for _, d := range deps {
			if !s.Follows(d.Kind) {
				continue
			}
			// A Via call site is itself a reachable member: answer for
			// it too, treating it as reached through the param edge.
			if d.Via != sdg.NoNode && targetNodes.has(int(d.Via)) {
				if inQueue.add(int(d.Via)) {
					parents[d.Via] = parentEdge{prev: n, kind: d.Kind, via: sdg.NoNode}
				}
				hit = d.Via
				return true
			}
			if inQueue.add(int(d.Src)) {
				parents[d.Src] = parentEdge{prev: n, kind: d.Kind, via: d.Via}
				queue = append(queue, d.Src)
			}
		}
		return false
	}
	// walked holds the shared lists already walked: every source of one
	// is queued by its first walk, so a later walk would queue nothing.
	walked := newBitset(g.NumLists())
	shared := func(n sdg.Node, list int32, srcs []sdg.Node, kind sdg.EdgeKind) {
		if list < 0 || !walked.add(int(list)) {
			return
		}
		for _, src := range srcs {
			if inQueue.add(int(src)) {
				parents[src] = parentEdge{prev: n, kind: kind, via: sdg.NoNode}
				queue = append(queue, src)
			}
		}
	}
	control := s.Follows(sdg.EdgeControl)
	for head := 0; head < len(queue) && hit == sdg.NoNode; head++ {
		n := queue[head]
		if targetNodes.has(int(n)) {
			hit = n
			break
		}
		r := g.Row(n)
		if own(n, r.Scan) {
			break
		}
		shared(n, r.HeapList, r.Heap, sdg.EdgeHeap)
		if control {
			if own(n, r.Ctrl) {
				break
			}
			shared(n, r.CallList, r.Calls, sdg.EdgeCallControl)
		}
	}
	if hit == sdg.NoNode {
		return nil
	}
	// Walk parents back to the seed, then reverse into seed→target order.
	var rev []PathStep
	for n := hit; ; {
		pe := parents[n]
		step := PathStep{Node: n, Ins: g.InstrOf(n), Kind: pe.kind}
		if pe.via != sdg.NoNode {
			step.ViaCall = g.InstrOf(pe.via)
		}
		rev = append(rev, step)
		if pe.prev == sdg.NoNode {
			break
		}
		n = pe.prev
	}
	out := make([]PathStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

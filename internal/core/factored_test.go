package core_test

import (
	"fmt"
	"slices"
	"testing"

	"thinslice/internal/analyzer"
	"thinslice/internal/bench"
	"thinslice/internal/budget"
	"thinslice/internal/core"
	"thinslice/internal/ir"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/sdg"
)

// The slicer and PathTo walk each shared list of a graph once and skip
// it afterwards. The reference traversals below follow every logical
// edge, in order, through EachDep; on complete and step-capped graphs
// both must reach the same nodes in the same order, which the
// budget-truncated slices and the PathTo witnesses pin.

// refSlice is the slicer's closure over every logical edge. limit > 0
// meters it as the slicer's PhaseSlice meter does.
func refSlice(g *sdg.Graph, follows func(sdg.EdgeKind) bool, keep func(ir.Instr) bool, limit int64, seeds []sdg.Node) ([]sdg.Node, bool) {
	traversed, member := make(map[sdg.Node]bool), make(map[sdg.Node]bool)
	var work []sdg.Node
	admit := func(n sdg.Node, isSeed bool) bool {
		if traversed[n] || !isSeed && keep != nil && !keep(g.InstrOf(n)) {
			return false
		}
		traversed[n], member[n] = true, true
		work = append(work, n)
		return true
	}
	for _, seed := range seeds {
		admit(seed, true)
	}
	truncated := g.Truncated
	spent := int64(0)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		var deps []sdg.Dep
		g.EachDep(n, func(d sdg.Dep) { deps = append(deps, d) })
		if spent += 1 + int64(len(deps)); limit > 0 && spent > limit {
			truncated = true
			break
		}
		for _, d := range deps {
			if !follows(d.Kind) {
				continue
			}
			if admit(d.Src, false) || member[d.Src] {
				if d.Via != sdg.NoNode {
					member[d.Via] = true
				}
			}
		}
	}
	out := make([]sdg.Node, 0, len(member))
	for n := range member {
		out = append(out, n)
	}
	slices.Sort(out)
	return out, truncated
}

// refPathTo is PathTo's breadth-first search over every logical edge.
func refPathTo(g *sdg.Graph, follows func(sdg.EdgeKind) bool, target ir.Instr, seeds []ir.Instr) []core.PathStep {
	type parentEdge struct {
		prev sdg.Node
		kind sdg.EdgeKind
		via  sdg.Node
	}
	parents := make(map[sdg.Node]parentEdge)
	var queue []sdg.Node
	for _, seed := range seeds {
		for _, n := range g.NodesOf(seed) {
			if _, ok := parents[n]; !ok {
				parents[n] = parentEdge{prev: sdg.NoNode, via: sdg.NoNode}
				queue = append(queue, n)
			}
		}
	}
	isTarget := make(map[sdg.Node]bool)
	for _, n := range g.NodesOf(target) {
		isTarget[n] = true
	}
	hit := sdg.NoNode
	for head := 0; head < len(queue) && hit == sdg.NoNode; head++ {
		n := queue[head]
		if isTarget[n] {
			hit = n
			break
		}
		g.EachDep(n, func(d sdg.Dep) {
			if hit != sdg.NoNode || !follows(d.Kind) {
				return
			}
			if d.Via != sdg.NoNode && isTarget[d.Via] {
				if _, ok := parents[d.Via]; !ok {
					parents[d.Via] = parentEdge{prev: n, kind: d.Kind, via: sdg.NoNode}
				}
				hit = d.Via
				return
			}
			if _, ok := parents[d.Src]; !ok {
				parents[d.Src] = parentEdge{prev: n, kind: d.Kind, via: d.Via}
				queue = append(queue, d.Src)
			}
		})
	}
	if hit == sdg.NoNode {
		return nil
	}
	var rev []core.PathStep
	for n := hit; ; {
		pe := parents[n]
		step := core.PathStep{Node: n, Ins: g.InstrOf(n), Kind: pe.kind}
		if pe.via != sdg.NoNode {
			step.ViaCall = g.InstrOf(pe.via)
		}
		rev = append(rev, step)
		if pe.prev == sdg.NoNode {
			break
		}
		n = pe.prev
	}
	slices.Reverse(rev)
	return rev
}

// cutList is a node whose capped row holds a proper prefix of a list
// that another node of the same capped graph holds in full.
type cutList struct {
	cut, full sdg.Node
	heap      bool // a heap list, else a caller list
}

// cutLists finds, for capped against complete, the shared lists the cap
// cut.
func cutLists(capped, complete *sdg.Graph) []cutList {
	var out []cutList
	for _, heap := range []bool{true, false} {
		list := func(g *sdg.Graph, n int) []sdg.Node {
			r := g.Row(sdg.Node(n))
			if heap {
				return r.Heap
			}
			return r.Calls
		}
		for n := 0; n < capped.NumNodes(); n++ {
			got, want := list(capped, n), list(complete, n)
			if len(got) == 0 || len(got) == len(want) {
				continue
			}
			for m := 0; m < capped.NumNodes(); m++ {
				if m != n && slices.Equal(list(capped, m), want) {
					out = append(out, cutList{sdg.Node(n), sdg.Node(m), heap})
					break
				}
			}
		}
	}
	return out
}

// compareTraversals checks the slicer and PathTo against the reference
// traversals on g from the given seed sets.
func compareTraversals(t *testing.T, name string, g *sdg.Graph, seedSets [][]sdg.Node) {
	t.Helper()
	keep := func(ins ir.Instr) bool { return ins.ID()%3 != 0 }
	slicers := []*core.Slicer{core.NewThin(g), core.NewTraditional(g, false), core.NewTraditional(g, true)}
	for _, seeds := range seedSets {
		for _, s := range slicers {
			for _, limit := range []int64{0, 40, 400} {
				for _, filtered := range []bool{false, true} {
					var k func(ir.Instr) bool
					if filtered {
						k = keep
					}
					if limit > 0 {
						s.WithBudget(budget.New(nil, budget.WithSteps(limit)))
					} else {
						s.WithBudget(nil)
					}
					var sl *core.Slice
					if filtered {
						sl = s.SliceFiltered(k, seeds...)
					} else {
						sl = s.SliceNodes(seeds...)
					}
					want, truncated := refSlice(g, s.Follows, k, limit, seeds)
					if got := sl.Nodes(); !slices.Equal(got, want) || sl.Truncated != truncated {
						t.Fatalf("%s: %s slice (control %v, limit %d, filtered %v) from %v: %d nodes (truncated %v), reference %d (truncated %v)",
							name, s.Opts.Mode, s.Opts.FollowControl, limit, filtered, seeds, len(got), sl.Truncated, len(want), truncated)
					}
				}
			}
			s.WithBudget(nil)
			seedIns := make([]ir.Instr, len(seeds))
			for i, n := range seeds {
				seedIns[i] = g.InstrOf(n)
			}
			members, _ := refSlice(g, s.Follows, nil, 0, seeds)
			for i := 0; i < len(members); i += 1 + len(members)/6 {
				target := g.InstrOf(members[len(members)-1-i])
				got, want := s.PathTo(target, seedIns...), refPathTo(g, s.Follows, target, seedIns)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: %s PathTo(%s) from %v: witness %v, reference %v", name, s.Opts.Mode, target, seeds, got, want)
				}
			}
		}
	}
}

// spreadSeeds returns n single-node seed sets spread over g's nodes.
func spreadSeeds(g *sdg.Graph, n int) [][]sdg.Node {
	var out [][]sdg.Node
	for i := 0; i < n && i < g.NumNodes(); i++ {
		out = append(out, []sdg.Node{sdg.Node((2*i + 1) * g.NumNodes() / (2 * n))})
	}
	return out
}

// TestSkippingSharedListsEqualsWalkingThem runs the comparison on the
// paper figures, randprog seeds 0–39 and javac@2, on each complete
// graph and on step-capped builds of it, and requires that some cap
// cut a shared list that another row of the same graph holds in full.
func TestSkippingSharedListsEqualsWalkingThem(t *testing.T) {
	type program struct {
		name string
		srcs map[string]string
	}
	progs := []program{
		{"firstnames", map[string]string{papercases.FirstNamesFile: papercases.FirstNames}},
		{"toy", map[string]string{papercases.ToyFile: papercases.Toy}},
		{"filebug", map[string]string{papercases.FileBugFile: papercases.FileBug}},
		{"toughcast", map[string]string{papercases.ToughCastFile: papercases.ToughCast}},
		{"javac@2", bench.Generate("javac", 2).Sources},
	}
	for seed := int64(0); seed < 40; seed++ {
		progs = append(progs, program{fmt.Sprintf("rand%d", seed), randprog.Generate(seed, randprog.DefaultConfig)})
	}
	cuts := map[bool]int{}
	for _, p := range progs {
		a, err := analyzer.Analyze(p.srcs)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		full := a.Graph
		compareTraversals(t, p.name, full, spreadSeeds(full, 6))
		total := int64(full.NumNodes() + full.NumEdges())
		for i := int64(1); i <= 12; i++ {
			capped, err := sdg.BuildBudget(a.Prog, a.Pts, budget.New(nil, budget.WithSteps(total*i/13)))
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			name := fmt.Sprintf("%s capped at %d of %d", p.name, total*i/13, total)
			seedSets := spreadSeeds(capped, 3)
			for _, c := range cutLists(capped, full) {
				cuts[c.heap]++
				// Cut prefix first, then the full list, in both the
				// slicer's stack order and PathTo's queue order.
				seedSets = append(seedSets, []sdg.Node{c.full, c.cut}, []sdg.Node{c.cut, c.full})
			}
			compareTraversals(t, name, capped, seedSets)
		}
	}
	if cuts[true] == 0 || cuts[false] == 0 {
		t.Fatalf("no cap cut a shared list (heap lists cut: %d, caller lists cut: %d)", cuts[true], cuts[false])
	}
}

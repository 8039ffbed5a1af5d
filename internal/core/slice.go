// Package core implements the paper's primary contribution: thin
// slicing (producer-statement closure over the dependence graph,
// paper §2–3, §5.2) and the traditional slicing baseline, over the
// context-insensitive SDG variant. Context-sensitive slicing via
// tabulation lives in package csslice.
package core

import (
	"sort"

	"thinslice/internal/budget"
	"thinslice/internal/ir"
	"thinslice/internal/lang/token"
	"thinslice/internal/sdg"
)

// Mode selects the relevance definition.
type Mode int

// Slicing modes.
const (
	// Thin follows only producer flow: local def-use into producer
	// operands, heap store→load flow, and parameter/return passing.
	Thin Mode = iota
	// Traditional additionally follows base-pointer flow dependences
	// and (optionally) control dependences.
	Traditional
)

func (m Mode) String() string {
	if m == Thin {
		return "thin"
	}
	return "traditional"
}

// Options configures a slicer.
type Options struct {
	Mode Mode
	// FollowControl includes control dependence edges. The paper's
	// evaluation (§6.1) excludes control dependences from both slicers
	// and accounts for them separately, so experiment code sets this
	// false; the full traditional slice sets it true.
	FollowControl bool
}

// Slicer computes backward slices over a dependence graph.
type Slicer struct {
	G    *sdg.Graph
	Opts Options
	// Budget bounds each Slice call (PhaseSlice, one step per node
	// admitted or edge traversed). Nil means unlimited. A violated
	// budget stops the closure early and flags the slice Truncated.
	Budget *budget.Budget
}

// WithBudget attaches a budget to the slicer and returns it.
func (s *Slicer) WithBudget(b *budget.Budget) *Slicer {
	s.Budget = b
	return s
}

// NewThin returns a thin slicer (producer statements only).
func NewThin(g *sdg.Graph) *Slicer {
	return &Slicer{G: g, Opts: Options{Mode: Thin}}
}

// NewTraditional returns a traditional slicer; withControl selects
// whether transitive control dependences are included.
func NewTraditional(g *sdg.Graph, withControl bool) *Slicer {
	return &Slicer{G: g, Opts: Options{Mode: Traditional, FollowControl: withControl}}
}

// Follows reports whether the slicer traverses edges of kind k.
func (s *Slicer) Follows(k sdg.EdgeKind) bool {
	if k.IsProducerFlow() {
		return true
	}
	if s.Opts.Mode == Thin {
		return false
	}
	if k == sdg.EdgeBase {
		return true
	}
	return s.Opts.FollowControl && k.IsControl()
}

// Slice is a computed backward slice: a set of statement instances,
// projected onto instructions and source lines for reporting.
type Slice struct {
	// Truncated reports that the backward closure stopped early on a
	// violated budget: every member is a true producer statement, but
	// the slice may be missing members. Err carries the typed,
	// phase-tagged budget error that stopped the traversal.
	Truncated bool
	Err       error

	g     *sdg.Graph
	seeds []sdg.Node
	// nodes and instrs are dense bitsets (over statement-instance IDs
	// and program-wide instruction IDs): membership is one shift+mask
	// and traversal admits members without allocating.
	nodes bitset
	// instrs is the projection of nodes onto instructions.
	instrs bitset
}

// ContainsNode reports whether the statement instance n is in the slice.
func (sl *Slice) ContainsNode(n sdg.Node) bool { return sl.nodes.has(int(n)) }

// Contains reports whether any instance of ins is in the slice.
func (sl *Slice) Contains(ins ir.Instr) bool { return sl.instrs.has(ins.ID()) }

// Size returns the number of distinct member statements (instructions).
func (sl *Slice) Size() int { return sl.instrs.count() }

// NumNodes returns the number of member statement instances.
func (sl *Slice) NumNodes() int { return sl.nodes.count() }

// Nodes returns the member statement instances, sorted.
func (sl *Slice) Nodes() []sdg.Node {
	out := make([]sdg.Node, 0, sl.nodes.count())
	sl.nodes.forEach(func(n int) { out = append(out, sdg.Node(n)) })
	return out
}

// Instrs returns the member statements ordered by instruction ID.
func (sl *Slice) Instrs() []ir.Instr {
	out := make([]ir.Instr, 0, sl.instrs.count())
	sl.instrs.forEach(func(id int) { out = append(out, sl.g.Prog.InstrByID(id)) })
	return out
}

// Seeds returns the seed statement instances.
func (sl *Slice) Seeds() []sdg.Node { return sl.seeds }

// Lines returns the distinct source positions (file:line) covered by
// the slice, sorted.
func (sl *Slice) Lines() []token.Pos {
	seen := make(map[token.Pos]bool)
	var out []token.Pos
	sl.instrs.forEach(func(id int) {
		p := sl.g.Prog.InstrByID(id).Pos()
		p.Col = 0
		if p.IsValid() && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// ContainsLine reports whether any member statement is at file:line.
func (sl *Slice) ContainsLine(file string, line int) bool {
	found := false
	sl.instrs.forEach(func(id int) {
		p := sl.g.Prog.InstrByID(id).Pos()
		if p.File == file && p.Line == line {
			found = true
		}
	})
	return found
}

// Slice computes the backward closure from all statement instances of
// the seed instructions.
func (s *Slicer) Slice(seeds ...ir.Instr) *Slice {
	var nodes []sdg.Node
	for _, seed := range seeds {
		nodes = append(nodes, s.G.NodesOf(seed)...)
	}
	return s.SliceNodes(nodes...)
}

// SliceNodes computes the backward closure from specific statement
// instances.
func (s *Slicer) SliceNodes(seeds ...sdg.Node) *Slice {
	return s.sliceFiltered(nil, seeds)
}

// SliceFiltered computes a backward closure where traversal only
// continues through statements accepted by keep. Seeds are always
// accepted. Used by hierarchical expansion to restrict aliasing
// explanations to the flow of common objects (paper §4.1).
func (s *Slicer) SliceFiltered(keep func(ir.Instr) bool, seeds ...sdg.Node) *Slice {
	return s.sliceFiltered(keep, seeds)
}

func (s *Slicer) sliceFiltered(keep func(ir.Instr) bool, seeds []sdg.Node) *Slice {
	sl := &Slice{
		g:      s.G,
		seeds:  seeds,
		nodes:  newBitset(s.G.NumNodes()),
		instrs: newBitset(s.G.Prog.NumInstrs),
	}
	// Inherit the graph's truncation: a slice over an incomplete graph
	// is itself potentially incomplete.
	if s.G.Truncated {
		sl.Truncated, sl.Err = true, s.G.LimitErr
	}
	meter := s.Budget.Phase(budget.PhaseSlice)
	var work []sdg.Node
	// traversed is distinct from membership: call sites recorded as
	// Via members must still be traversable if reached through an
	// edge later.
	traversed := newBitset(s.G.NumNodes())
	admit := func(n sdg.Node, isSeed bool) bool {
		if traversed.has(int(n)) {
			return false
		}
		if !isSeed && keep != nil && !keep(s.G.InstrOf(n)) {
			return false
		}
		traversed.add(int(n))
		sl.nodes.add(int(n))
		sl.instrs.add(s.G.InstrOf(n).ID())
		work = append(work, n)
		return true
	}
	own := func(deps []sdg.Dep) {
		for _, d := range deps {
			if !s.Follows(d.Kind) {
				continue
			}
			admitted := admit(d.Src, false)
			if d.Via != sdg.NoNode && (admitted || sl.nodes.has(int(d.Src))) {
				// The call site passing the value is itself a producer
				// statement (paper Fig. 1, line 17), but its own
				// dependences are return-value flow, which is not part
				// of this value's producer chain: include, don't
				// traverse.
				if sl.nodes.add(int(d.Via)) {
					sl.instrs.add(s.G.InstrOf(d.Via).ID())
				}
			}
		}
	}
	// walked holds the shared lists already walked. Walking one admits
	// every source keep accepts, so walking it again admits nothing:
	// skipping it changes neither the slice nor the admission order.
	walked := newBitset(s.G.NumLists())
	shared := func(list int32, srcs []sdg.Node) {
		if list < 0 || !walked.add(int(list)) {
			return
		}
		for _, src := range srcs {
			admit(src, false)
		}
	}
	control := s.Follows(sdg.EdgeControl)
	for _, seed := range seeds {
		admit(seed, true)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		r := s.G.Row(n)
		if err := meter.TickN(1 + int64(r.Len())); err != nil {
			sl.Truncated, sl.Err = true, err
			return sl
		}
		own(r.Scan)
		shared(r.HeapList, r.Heap)
		if control {
			own(r.Ctrl)
			shared(r.CallList, r.Calls)
		}
	}
	return sl
}

// SeedsAt returns the statements of g's program located at file:line
// in reachable methods — the usual way a user names a slicing seed.
func SeedsAt(g *sdg.Graph, file string, line int) []ir.Instr {
	var out []ir.Instr
	for _, m := range g.Prog.Methods {
		if !g.Reachable(m) {
			continue
		}
		m.Instrs(func(ins ir.Instr) {
			p := ins.Pos()
			if p.File == file && p.Line == line {
				out = append(out, ins)
			}
		})
	}
	return out
}

// Package inspect simulates realistic use of a slicing tool, following
// paper §6.1: the user explores the dependence graph breadth-first
// from the seed (as in CodeSurfer-style browsing, after Renieris and
// Reiss), and we count how many source statements must be inspected
// before all desired statements have been discovered.
//
// Statements are counted at source-line granularity, since that is
// what a user inspects. Control dependences are pre-identified per
// task (the paper's #Control column) and made available to every
// slicer equally: the traversal may cross up to that many control
// dependence edges, so a guard reached this way counts as an inspected
// statement for thin and traditional slicing alike.
package inspect

import (
	"thinslice/internal/core"
	"thinslice/internal/ir"
	"thinslice/internal/lang/token"
	"thinslice/internal/sdg"
	anasession "thinslice/internal/session"
)

// Line is a source statement identity (file and line).
type Line struct {
	File string
	Line int
}

// LineOf returns the Line of an instruction.
func LineOf(ins ir.Instr) Line {
	p := ins.Pos()
	return Line{File: p.File, Line: p.Line}
}

// PosLine converts a token position.
func PosLine(p token.Pos) Line { return Line{File: p.File, Line: p.Line} }

// Result is the outcome of a simulated inspection session.
type Result struct {
	// Inspected is the number of distinct source statements visited
	// until (and including) the last desired statement, or the total
	// visited when not all desired statements were found.
	Inspected int
	// Found reports whether every desired statement was discovered.
	Found bool
	// Order is the visit order of source statements.
	Order []Line
}

// Budget bounds the explainer edges an inspection session may cross,
// mirroring the per-task allowances of paper §6.1–6.2: pre-identified
// control dependences and (for tasks like nanoxml-5) one level of
// aliasing explanation.
type Budget struct {
	// BaseHops is the number of base-pointer edges a path may cross
	// (aliasing-explanation levels).
	BaseHops int
	// ControlHops is the number of control dependence edges a path may
	// cross (the paper's #Control).
	ControlHops int
}

// session tracks visited lines and remaining goals during a BFS.
type session struct {
	g           *sdg.Graph
	visitedLine map[Line]bool
	remaining   map[Line]bool
	res         *Result
	count       int
}

func newSession(g *sdg.Graph, desired map[Line]bool) *session {
	s := &session{
		g:           g,
		visitedLine: make(map[Line]bool),
		remaining:   make(map[Line]bool, len(desired)),
		res:         &Result{},
	}
	for l := range desired {
		s.remaining[l] = true
	}
	return s
}

func (s *session) visit(n sdg.Node) {
	l := LineOf(s.g.InstrOf(n))
	if l.Line == 0 || s.visitedLine[l] {
		return
	}
	s.visitedLine[l] = true
	s.res.Order = append(s.res.Order, l)
	s.count++
	if s.remaining[l] {
		delete(s.remaining, l)
		if len(s.remaining) == 0 {
			s.res.Inspected = s.count
			s.res.Found = true
		}
	}
}

func (s *session) done() bool { return len(s.remaining) == 0 }

func (s *session) finish() Result {
	if !s.res.Found {
		s.res.Inspected = s.count
	}
	return *s.res
}

// BFS simulates breadth-first inspection with a zero budget: only
// edges the slicer follows are traversed.
func BFS(s *core.Slicer, seeds []ir.Instr, desired map[Line]bool) Result {
	return BFSBudget(s, seeds, desired, Budget{})
}

// BFSBudget simulates breadth-first inspection of the dependence graph
// from the seeds. Paths traverse the slicer's edges freely and may
// additionally spend the budget on base-pointer and control edges.
// Call sites mediating parameter flow (Dep.Via) are surfaced as
// visited statements, as a browsing tool shows them.
func BFSBudget(s *core.Slicer, seeds []ir.Instr, desired map[Line]bool, budget Budget) Result {
	g := s.G
	sess := newSession(g, desired)
	type state struct {
		n          sdg.Node
		base, ctrl int // budget spent so far on this path
	}
	// best[n] is the Pareto frontier of budgets already explored for n;
	// a new state is pushed only if no recorded state dominates it.
	best := make(map[sdg.Node][][2]int)
	var queue []state
	push := func(n sdg.Node, base, ctrl int) {
		for _, b := range best[n] {
			if b[0] <= base && b[1] <= ctrl {
				return
			}
		}
		best[n] = append(best[n], [2]int{base, ctrl})
		queue = append(queue, state{n, base, ctrl})
	}
	for _, seed := range seeds {
		for _, n := range g.NodesOf(seed) {
			push(n, 0, 0)
		}
	}
	for len(queue) > 0 && !sess.done() {
		st := queue[0]
		queue = queue[1:]
		sess.visit(st.n)
		if sess.done() {
			break
		}
		// Every edge is walked, shared lists included: whether a push
		// succeeds depends on the budget this path has spent.
		g.EachDep(st.n, func(d sdg.Dep) {
			switch {
			case s.Follows(d.Kind):
				if d.Via != sdg.NoNode {
					sess.visit(d.Via)
					if sess.done() {
						return
					}
				}
				push(d.Src, st.base, st.ctrl)
			case d.Kind == sdg.EdgeBase && st.base < budget.BaseHops:
				push(d.Src, st.base+1, st.ctrl)
			case d.Kind == sdg.EdgeControl && st.ctrl < budget.ControlHops:
				// Only intraprocedural control dependences (guards
				// lexically near the slice, §4.2) are pre-identified;
				// interprocedural call-control is aliasing-style
				// explainer material covered by BaseHops.
				push(d.Src, st.base, st.ctrl+1)
			}
		})
	}
	return sess.finish()
}

// Task is one evaluation task: a seed position and the desired
// statements whose discovery completes the task, plus the number of
// relevant control dependences the user is allowed (and expected) to
// follow — the paper's #Control column.
type Task struct {
	Name     string
	SeedFile string
	SeedLine int
	Desired  []Line
	// ControlDeps is the number of relevant control dependences for
	// the task (the paper's #Control column); the traversal may cross
	// that many control edges.
	ControlDeps int
	// ExplainAliasing marks tasks (like nanoxml-5) that need one level
	// of aliasing expansion before the desired statements are reachable.
	ExplainAliasing bool
}

// Measure runs the BFS metric for a task under a given slicer. Both
// slicers receive the same control-dependence allowance; the thin
// slicer additionally receives the one-level aliasing expansion when
// the task calls for it (traditional slicing follows base edges
// natively).
func Measure(s *core.Slicer, g *sdg.Graph, task Task) Result {
	seeds := core.SeedsAt(g, task.SeedFile, task.SeedLine)
	desired := make(map[Line]bool, len(task.Desired))
	for _, l := range task.Desired {
		desired[l] = true
	}
	budget := Budget{ControlHops: task.ControlDeps}
	if task.ExplainAliasing && s.Opts.Mode == core.Thin {
		budget.BaseHops = 1
	}
	return BFSBudget(s, seeds, desired, budget)
}

// MeasureSession runs the BFS metric for a task over an analysis
// session: the dependence graph is fetched from the session's store
// (built at most once, no matter how many tasks are measured) and the
// slicer is derived per the requested options.
func MeasureSession(sess *anasession.Session, opts core.Options, task Task) (Result, error) {
	g, err := sess.Graph()
	if err != nil {
		return Result{}, err
	}
	var s *core.Slicer
	if opts.Mode == core.Thin {
		s = core.NewThin(g)
	} else {
		s = core.NewTraditional(g, opts.FollowControl)
	}
	s.WithBudget(sess.Budget())
	return Measure(s, g, task), nil
}

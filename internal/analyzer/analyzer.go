// Package analyzer is the library facade: it runs the full pipeline
// (parse → type check → lower to SSA IR → pointer analysis → dependence
// graph) and hands out thin and traditional slicers. Tools, examples,
// and experiments all start here.
//
// This package is a thin wrapper over package session: its options are
// the session's, and Analyze opens a session, drives the artifact chain
// to the dependence graph, and bundles the results. Callers that make
// repeated or multi-seed queries over the same program should hold the
// session (Analysis.Session) or open one directly.
package analyzer

import (
	"context"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/core"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// Analysis bundles the artifacts of one analyzed program.
type Analysis struct {
	Info  *types.Info
	Prog  *ir.Program
	Pts   *pointsto.Result
	Graph *sdg.Graph

	// budget, when non-nil, bounds slicers handed out by this analysis.
	budget *budget.Budget
	// sess is the analysis session the artifacts came from; derived
	// artifacts (CHA, mod-ref, the context-sensitive graph) are
	// memoized there.
	sess *session.Session
}

// Partial reports whether any phase stopped early on an exhausted
// budget: the analysis is sound but may under-approximate (missing
// points-to facts or dependence edges). See Pts.Downgraded,
// Pts.Truncated, and Graph.Truncated for which phase degraded.
func (a *Analysis) Partial() bool {
	return (a.Pts != nil && a.Pts.Truncated) || (a.Graph != nil && a.Graph.Truncated)
}

// Option configures Analyze. Options are the session's: anything that
// configures session.Open configures Analyze the same way.
type Option = session.Option

// The analysis options, re-exported from package session.
var (
	WithObjSens    = session.WithObjSens
	WithContainers = session.WithContainers
	WithEntries    = session.WithEntries
	WithoutPrelude = session.WithoutPrelude
	WithVerifyIR   = session.WithVerifyIR
	WithBudget     = session.WithBudget
	InStore        = session.InStore
)

// Analyze runs the pipeline over the given sources (name → content).
func Analyze(sources map[string]string, opts ...Option) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), sources, opts...)
}

// AnalyzeCtx is Analyze bounded by a context: cancellation, context
// deadline, and a WithBudget option (which takes precedence over ctx)
// stop the pipeline promptly with a typed, phase-tagged error (see
// package budget) — or, for step exhaustion past the points-to phase, a
// partial Analysis for which Partial reports true. It never panics:
// internal faults surface as *budget.ErrInternal tagged with the
// running phase.
func AnalyzeCtx(ctx context.Context, sources map[string]string, opts ...Option) (*Analysis, error) {
	opts = append([]Option{WithBudget(budget.New(ctx))}, opts...)
	return FromSession(session.Open(sources, opts...))
}

// FromSession drives an existing session to a full Analysis: the
// artifact chain up to the dependence graph is built (or fetched from
// the session's store) and bundled. Panics inside any phase surface as
// phase-tagged *budget.ErrInternal; an exhausted step budget past the
// points-to phase yields a partial Analysis for which Partial reports
// true, exactly as in the pre-session pipeline.
func FromSession(sess *session.Session) (*Analysis, error) {
	graph, err := sess.Graph()
	if err != nil {
		return nil, err
	}
	// The chain below the graph is memoized: these re-fetch, not rebuild.
	info, err := sess.Info()
	if err != nil {
		return nil, err
	}
	prog, err := sess.Prog()
	if err != nil {
		return nil, err
	}
	pts, err := sess.PointsTo()
	if err != nil {
		return nil, err
	}
	return &Analysis{Info: info, Prog: prog, Pts: pts, Graph: graph, budget: sess.Budget(), sess: sess}, nil
}

// Session returns the analysis session the artifacts came from.
func (a *Analysis) Session() *session.Session { return a.sess }

// MustAnalyze is Analyze panicking on error, for known-good sources.
func MustAnalyze(sources map[string]string, opts ...Option) *Analysis {
	a, err := Analyze(sources, opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// Budget returns the budget bounding this analysis' slicers and any
// downstream passes (nil means unlimited).
func (a *Analysis) Budget() *budget.Budget { return a.budget }

// ThinSlicer returns a thin slicer over the analysis' graph, bounded
// by the analysis' budget.
func (a *Analysis) ThinSlicer() *core.Slicer {
	return core.NewThin(a.Graph).WithBudget(a.budget)
}

// TraditionalSlicer returns a traditional slicer; withControl includes
// transitive control dependences.
func (a *Analysis) TraditionalSlicer(withControl bool) *core.Slicer {
	return core.NewTraditional(a.Graph, withControl).WithBudget(a.budget)
}

// SeedsAt returns the reachable statements at file:line.
func (a *Analysis) SeedsAt(file string, line int) []ir.Instr {
	return core.SeedsAt(a.Graph, file, line)
}

// Method returns the lowered method with the given qualified name.
func (a *Analysis) Method(qname string) *ir.Method {
	for _, m := range a.Prog.Methods {
		if m.Name() == qname {
			return m
		}
	}
	return nil
}

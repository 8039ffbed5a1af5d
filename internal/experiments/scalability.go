package experiments

import (
	"fmt"
	"io"
	"time"

	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/analyzer"
	"thinslice/internal/bench"
	"thinslice/internal/csslice"
	"thinslice/internal/ir"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/sdg"
)

// ScalRow compares the context-insensitive dependence graph (§5.2,
// direct heap edges) against the context-sensitive SDG with heap
// parameters (§5.3) on one benchmark. The paper's observation is that
// heap parameter nodes explode as programs grow while the CI variant
// stays near-linear.
type ScalRow struct {
	Name string

	CINodes   int
	CIEdges   int
	CIBuildMS int64
	// CISliceUS is the time for one thin slice over the CI graph, in
	// microseconds ("insignificant compared to the pointer analysis").
	CISliceUS int64

	CSNodes      int
	CSHeapParams int
	CSEdges      int
	CSBuildMS    int64
	// CSSummaryMS is the tabulation summary precomputation time.
	CSSummaryMS int64
}

// Scalability measures both graph variants on every benchmark.
func Scalability(scale int) ([]ScalRow, error) {
	var rows []ScalRow
	for _, name := range bench.AllNames {
		b := bench.Generate(name, scale)
		a, err := analyzer.Analyze(b.Sources)
		if err != nil {
			return nil, err
		}
		row := ScalRow{Name: name}

		start := time.Now()
		g := sdg.Build(a.Prog, a.Pts)
		row.CIBuildMS = time.Since(start).Milliseconds()
		row.CINodes = g.NumNodes()
		row.CIEdges = g.NumEdges()

		seed := representativeSeed(a)
		if seed != nil {
			start = time.Now()
			a.ThinSlicer().Slice(seed)
			row.CISliceUS = time.Since(start).Microseconds()
		}

		start = time.Now()
		mr := modref.Compute(a.Prog, a.Pts)
		cs := csslice.Build(a.Prog, a.Pts, mr)
		row.CSBuildMS = time.Since(start).Milliseconds()
		row.CSNodes = cs.NumNodes()
		row.CSHeapParams = cs.NumHeapParamNodes()
		row.CSEdges = cs.NumEdges()

		start = time.Now()
		csslice.NewSlicer(cs, true, false)
		row.CSSummaryMS = time.Since(start).Milliseconds()

		rows = append(rows, row)
	}
	return rows, nil
}

// representativeSeed picks a deterministic seed statement: the first
// Print in an entry method, else any Print.
func representativeSeed(a *analyzer.Analysis) ir.Instr {
	var seed ir.Instr
	for _, m := range a.Pts.Entries() {
		m.Instrs(func(ins ir.Instr) {
			if seed == nil {
				if _, ok := ins.(*ir.Print); ok {
					seed = ins
				}
			}
		})
		if seed != nil {
			return seed
		}
	}
	for _, m := range a.Pts.ReachableMethods() {
		m.Instrs(func(ins ir.Instr) {
			if seed == nil {
				if _, ok := ins.(*ir.Print); ok {
					seed = ins
				}
			}
		})
		if seed != nil {
			break
		}
	}
	return seed
}

// WriteScalability renders the comparison.
func WriteScalability(w io.Writer, rows []ScalRow) {
	fmt.Fprintf(w, "Scalability (§6.1): CI direct-heap-edge graph vs CS SDG with heap parameters\n")
	fmt.Fprintf(w, "%-10s | %9s %9s %7s %9s | %9s %10s %9s %7s %9s\n",
		"bench", "CI-nodes", "CI-edges", "t(ms)", "slice(us)",
		"CS-nodes", "heapparams", "CS-edges", "t(ms)", "summ(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s | %9d %9d %7d %9d | %9d %10d %9d %7d %9d\n",
			r.Name, r.CINodes, r.CIEdges, r.CIBuildMS, r.CISliceUS,
			r.CSNodes, r.CSHeapParams, r.CSEdges, r.CSBuildMS, r.CSSummaryMS)
	}
}

// noObjSensPointsTo exists for ablation benches: a pointer analysis at
// reduced precision over the same program.
func noObjSensPointsTo(a *analyzer.Analysis) *pointsto.Result {
	// No budget: the ablation run is unbounded, so Analyze cannot fail.
	res, err := pointsto.Analyze(a.Prog, pointsto.Config{
		ObjSensContainers: false,
		ContainerClasses:  prelude.ContainerClasses,
	})
	if err != nil {
		panic(err)
	}
	return res
}

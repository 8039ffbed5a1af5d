package dataflow_test

import (
	"testing"

	"thinslice/internal/bench"
	"thinslice/internal/dataflow"
	"thinslice/internal/session"
)

// BenchmarkSolve times one tabulation per problem on each program of the
// /check benchmark mix, with the upstream artifacts built once outside
// the timed loop. node-facts and path-edges size the solve.
func BenchmarkSolve(b *testing.B) {
	for _, spec := range []struct {
		name  string
		scale int
	}{{"nanoxml", 1}, {"jack", 5}, {"mtrt", 5}} {
		s := session.Open(bench.Generate(spec.name, spec.scale).Sources)
		prog, err := s.Prog()
		if err != nil {
			b.Fatalf("Prog: %v", err)
		}
		pts, err := s.PointsTo()
		if err != nil {
			b.Fatalf("PointsTo: %v", err)
		}
		g, err := s.Graph()
		if err != nil {
			b.Fatalf("Graph: %v", err)
		}
		cg, err := s.CHA()
		if err != nil {
			b.Fatalf("CHA: %v", err)
		}
		in := dataflow.Inputs{Prog: prog, Pts: pts, Graph: g, CHA: cg}
		for _, p := range []dataflow.Problem{dataflow.InitProblem{}, dataflow.NewTaintProblem(nil), dataflow.CloseProblem{}} {
			b.Run(p.Name()+"/"+spec.name, func(b *testing.B) {
				b.ReportAllocs()
				var res *dataflow.Results
				for i := 0; i < b.N; i++ {
					if res, err = dataflow.Solve(in, p, nil); err != nil {
						b.Fatalf("Solve: %v", err)
					}
				}
				b.ReportMetric(float64(res.NumNodeFacts()), "node-facts")
				b.ReportMetric(float64(res.PathEdges), "path-edges")
			})
		}
	}
}

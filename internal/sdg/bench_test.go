package sdg_test

import (
	"fmt"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// coldPrograms are the programs of the cold and restart workloads.
var coldPrograms = []struct {
	name  string
	scale int
}{{"nanoxml", 10}, {"javac", 5}, {"nanoxml", 15}}

// benchInput is one cold program's lowering and points-to result,
// built once outside the timed loop.
type benchInput struct {
	name string
	prog *ir.Program
	pts  *pointsto.Result
}

func benchInputs(b *testing.B) []benchInput {
	var out []benchInput
	for _, spec := range coldPrograms {
		name := fmt.Sprintf("%s@%d", spec.name, spec.scale)
		prog, err := session.Open(bench.Generate(spec.name, spec.scale).Sources).Prog()
		if err != nil {
			b.Fatalf("%s: Prog: %v", name, err)
		}
		pts, err := pointsto.Analyze(prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
		if err != nil {
			b.Fatalf("%s: Analyze: %v", name, err)
		}
		out = append(out, benchInput{name, prog, pts})
	}
	return out
}

// BenchmarkBuild times one SDG build per cold program, the work a
// decoded graph replaces.
func BenchmarkBuild(b *testing.B) {
	for _, in := range benchInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sdg.BuildBudget(in.prog, in.pts, nil); err != nil {
					b.Fatalf("BuildBudget: %v", err)
				}
			}
		})
	}
}

// BenchmarkDecodeGraph times decoding the cold programs' SDG payloads,
// the restart workload's replacement for the build, and reports the
// payload's bytes per edge.
func BenchmarkDecodeGraph(b *testing.B) {
	for _, in := range benchInputs(b) {
		g := sdg.Build(in.prog, in.pts)
		payload, err := sdg.EncodeGraph(g)
		if err != nil {
			b.Fatalf("%s: EncodeGraph: %v", in.name, err)
		}
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := sdg.DecodeGraph(payload, in.prog, in.pts); err != nil {
					b.Fatalf("DecodeGraph: %v", err)
				}
			}
			b.ReportMetric(float64(len(payload))/float64(max(g.NumEdges(), 1)), "bytes/edge")
		})
	}
}

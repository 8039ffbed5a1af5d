package pointsto_test

import (
	"context"
	"fmt"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/bench"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/session"
)

// benchSpec names a generated benchmark program and its scale.
type benchSpec struct {
	name  string
	scale int
}

// coldPrograms and checkPrograms are the programs of the cold and check
// workloads.
var (
	coldPrograms  = []benchSpec{{"nanoxml", 10}, {"javac", 5}, {"nanoxml", 15}}
	checkPrograms = []benchSpec{{"nanoxml", 1}, {"jack", 5}, {"mtrt", 5}}
)

// benchProgram is one program of a perfbench workload, lowered once
// outside the timed loop.
type benchProgram struct {
	name string
	prog *ir.Program
}

func benchPrograms(b *testing.B, specs []benchSpec) []benchProgram {
	var out []benchProgram
	for _, spec := range specs {
		prog, err := session.Open(bench.Generate(spec.name, spec.scale).Sources).Prog()
		if err != nil {
			b.Fatalf("%s@%d: Prog: %v", spec.name, spec.scale, err)
		}
		out = append(out, benchProgram{fmt.Sprintf("%s@%d", spec.name, spec.scale), prog})
	}
	return out
}

// BenchmarkAnalyze times one cold solve per program of the cold and
// check workloads, configured as a server session configures it: object
// sensitivity on, with a budget attached. objects, contexts and
// set-words size the solve; set-words counts the 64-bit words the
// result's variable points-to sets hold.
func BenchmarkAnalyze(b *testing.B) {
	progs := append(benchPrograms(b, coldPrograms), benchPrograms(b, checkPrograms)...)
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *pointsto.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pointsto.Analyze(p.prog, pointsto.Config{
					ObjSensContainers: true,
					ContainerClasses:  prelude.ContainerClasses,
					Budget:            budget.New(context.Background()),
				})
				if err != nil {
					b.Fatalf("Analyze: %v", err)
				}
			}
			b.ReportMetric(float64(len(res.Objects())), "objects")
			b.ReportMetric(float64(res.NumCGNodes()), "contexts")
			b.ReportMetric(float64(pointsto.SetWordsForTest(res)), "set-words")
		})
	}
}

// BenchmarkDecodeResult times decoding the cold programs' points-to
// payloads, the restart workload's replacement for the solve.
func BenchmarkDecodeResult(b *testing.B) {
	for _, p := range benchPrograms(b, coldPrograms) {
		res, err := pointsto.Analyze(p.prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
		if err != nil {
			b.Fatalf("%s: Analyze: %v", p.name, err)
		}
		payload, err := pointsto.EncodeResult(res)
		if err != nil {
			b.Fatalf("%s: EncodeResult: %v", p.name, err)
		}
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if _, err := pointsto.DecodeResult(payload, p.prog); err != nil {
					b.Fatalf("DecodeResult: %v", err)
				}
			}
		})
	}
}

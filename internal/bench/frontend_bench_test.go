package bench_test

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
)

// frontEndPrograms are the programs of perfbench's cold workload
// (nanoxml@10, javac@5, nanoxml@15) and its check workload (nanoxml@1,
// jack@5, mtrt@5).
var frontEndPrograms = []struct {
	name  string
	scale int
}{{"nanoxml", 10}, {"javac", 5}, {"nanoxml", 15}, {"nanoxml", 1}, {"jack", 5}, {"mtrt", 5}}

// frontEndSink keeps each benchmarked call's result live.
var frontEndSink any

// frontEndInput is one program's sources and, parsed once outside the
// timed loops, its classes together with the prelude's.
type frontEndInput struct {
	name    string
	names   []string // file names, sorted
	sources map[string]string
	prog    *ast.Program
}

func frontEndInputs(b *testing.B) []frontEndInput {
	pre, err := parser.ParseFile(prelude.FileName, prelude.Source)
	if err != nil {
		b.Fatalf("prelude: %v", err)
	}
	var out []frontEndInput
	for _, spec := range frontEndPrograms {
		in := frontEndInput{name: fmt.Sprintf("%s@%d", spec.name, spec.scale), sources: bench.Generate(spec.name, spec.scale).Sources}
		for name := range in.sources {
			in.names = append(in.names, name)
		}
		sort.Strings(in.names)
		in.prog = &ast.Program{Classes: append(append([]*ast.ClassDecl(nil), pre...), parseFiles(b, in)...)}
		out = append(out, in)
	}
	return out
}

// parseFiles parses every file of in, as a session does on a cold
// request (the prelude comes from a process-wide cache).
func parseFiles(b *testing.B, in frontEndInput) []*ast.ClassDecl {
	var classes []*ast.ClassDecl
	for _, name := range in.names {
		cs, err := parser.ParseFile(name, in.sources[name])
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		classes = append(classes, cs...)
	}
	return classes
}

func check(b *testing.B, prog *ast.Program) *types.Info {
	info, err := types.Check(prog)
	if err != nil {
		b.Fatalf("Check: %v", err)
	}
	return info
}

// retainedBytes returns how much live heap what build returns holds,
// beyond what was live before it ran.
func retainedBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// BenchmarkParse times parsing one program's files and reports the
// bytes its ASTs retain.
func BenchmarkParse(b *testing.B) {
	for _, in := range frontEndInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frontEndSink = parseFiles(b, in)
			}
			b.StopTimer()
			b.ReportMetric(retainedBytes(func() any { return parseFiles(b, in) }), "ast-B")
		})
	}
}

// BenchmarkCheck times checking one program with the prelude and
// reports the bytes the checked Info retains beyond the AST.
func BenchmarkCheck(b *testing.B) {
	for _, in := range frontEndInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frontEndSink = check(b, in.prog)
			}
			b.StopTimer()
			b.ReportMetric(retainedBytes(func() any { return check(b, in.prog) }), "info-B")
		})
	}
}

// BenchmarkLower times lowering one checked program to SSA IR.
func BenchmarkLower(b *testing.B) {
	for _, in := range frontEndInputs(b) {
		info := check(b, in.prog)
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frontEndSink = ir.Lower(info)
			}
		})
	}
}

package ir_test

import (
	"fmt"
	"slices"
	"testing"

	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
	"thinslice/internal/randprog"
)

// referenceRegs is MethodRegs' specification: the same walk, deduped by
// pointer identity alone.
func referenceRegs(m *ir.Method) []*ir.Reg {
	var regs []*ir.Reg
	seen := make(map[*ir.Reg]bool)
	add := func(r *ir.Reg) {
		if r != nil && !seen[r] {
			seen[r] = true
			regs = append(regs, r)
		}
	}
	m.Instrs(func(ins ir.Instr) {
		add(ins.Def())
		for _, u := range ins.Uses() {
			add(u)
		}
	})
	return regs
}

func assertMethodRegs(t *testing.T, name string, prog *ir.Program) {
	t.Helper()
	for _, m := range prog.Methods {
		if got, want := ir.MethodRegs(m), referenceRegs(m); !slices.Equal(got, want) {
			t.Errorf("%s: %s: MethodRegs lists %d registers %v, the reference %d %v", name, m.Name(), len(got), got, len(want), want)
		}
	}
}

// TestMethodRegsMatchesPointerIdentity checks MethodRegs against the
// reference on lowered programs, where some methods' register counters
// run well past the registers they list, and on decoded methods whose
// payload repeats register numbers and numbers registers past the
// counter, outside the table, or below zero.
func TestMethodRegsMatchesPointerIdentity(t *testing.T) {
	progs := map[string]map[string]string{}
	for name, srcs := range paperSources() {
		progs[name] = srcs
	}
	for _, name := range bench.AllNames {
		progs[name+"@2"] = bench.Generate(name, 2).Sources
	}
	for _, spec := range []struct {
		name  string
		scale int
	}{{"nanoxml", 10}, {"javac", 5}, {"nanoxml", 15}} {
		progs[fmt.Sprintf("%s@%d", spec.name, spec.scale)] = bench.Generate(spec.name, spec.scale).Sources
	}
	for seed := int64(0); seed < 40; seed++ {
		progs[fmt.Sprintf("rand%d", seed)] = randprog.Generate(seed, randprog.DefaultConfig)
	}
	for name, srcs := range progs {
		info, err := loader.Load(srcs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog := ir.Lower(info)
		assertMethodRegs(t, name, prog)

		// Renumber every method's registers in its payload: the first
		// half share numbers in pairs, and the rest run past the
		// counter, past the table's bound or below zero.
		for _, m := range prog.Methods {
			for i, r := range referenceRegs(m) {
				switch {
				case i < 8:
					r.Num = i / 2
				case i%3 == 0:
					r.Num = 1<<20 + i
				case i%3 == 1:
					r.Num = -i
				default:
					r.Num = 4*i + 7
				}
			}
		}
		assertMethodRegs(t, name+" (renumbered)", prog)
		data, err := ir.EncodeProgram(prog)
		if err != nil {
			t.Fatalf("%s: EncodeProgram: %v", name, err)
		}
		decoded, err := ir.DecodeProgram(data, info)
		if err != nil {
			t.Fatalf("%s: DecodeProgram: %v", name, err)
		}
		assertMethodRegs(t, name+" (renumbered, decoded)", decoded)
	}
}

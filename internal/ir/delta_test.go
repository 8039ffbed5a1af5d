package ir_test

import (
	"testing"

	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
)

// lowerJobNames returns every lowered method's qualified name in
// declaration order.
func lowerJobNames(p *ir.Program) []string {
	names := make([]string, 0, len(p.Methods))
	for _, m := range p.Methods {
		names = append(names, m.Name())
	}
	return names
}

// TestLowerUnitsReassemblesByteIdentical pins the unit contract
// directly (the session tests only exercise it end to end): encoding
// every method of a cold lower as a unit payload and reassembling the
// program entirely from those payloads reproduces the cold listing
// byte for byte, with every method counted as reused.
func TestLowerUnitsReassemblesByteIdentical(t *testing.T) {
	for name, srcs := range paperSources() {
		t.Run(name, func(t *testing.T) {
			info, err := loader.Load(srcs)
			if err != nil {
				t.Fatal(err)
			}
			cold := ir.Lower(info)
			want := ir.Sprint(cold)

			if len(cold.Diags) > 0 {
				t.Fatalf("fixture has diagnostics: %v", cold.Diags)
			}
			reuse := make(map[string][]byte, len(cold.Methods))
			for _, m := range cold.Methods {
				reuse[m.Name()] = ir.EncodeUnit(m)
			}
			got, st, err := ir.LowerUnits(info, reuse)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reused != len(reuse) || st.Lowered != len(cold.Methods)-len(reuse) {
				t.Fatalf("split %+v, want %d reused", st, len(reuse))
			}
			if g := ir.Sprint(got); g != want {
				t.Fatalf("reassembled program differs\ncold:\n%s\nunits:\n%s", want, g)
			}
		})
	}
}

// TestMapProgramsRejectsMismatch pins MapPrograms' safety check: a
// name lowered from different sources in the two programs is a
// structural mismatch, not a silent bad mapping.
func TestMapProgramsRejectsMismatch(t *testing.T) {
	srcA := map[string]string{"a.mj": "class A {\n    int f(int x) { return x + 1; }\n}\n"}
	srcB := map[string]string{"a.mj": "class A {\n    int f(int x) { int y; y = x + 1;\n        return y + 2; }\n}\n"}
	infoA, err := loader.Load(srcA)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := loader.Load(srcB)
	if err != nil {
		t.Fatal(err)
	}
	progA := ir.Lower(infoA)
	progB := ir.Lower(infoB)
	names := lowerJobNames(progA)

	if _, err := ir.MapPrograms(progA, progA, names); err != nil {
		t.Fatalf("identical programs must map: %v", err)
	}
	if _, err := ir.MapPrograms(progA, progB, []string{"A.f"}); err == nil {
		t.Fatal("structurally different A.f mapped without error")
	}
}

package ir_test

import (
	"testing"

	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
)

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

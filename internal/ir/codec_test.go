package ir_test

import (
	"bytes"
	"strings"
	"testing"

	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/types"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
)

// paperSources enumerates the paper's running examples.
func paperSources() map[string]map[string]string {
	return map[string]map[string]string{
		"firstnames": {papercases.FirstNamesFile: papercases.FirstNames},
		"toy":        {papercases.ToyFile: papercases.Toy},
		"filebug":    {papercases.FileBugFile: papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile: papercases.ToughCast},
	}
}

// roundTrip encodes prog, decodes it against the same checked info,
// and asserts the decoded program is listing-identical (instruction
// IDs, register numbers, positions, diagnostics) and re-encodes to the
// same bytes.
func roundTrip(t *testing.T, info *types.Info, prog *ir.Program) {
	t.Helper()
	data, err := ir.EncodeProgram(prog)
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	got, err := ir.DecodeProgram(data, info)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if want, have := ir.Sprint(prog), ir.Sprint(got); want != have {
		t.Fatalf("decoded program differs\nwant:\n%s\ngot:\n%s", want, have)
	}
	if err := ir.Verify(got); err != nil {
		t.Fatalf("decoded program fails verification: %v", err)
	}
	data2, err := ir.EncodeProgram(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding the decoded program produced different bytes")
	}
}

func TestCodecRoundTripPapercases(t *testing.T) {
	for name, srcs := range paperSources() {
		t.Run(name, func(t *testing.T) {
			info, err := loader.Load(srcs)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, info, ir.Lower(info))
		})
	}
}

func TestCodecRoundTripRandprog(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		info, err := loader.Load(randprog.Generate(int64(seed), randprog.DefaultConfig))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prog := ir.Lower(info)
		if len(prog.Diags) > 0 {
			continue // uncacheable programs are never encoded
		}
		roundTrip(t, info, prog)
	}
}

func TestCodecRefusesDiagnostics(t *testing.T) {
	// A program with lowering diagnostics is uncacheable; encoding one
	// would persist a partial IR with placeholder values.
	info, err := loader.Load(paperSources()["toy"])
	if err != nil {
		t.Fatal(err)
	}
	prog := ir.Lower(info)
	prog.Diags = append(prog.Diags, ir.Diagnostic{Msg: "synthetic"})
	if _, err := ir.EncodeProgram(prog); err == nil {
		t.Fatal("EncodeProgram accepted a program with diagnostics")
	}
}

func TestCodecRejectsCorruptPayloads(t *testing.T) {
	info, err := loader.Load(paperSources()["toy"])
	if err != nil {
		t.Fatal(err)
	}
	data, err := ir.EncodeProgram(ir.Lower(info))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length: must error, never panic.
	for n := 0; n < len(data); n += 7 {
		if _, err := ir.DecodeProgram(data[:n], info); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Bit flips across the payload: either a decode error or a program
	// that still verifies — never a panic. (Unlike the container layer,
	// the raw payload has no checksum of its own; the CRC lives in the
	// artifact record wrapper.)
	for i := 0; i < len(data); i += 11 {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x04
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at byte %d panicked: %v", i, r)
				}
			}()
			ir.DecodeProgram(mutated, info)
		}()
	}
	// Unknown names must be errors, not nil pointers.
	empty, err := loader.Load(map[string]string{"empty.mj": `class Main {
    static void main() {
        print("hello");
    }
}`})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.DecodeProgram(data, empty); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("decoding against a mismatched program: err = %v, want unknown-name error", err)
	}
}

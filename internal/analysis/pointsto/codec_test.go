package pointsto_test

import (
	"bytes"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/papercases"
)

// TestDecodeResultAcceptsOnlyCanonicalPayloads flips every bit of each
// paper figure's encoding. A flipped payload must either be rejected or
// decode to a Result that re-encodes to exactly the flipped bytes: the
// decoder accepts only what the encoder writes, so no two payloads
// decode to the same answers and no payload decodes to a Result whose
// queries disagree with each other.
func TestDecodeResultAcceptsOnlyCanonicalPayloads(t *testing.T) {
	for name, srcs := range map[string]map[string]string{
		"firstnames": {papercases.FirstNamesFile: papercases.FirstNames},
		"toy":        {papercases.ToyFile: papercases.Toy},
		"filebug":    {papercases.FileBugFile: papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile: papercases.ToughCast},
	} {
		prog := loadProg(t, srcs)
		res, err := pointsto.Analyze(prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
		if err != nil {
			t.Fatalf("%s: Analyze: %v", name, err)
		}
		enc, err := pointsto.EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: EncodeResult: %v", name, err)
		}
		bad := 0
		flipped := make([]byte, len(enc))
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				copy(flipped, enc)
				flipped[i] ^= 1 << bit
				dec, err := pointsto.DecodeResult(flipped, prog)
				if err != nil {
					continue
				}
				again, err := pointsto.EncodeResult(dec)
				if err != nil {
					t.Fatalf("%s: re-encoding byte %d bit %d: %v", name, i, bit, err)
				}
				if !bytes.Equal(again, flipped) {
					if bad < 3 {
						t.Errorf("%s: flipping byte %d bit %d decodes to a Result that re-encodes differently", name, i, bit)
					}
					bad++
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d single-bit flips decode to a non-canonical Result", name, bad, 8*len(enc))
		}
	}
}

// TestDecodeResultRejectsBadHeapContexts encodes results whose object
// depth disagrees with its heap context's, or whose heap context chain
// is a cycle. Both re-encode to the same bytes, so the bit-flip sweep
// cannot see them; the decoder must reject them, since the depth rule
// is what keeps every context chain finite.
func TestDecodeResultRejectsBadHeapContexts(t *testing.T) {
	prog := loadProg(t, map[string]string{papercases.FirstNamesFile: papercases.FirstNames})
	for _, how := range []string{"depth", "cycle"} {
		res, err := pointsto.Analyze(prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
		if err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		if !pointsto.CorruptObjectForTest(res, how) {
			t.Fatal("firstnames has no object with a heap context")
		}
		enc, err := pointsto.EncodeResult(res)
		if err != nil {
			t.Fatalf("%s: EncodeResult: %v", how, err)
		}
		if _, err := pointsto.DecodeResult(enc, prog); err == nil {
			t.Errorf("%s: DecodeResult accepted the payload", how)
		}
	}
}

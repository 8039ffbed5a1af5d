package sdg_test

// Round-trip equivalence sweep over the whole artifact chain. Each
// artifact is decoded against the *decoded* versions of its upstream
// artifacts — exactly how the disk cache rehydrates after a restart —
// and compared against the freshly built one with the strongest
// available oracle: byte-identical listings for IR (ir.Sprint),
// fingerprint identity for the SDG (sdg.Fingerprint), and canonical
// re-encoding equality for the points-to, CHA, and mod-ref results.

import (
	"bytes"
	"testing"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/sdg"
)

func chainSources() map[string]map[string]string {
	return map[string]map[string]string{
		"firstnames": {papercases.FirstNamesFile: papercases.FirstNames},
		"toy":        {papercases.ToyFile: papercases.Toy},
		"filebug":    {papercases.FileBugFile: papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile: papercases.ToughCast},
	}
}

// roundTripChain builds every artifact fresh, round-trips each through
// its codec (decoding against the decoded upstreams), and compares.
func roundTripChain(t *testing.T, info *types.Info) {
	t.Helper()
	prog := ir.Lower(info)
	if len(prog.Diags) > 0 {
		t.Fatalf("lowering diagnostics: %v", prog.Diags)
	}

	irData, err := ir.EncodeProgram(prog)
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	prog2, err := ir.DecodeProgram(irData, info)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if ir.Sprint(prog) != ir.Sprint(prog2) {
		t.Fatal("decoded IR listing differs from fresh lowering")
	}

	cfg := pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses}
	pts, err := pointsto.Analyze(prog, cfg)
	if err != nil {
		t.Fatalf("pointsto.Analyze: %v", err)
	}
	ptsData, err := pointsto.EncodeResult(pts)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	pts2, err := pointsto.DecodeResult(ptsData, prog2)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	ptsData2, err := pointsto.EncodeResult(pts2)
	if err != nil {
		t.Fatalf("re-encode pts: %v", err)
	}
	if !bytes.Equal(ptsData, ptsData2) {
		t.Fatal("points-to result did not round-trip to identical bytes")
	}

	g := sdg.Build(prog, pts)
	sdgData, err := sdg.EncodeGraph(g)
	if err != nil {
		t.Fatalf("EncodeGraph: %v", err)
	}
	g2, err := sdg.DecodeGraph(sdgData, prog2, pts2)
	if err != nil {
		t.Fatalf("DecodeGraph: %v", err)
	}
	if g.Fingerprint() != g2.Fingerprint() {
		t.Fatal("decoded SDG fingerprint differs from fresh build")
	}

	cg := cha.Build(prog, pts.Entries())
	chaData, err := cha.EncodeCallGraph(cg)
	if err != nil {
		t.Fatalf("EncodeCallGraph: %v", err)
	}
	cg2, err := cha.DecodeCallGraph(chaData, prog2)
	if err != nil {
		t.Fatalf("DecodeCallGraph: %v", err)
	}
	chaData2, err := cha.EncodeCallGraph(cg2)
	if err != nil {
		t.Fatalf("re-encode cha: %v", err)
	}
	if !bytes.Equal(chaData, chaData2) {
		t.Fatal("CHA call graph did not round-trip to identical bytes")
	}
	if cg.NumReachable() != cg2.NumReachable() {
		t.Fatalf("CHA reachable count %d != %d", cg.NumReachable(), cg2.NumReachable())
	}

	mr := modref.Compute(prog, pts)
	mrData, err := modref.EncodeResult(mr)
	if err != nil {
		t.Fatalf("modref.EncodeResult: %v", err)
	}
	mr2, err := modref.DecodeResult(mrData, prog2, pts2)
	if err != nil {
		t.Fatalf("modref.DecodeResult: %v", err)
	}
	mrData2, err := modref.EncodeResult(mr2)
	if err != nil {
		t.Fatalf("re-encode modref: %v", err)
	}
	if !bytes.Equal(mrData, mrData2) {
		t.Fatal("mod-ref result did not round-trip to identical bytes")
	}
}

func TestArtifactChainRoundTripPapercases(t *testing.T) {
	for name, srcs := range chainSources() {
		t.Run(name, func(t *testing.T) {
			info, err := loader.Load(srcs)
			if err != nil {
				t.Fatal(err)
			}
			roundTripChain(t, info)
		})
	}
}

func TestArtifactChainRoundTripRandprog(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		info, err := loader.Load(randprog.Generate(int64(seed), randprog.DefaultConfig))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		roundTripChain(t, info)
	}
}

// TestSDGDecodeRejectsCorruptPayloads pins that the downstream decoders
// never panic on corrupt bytes — the diskstore converts their errors
// into quarantines.
func TestSDGDecodeRejectsCorruptPayloads(t *testing.T) {
	info, err := loader.Load(chainSources()["toy"])
	if err != nil {
		t.Fatal(err)
	}
	prog := ir.Lower(info)
	pts, err := pointsto.Analyze(prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sdg.EncodeGraph(sdg.Build(prog, pts))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n += 5 {
		if _, err := sdg.DecodeGraph(data[:n], prog, pts); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	for i := 0; i < len(data); i += 3 {
		mutated := append([]byte(nil), data...)
		mutated[i] ^= 0x20
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at byte %d panicked: %v", i, r)
				}
			}()
			sdg.DecodeGraph(mutated, prog, pts)
		}()
	}
	// An edge kind past the last one must be rejected before it is
	// narrowed: 2^32-1 would read as kind -1 and 2^32+2 as EdgeHeap.
	for _, kind := range []uint64{uint64(sdg.EdgeCallControl) + 1, 1<<32 - 1, 1<<32 + uint64(sdg.EdgeHeap)} {
		if _, err := sdg.DecodeGraph(withFirstEdgeKind(t, data, prog, pts, kind), prog, pts); err == nil {
			t.Errorf("edge kind %d accepted", kind)
		}
	}
}

// withFirstEdgeKind returns data with the kind of its first dependence
// replaced by kind.
func withFirstEdgeKind(t *testing.T, data []byte, prog *ir.Program, pts *pointsto.Result, kind uint64) []byte {
	t.Helper()
	g, err := sdg.DecodeGraph(data, prog, pts)
	if err != nil {
		t.Fatal(err)
	}
	var w artifact.Writer
	w.Uvarint(uint64(g.NumNodes()))
	for n := 0; n < g.NumNodes(); n++ {
		deps := g.Deps(sdg.Node(n))
		w.Uvarint(uint64(len(deps)))
		if len(deps) > 0 {
			w.Int64(int64(deps[0].Src))
			at := len(w.Bytes()) // the kind's one-byte varint
			var k artifact.Writer
			k.Uvarint(kind)
			return append(append(append([]byte(nil), data[:at]...), k.Bytes()...), data[at+1:]...)
		}
	}
	t.Fatal("graph has no edges")
	return nil
}

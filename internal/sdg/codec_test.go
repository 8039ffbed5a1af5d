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
	"encoding/binary"
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
	// The patch itself is sound: the last kind is accepted.
	if _, err := sdg.DecodeGraph(withFirstEdgeKind(t, data, prog, pts, uint64(sdg.EdgeCallControl)), prog, pts); err != nil {
		t.Fatalf("edge kind %d rejected: %v", sdg.EdgeCallControl, err)
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
// replaced by kind, keeping the dependence's has-via bit.
func withFirstEdgeKind(t *testing.T, data []byte, prog *ir.Program, pts *pointsto.Result, kind uint64) []byte {
	t.Helper()
	g, err := sdg.DecodeGraph(data, prog, pts)
	if err != nil {
		t.Fatal(err)
	}
	var w artifact.Writer
	w.Uvarint(uint64(g.NumNodes()))
	w.Uvarint(uint64(g.NumEdges()))
	for n := 0; n < g.NumNodes(); n++ {
		deps := g.Deps(sdg.Node(n))
		w.Uvarint(uint64(len(deps)))
		if len(deps) > 0 {
			w.Int64(int64(deps[0].Src) - int64(n))
			at := len(w.Bytes()) // the kind's one-byte varint
			var k artifact.Writer
			k.Uvarint(kind<<1 | uint64(data[at]&1))
			return append(append(append([]byte(nil), data[:at]...), k.Bytes()...), data[at+1:]...)
		}
	}
	t.Fatal("graph has no edges")
	return nil
}

// encodeEdited writes g in the version 3 layout, as EncodeGraph does,
// after rewriting one dependence or caller node: edit sees each
// dependence, then editCaller each caller node, in order until one
// returns true, having changed that one. It reports whether one did.
func encodeEdited(g *sdg.Graph, edit func(d *sdg.Dep) bool, editCaller func(c *sdg.Node) bool) ([]byte, bool) {
	var w artifact.Writer
	w.Uvarint(uint64(g.NumNodes()))
	w.Uvarint(uint64(g.NumEdges()))
	edited := false
	for n := 0; n < g.NumNodes(); n++ {
		deps := g.Deps(sdg.Node(n))
		w.Uvarint(uint64(len(deps)))
		prev := int64(n)
		for _, d := range deps {
			if !edited && edit != nil {
				edited = edit(&d)
			}
			w.Int64(int64(d.Src) - prev)
			if d.Via == sdg.NoNode {
				w.Uvarint(uint64(d.Kind) << 1)
			} else {
				w.Uvarint(uint64(d.Kind)<<1 | 1)
				w.Int64(int64(d.Via) - int64(d.Src))
			}
			prev = int64(d.Src)
		}
	}
	for _, mc := range g.Pts.MCtxs() {
		callers := g.CallerNodes(mc)
		w.Uvarint(uint64(len(callers)))
		for _, c := range callers {
			if !edited && editCaller != nil {
				edited = editCaller(&c)
			}
			w.Int64(int64(c))
		}
	}
	return w.Bytes(), edited
}

// TestDecodeGraphRejectsOutOfRangeNodes: a source, Via or caller node
// outside the graph re-encodes to the same bytes, so the bit-flip sweep
// cannot see it; the decoder must reject it before a slicer indexes by
// it.
func TestDecodeGraphRejectsOutOfRangeNodes(t *testing.T) {
	for _, pg := range paperGraphs(t) {
		g, err := sdg.DecodeGraph(pg.enc, pg.prog, pg.pts)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := encodeEdited(g, nil, nil); !bytes.Equal(enc, pg.enc) {
			t.Fatalf("%s: the test's encoder disagrees with EncodeGraph", pg.name)
		}
		total := sdg.Node(g.NumNodes())
		setVia := func(v sdg.Node) func(d *sdg.Dep) bool {
			return func(d *sdg.Dep) bool {
				if d.Via == sdg.NoNode {
					return false
				}
				d.Via = v
				return true
			}
		}
		setCaller := func(v sdg.Node) func(c *sdg.Node) bool {
			return func(c *sdg.Node) bool { *c = v; return true }
		}
		for name, edit := range map[string]struct {
			dep    func(d *sdg.Dep) bool
			caller func(c *sdg.Node) bool
		}{
			"source -1":    {dep: func(d *sdg.Dep) bool { d.Src = sdg.NoNode; return true }},
			"source past":  {dep: func(d *sdg.Dep) bool { d.Src = total; return true }},
			"via past":     {dep: setVia(total)},
			"via below -1": {dep: setVia(-2)},
			"caller -1":    {caller: setCaller(sdg.NoNode)},
			"caller past":  {caller: setCaller(total)},
		} {
			enc, edited := encodeEdited(g, edit.dep, edit.caller)
			if !edited {
				t.Fatalf("%s: no dependence to give a %s", pg.name, name)
			}
			if _, err := sdg.DecodeGraph(enc, pg.prog, pg.pts); err == nil {
				t.Errorf("%s: %s accepted", pg.name, name)
			}
		}
	}
}

// paperGraph is one paper figure's program, points-to result and SDG
// payload.
type paperGraph struct {
	name string
	prog *ir.Program
	pts  *pointsto.Result
	enc  []byte
}

func paperGraphs(tb testing.TB) []paperGraph {
	tb.Helper()
	var out []paperGraph
	for _, name := range []string{"firstnames", "toy", "filebug", "toughcast"} {
		info, err := loader.Load(chainSources()[name])
		if err != nil {
			tb.Fatal(err)
		}
		prog := ir.Lower(info)
		pts, err := pointsto.Analyze(prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
		if err != nil {
			tb.Fatal(err)
		}
		enc, err := sdg.EncodeGraph(sdg.Build(prog, pts))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, paperGraph{name, prog, pts, enc})
	}
	return out
}

// TestDecodeGraphAcceptsOnlyCanonicalPayloads flips every bit of each
// paper figure's encoding. A flipped payload must either be rejected or
// decode to a graph that re-encodes to exactly the flipped bytes, so no
// two payloads decode to the same graph.
func TestDecodeGraphAcceptsOnlyCanonicalPayloads(t *testing.T) {
	for _, pg := range paperGraphs(t) {
		bad := 0
		flipped := make([]byte, len(pg.enc))
		for i := range pg.enc {
			for bit := 0; bit < 8; bit++ {
				copy(flipped, pg.enc)
				flipped[i] ^= 1 << bit
				g, err := sdg.DecodeGraph(flipped, pg.prog, pg.pts)
				if err != nil {
					continue
				}
				again, err := sdg.EncodeGraph(g)
				if err != nil {
					t.Fatalf("%s: re-encoding byte %d bit %d: %v", pg.name, i, bit, err)
				}
				if !bytes.Equal(again, flipped) {
					if bad < 3 {
						t.Errorf("%s: flipping byte %d bit %d decodes to a graph that re-encodes differently", pg.name, i, bit)
					}
					bad++
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d single-bit flips decode to a non-canonical graph", pg.name, bad, 8*len(pg.enc))
		}
	}
}

// FuzzDecodeGraph decodes arbitrary bytes against one of the paper
// figures' programs, chosen by which. Decoding must not panic, an
// accepted payload must re-encode to itself, and a header declaring
// more edges than the remaining bytes can hold at two bytes each must
// be rejected before the decoder lays out the graph or its edge array.
func FuzzDecodeGraph(f *testing.F) {
	pgs := paperGraphs(f)
	for i, pg := range pgs {
		f.Add(uint8(i), pg.enc)
		// The same rows under a header declaring one edge more than
		// their bytes can hold.
		_, n := binary.Uvarint(pg.enc)
		_, m := binary.Uvarint(pg.enc[n:])
		rows := pg.enc[n+m:]
		oversized := binary.AppendUvarint(append([]byte(nil), pg.enc[:n]...), uint64(len(rows)/2+1))
		f.Add(uint8(i), append(oversized, rows...))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		pg := pgs[int(which)%len(pgs)]
		g, err := sdg.DecodeGraph(data, pg.prog, pg.pts)
		if err == nil {
			again, err := sdg.EncodeGraph(g)
			if err != nil {
				t.Fatalf("re-encoding an accepted payload: %v", err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, data)
			}
		}
		if !oversizedEdgeCount(data) {
			return
		}
		if err == nil {
			t.Fatal("accepted a header declaring more edges than its bytes can hold")
		}
		// Rejecting the header formats one error. Laying out even the
		// smallest figure's node scaffolding takes dozens of allocations.
		if allocs := testing.AllocsPerRun(1, func() { sdg.DecodeGraph(data, pg.prog, pg.pts) }); allocs > 8 {
			t.Fatalf("rejecting an oversized edge count took %.0f allocations", allocs)
		}
	})
}

// oversizedEdgeCount reports whether data's header parses and declares
// more edges than the bytes after it can hold at two bytes per edge.
func oversizedEdgeCount(data []byte) bool {
	_, n := binary.Uvarint(data)
	if n <= 0 {
		return false
	}
	edges, m := binary.Uvarint(data[n:])
	if m <= 0 {
		return false
	}
	return edges > uint64(len(data)-n-m)/2
}

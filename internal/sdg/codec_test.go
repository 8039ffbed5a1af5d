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
	"strings"
	"testing"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/bench"
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
	g := sdg.Build(prog, pts)
	data, err := sdg.EncodeGraph(g)
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
	// The patch itself is sound: the last kind an own row may hold is
	// accepted.
	withKind := func(kind uint64) []byte {
		p := modelOf(g)
		for n := range p.rows {
			if len(p.rows[n].own) > 0 && p.rows[n].ctrl == len(p.rows[n].own) {
				p.rows[n].own[0].kind = kind
				return p.bytes()
			}
		}
		t.Fatal("graph has no row of scan edges")
		return nil
	}
	if _, err := sdg.DecodeGraph(withKind(uint64(sdg.EdgeReturn)), prog, pts); err != nil {
		t.Fatalf("edge kind %d rejected: %v", sdg.EdgeReturn, err)
	}
	// An edge kind past the last one must be rejected before it is
	// narrowed: 2^32-1 would read as kind -1 and 2^32+3 as EdgeParam.
	for _, kind := range []uint64{uint64(sdg.EdgeCallControl) + 1, 1<<32 - 1, 1<<32 + uint64(sdg.EdgeParam)} {
		if _, err := sdg.DecodeGraph(withKind(kind), prog, pts); err == nil {
			t.Errorf("edge kind %d accepted", kind)
		}
	}
}

// payload is a test-side model of the version 4 sdg payload, written
// by bytes exactly as EncodeGraph writes it (the out-of-range test
// checks that first); the tests edit the model to build payloads
// EncodeGraph never writes.
type payload struct {
	nodes   int
	callers [][]int64 // per context
	lists   [][]int64 // heap lists, in order of first reference
	rows    []payloadRow
}

type payloadRow struct {
	ref   uint64 // 0 for no heap list, k+1 for list k
	entry bool
	own   []ownEdge
	ctrl  int // index of the first control edge in own
}

type ownEdge struct {
	src, via int64
	kind     uint64
	hasVia   bool
}

// modelOf reads g's factored rows into a payload model.
func modelOf(g *sdg.Graph) *payload {
	p := &payload{nodes: g.NumNodes()}
	for _, mc := range g.Pts.MCtxs() {
		var cs []int64
		for _, c := range g.CallerNodes(mc) {
			cs = append(cs, int64(c))
		}
		p.callers = append(p.callers, cs)
	}
	index := make(map[int32]uint64)
	for n := 0; n < g.NumNodes(); n++ {
		r := g.Row(sdg.Node(n))
		row := payloadRow{entry: r.CallList >= 0, ctrl: len(r.Scan)}
		for _, d := range append(append([]sdg.Dep(nil), r.Scan...), r.Ctrl...) {
			row.own = append(row.own, ownEdge{src: int64(d.Src), via: int64(d.Via), kind: uint64(d.Kind), hasVia: d.Via != sdg.NoNode})
		}
		if r.HeapList >= 0 {
			k, ok := index[r.HeapList]
			if !ok {
				k = uint64(len(p.lists))
				index[r.HeapList] = k
				var srcs []int64
				for _, src := range r.Heap {
					srcs = append(srcs, int64(src))
				}
				p.lists = append(p.lists, srcs)
			}
			row.ref = k + 1
		}
		p.rows = append(p.rows, row)
	}
	return p
}

// bytes writes the model, with a header counting what it holds.
func (p *payload) bytes() []byte {
	own, callers, listed := 0, 0, 0
	for _, r := range p.rows {
		own += len(r.own)
	}
	for _, cs := range p.callers {
		callers += len(cs)
	}
	for _, l := range p.lists {
		listed += len(l)
	}
	var w artifact.Writer
	for _, v := range []int{p.nodes, own, callers, len(p.lists), listed} {
		w.Uvarint(uint64(v))
	}
	for _, cs := range p.callers {
		w.Uvarint(uint64(len(cs)))
		for _, c := range cs {
			w.Int64(c)
		}
	}
	for _, l := range p.lists {
		w.Uvarint(uint64(len(l)))
		prev := int64(0)
		for _, src := range l {
			w.Int64(src - prev)
			prev = src
		}
	}
	for n, r := range p.rows {
		rv := r.ref << 1
		if r.entry {
			rv |= 1
		}
		w.Uvarint(rv)
		w.Uvarint(uint64(len(r.own)))
		prev := int64(n)
		for _, e := range r.own {
			w.Int64(e.src - prev)
			if e.hasVia {
				w.Uvarint(e.kind<<1 | 1)
				w.Int64(e.via - e.src)
			} else {
				w.Uvarint(e.kind << 1)
			}
			prev = e.src
		}
	}
	return w.Bytes()
}

// TestDecodeGraphRejectsOutOfRangeNodes: a source, Via, caller or heap
// list node outside the graph re-encodes to the same bytes, so the
// bit-flip sweep cannot see it; the decoder must reject it before a
// slicer indexes by it.
func TestDecodeGraphRejectsOutOfRangeNodes(t *testing.T) {
	for _, pg := range append(paperGraphs(t), nanoxmlGraph(t)) {
		g, err := sdg.DecodeGraph(pg.enc, pg.prog, pg.pts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(modelOf(g).bytes(), pg.enc) {
			t.Fatalf("%s: the test's model disagrees with EncodeGraph", pg.name)
		}
		total := int64(g.NumNodes())
		firstEdge := func(edit func(e *ownEdge) bool) func(p *payload) bool {
			return func(p *payload) bool {
				for n := range p.rows {
					for i := range p.rows[n].own {
						if edit(&p.rows[n].own[i]) {
							return true
						}
					}
				}
				return false
			}
		}
		setVia := func(v int64) func(p *payload) bool {
			return firstEdge(func(e *ownEdge) bool {
				if !e.hasVia {
					return false
				}
				e.via = v
				return true
			})
		}
		firstOf := func(lists func(p *payload) [][]int64, v int64) func(p *payload) bool {
			return func(p *payload) bool {
				for _, l := range lists(p) {
					if len(l) > 0 {
						l[0] = v
						return true
					}
				}
				return false
			}
		}
		callers := func(p *payload) [][]int64 { return p.callers }
		heapLists := func(p *payload) [][]int64 { return p.lists }
		for _, c := range []struct {
			name string
			edit func(p *payload) bool
		}{
			{"source -1", firstEdge(func(e *ownEdge) bool { e.src = -1; return true })},
			{"source past", firstEdge(func(e *ownEdge) bool { e.src = total; return true })},
			{"via past", setVia(total)},
			{"via below -1", setVia(-2)},
			{"caller -1", firstOf(callers, -1)},
			{"caller past", firstOf(callers, total)},
			{"heap source -1", firstOf(heapLists, -1)},
			{"heap source past", firstOf(heapLists, total)},
		} {
			p := modelOf(g)
			if !c.edit(p) {
				t.Fatalf("%s: no place for a %s", pg.name, c.name)
			}
			if _, err := sdg.DecodeGraph(p.bytes(), pg.prog, pg.pts); err == nil {
				t.Errorf("%s: %s accepted", pg.name, c.name)
			}
		}
	}
}

// TestDecodeGraphRejectsNonFactoredPayloads: each payload below is
// well formed byte by byte, and each would decode to a graph whose
// re-encoding differs or whose rows break the factored layout the
// slicers rely on, so DecodeGraph must reject it, naming the fault.
// Each edit applies to nanoxml@1's payload.
func TestDecodeGraphRejectsNonFactoredPayloads(t *testing.T) {
	pg := nanoxmlGraph(t)
	g, err := sdg.DecodeGraph(pg.enc, pg.prog, pg.pts)
	if err != nil {
		t.Fatal(err)
	}
	// firstRef returns the row that first references list k.
	firstRef := func(p *payload, k uint64) int {
		for n, r := range p.rows {
			if r.ref == k+1 {
				return n
			}
		}
		return -1
	}
	noCallers := -1 // a node whose context has no callers
	for n := 0; n < g.NumNodes() && noCallers < 0; n++ {
		if len(g.CallerNodes(g.CtxOf(sdg.Node(n)))) == 0 {
			noCallers = n
		}
	}
	cases := []struct {
		name, want string
		edit       func(p *payload) bool
	}{
		{"list reference past the declared lists", "names heap list", func(p *payload) bool {
			p.rows[firstRef(p, uint64(len(p.lists)-1))].ref = uint64(len(p.lists)) + 1
			p.lists = p.lists[:len(p.lists)-1]
			return true
		}},
		{"list reference skipping ahead", "names heap list", func(p *payload) bool {
			if len(p.lists) < 2 {
				return false
			}
			// Swap the first references of lists 0 and 1 without
			// reordering the lists.
			a, b := firstRef(p, 0), firstRef(p, 1)
			p.rows[a].ref, p.rows[b].ref = 2, 1
			return true
		}},
		{"declared list no row references", "rows reference", func(p *payload) bool {
			p.lists = append(p.lists, []int64{0})
			return true
		}},
		{"empty list", "has 0 sources", func(p *payload) bool {
			// Referenced after every other list's first reference.
			for n := firstRef(p, uint64(len(p.lists)-1)) + 1; n < len(p.rows); n++ {
				if p.rows[n].ref == 0 {
					p.lists = append(p.lists, nil)
					p.rows[n].ref = uint64(len(p.lists))
					return true
				}
			}
			return false
		}},
		{"heap edge in an own row", "heap edge in its own row", func(p *payload) bool {
			return setFirstKind(p, sdg.EdgeHeap)
		}},
		{"call-control edge in an own row", "call-control edge in its own row", func(p *payload) bool {
			return setFirstKind(p, sdg.EdgeCallControl)
		}},
		{"non-control edge after a control edge", "after a control edge", func(p *payload) bool {
			for n := range p.rows {
				if r := &p.rows[n]; r.ctrl < len(r.own) {
					r.own = append(r.own, ownEdge{src: r.own[r.ctrl].src, kind: uint64(sdg.EdgeLocal)})
					return true
				}
			}
			return false
		}},
		{"entry flag in a context without callers", "which has none", func(p *payload) bool {
			if noCallers < 0 {
				return false
			}
			p.rows[noCallers].entry = true
			return true
		}},
	}
	for _, c := range cases {
		p := modelOf(g)
		if !c.edit(p) {
			t.Fatalf("%s: nanoxml@1 has no place for this edit", c.name)
		}
		_, err := sdg.DecodeGraph(p.bytes(), pg.prog, pg.pts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// setFirstKind gives the first own edge of a row without control edges
// kind k, dropping its Via.
func setFirstKind(p *payload, k sdg.EdgeKind) bool {
	for n := range p.rows {
		if r := &p.rows[n]; len(r.own) > 0 && r.ctrl == len(r.own) {
			r.own[0] = ownEdge{src: r.own[0].src, kind: uint64(k)}
			return true
		}
	}
	return false
}

// paperGraph is one program's lowering, points-to result and SDG
// payload.
type paperGraph struct {
	name string
	prog *ir.Program
	pts  *pointsto.Result
	enc  []byte
}

func graphOf(tb testing.TB, name string, srcs map[string]string) paperGraph {
	tb.Helper()
	info, err := loader.Load(srcs)
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
	return paperGraph{name, prog, pts, enc}
}

func paperGraphs(tb testing.TB) []paperGraph {
	tb.Helper()
	var out []paperGraph
	for _, name := range []string{"firstnames", "toy", "filebug", "toughcast"} {
		out = append(out, graphOf(tb, name, chainSources()[name]))
	}
	return out
}

// nanoxmlGraph is nanoxml@1's graph, whose rows share heap lists and
// callers.
func nanoxmlGraph(tb testing.TB) paperGraph {
	return graphOf(tb, "nanoxml@1", bench.Generate("nanoxml", 1).Sources)
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
// more own edges, callers, lists or listed sources than the remaining
// bytes can hold must be rejected before the decoder lays out the
// graph or allocates anything for them.
func FuzzDecodeGraph(f *testing.F) {
	pgs := paperGraphs(f)
	for i, pg := range pgs {
		f.Add(uint8(i), pg.enc)
		// The same body under a header declaring one own edge more
		// than its bytes can hold, and under one declaring more lists.
		h := readHeader(pg.enc)
		body := pg.enc[h.size:]
		for _, over := range []header{
			{h.nodes, uint64(len(body))/2 + 1, h.callers, h.lists, h.listed, 0},
			{h.nodes, h.own, h.callers, uint64(len(body)) + 1, h.listed, 0},
		} {
			f.Add(uint8(i), append(over.bytes(), body...))
		}
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
		if !readHeader(data).oversized(len(data)) {
			return
		}
		if err == nil {
			t.Fatal("accepted a header declaring more than its bytes can hold")
		}
		// Rejecting the header allocates one error. Laying out even the
		// smallest figure's node scaffolding takes dozens of allocations.
		if allocs := testing.AllocsPerRun(1, func() { sdg.DecodeGraph(data, pg.prog, pg.pts) }); allocs > 8 {
			t.Fatalf("rejecting an oversized count took %.0f allocations", allocs)
		}
	})
}

// header is a payload's five leading counts; size is their byte
// length, 0 when they do not parse.
type header struct {
	nodes, own, callers, lists, listed uint64
	size                               int
}

func readHeader(data []byte) header {
	var v [5]uint64
	at := 0
	for i := range v {
		x, n := binary.Uvarint(data[at:])
		if n <= 0 {
			return header{}
		}
		v[i], at = x, at+n
	}
	return header{v[0], v[1], v[2], v[3], v[4], at}
}

func (h header) bytes() []byte {
	var w artifact.Writer
	for _, v := range []uint64{h.nodes, h.own, h.callers, h.lists, h.listed} {
		w.Uvarint(v)
	}
	return w.Bytes()
}

// oversized reports whether h parsed and declares more than the bytes
// after it, in a payload of total bytes, can hold: two per own edge and
// one per caller, list and listed source.
func (h header) oversized(total int) bool {
	if h.size == 0 {
		return false
	}
	left := uint64(total - h.size)
	return h.own > left/2 || h.callers > left || h.lists > left || h.listed > left ||
		2*h.own+h.callers+h.lists+h.listed > left
}

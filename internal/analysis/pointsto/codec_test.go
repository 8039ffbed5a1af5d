package pointsto_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
)

// paperResult is one paper figure's program, its object-sensitive
// result and that result's encoding.
type paperResult struct {
	name string
	prog *ir.Program
	res  *pointsto.Result
	enc  []byte
}

func paperResults(tb testing.TB) []paperResult {
	tb.Helper()
	var out []paperResult
	for _, c := range []struct {
		name, file, src string
	}{
		{"firstnames", papercases.FirstNamesFile, papercases.FirstNames},
		{"toy", papercases.ToyFile, papercases.Toy},
		{"filebug", papercases.FileBugFile, papercases.FileBug},
		{"toughcast", papercases.ToughCastFile, papercases.ToughCast},
	} {
		prog := loadProg(tb, map[string]string{c.file: c.src})
		res, err := pointsto.Analyze(prog, pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses})
		if err != nil {
			tb.Fatalf("%s: Analyze: %v", c.name, err)
		}
		enc, err := pointsto.EncodeResult(res)
		if err != nil {
			tb.Fatalf("%s: EncodeResult: %v", c.name, err)
		}
		out = append(out, paperResult{c.name, prog, res, enc})
	}
	return out
}

// TestDecodeResultAcceptsOnlyCanonicalPayloads flips every bit of each
// paper figure's encoding. A flipped payload must either be rejected by
// a check or decode to a Result that re-encodes to exactly the flipped
// bytes: the decoder accepts only what the encoder writes, so no two
// payloads decode to the same answers and no payload decodes to a
// Result whose queries disagree with each other. A payload rejected
// only because decoding it panicked fails the test too: the recover
// boundary is a backstop, not a check.
func TestDecodeResultAcceptsOnlyCanonicalPayloads(t *testing.T) {
	for _, pr := range paperResults(t) {
		bad, panicked := 0, 0
		flipped := make([]byte, len(pr.enc))
		for i := range pr.enc {
			for bit := 0; bit < 8; bit++ {
				copy(flipped, pr.enc)
				flipped[i] ^= 1 << bit
				dec, err := pointsto.DecodeResult(flipped, pr.prog)
				if errors.Is(err, pointsto.ErrRecoveredForTest) {
					if panicked < 3 {
						t.Errorf("%s: flipping byte %d bit %d is rejected only by the recover boundary: %v", pr.name, i, bit, err)
					}
					panicked++
					continue
				}
				if err != nil {
					continue
				}
				again, err := pointsto.EncodeResult(dec)
				if err != nil {
					t.Fatalf("%s: re-encoding byte %d bit %d: %v", pr.name, i, bit, err)
				}
				if !bytes.Equal(again, flipped) {
					if bad < 3 {
						t.Errorf("%s: flipping byte %d bit %d decodes to a Result that re-encodes differently", pr.name, i, bit)
					}
					bad++
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d single-bit flips decode to a non-canonical Result", pr.name, bad, 8*len(pr.enc))
		}
		if panicked > 0 {
			t.Errorf("%s: %d of %d single-bit flips are rejected by a recovered panic", pr.name, panicked, 8*len(pr.enc))
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

// ptsPayload is a test-side model of EncodeResult's format, section by
// section, so a test can write payloads no solve writes.
type ptsPayload struct {
	downgraded bool
	entries    []string
	objects    []ptsObject
	mctxs      []ptsMCtx
	vars       []ptsVar
	edges      []ptsEdge
	cis        []ptsCI
	reach      []string
}

type ptsObject struct {
	site, ctx   uint64
	class, elem string
	depth       int
}

type ptsMCtx struct {
	method string
	ctx    uint64
}

type ptsVar struct {
	reg, ctx uint64
	ids      []uint64
}

type ptsEdge struct {
	call, caller uint64
	callees      []uint64
}

type ptsCI struct {
	call  uint64
	names []string
}

func uvarints(r *artifact.Reader) []uint64 {
	out := make([]uint64, r.Len())
	for i := range out {
		out[i] = r.Uvarint()
	}
	return out
}

func strs(r *artifact.Reader) []string {
	out := make([]string, r.Len())
	for i := range out {
		out[i] = r.String()
	}
	return out
}

func parsePayload(t *testing.T, data []byte) *ptsPayload {
	t.Helper()
	r := artifact.NewReader(data)
	p := &ptsPayload{downgraded: r.Bool(), entries: strs(r)}
	p.objects = make([]ptsObject, r.Len())
	for i := range p.objects {
		p.objects[i] = ptsObject{r.Uvarint(), r.Uvarint(), r.String(), r.String(), r.Int()}
	}
	p.mctxs = make([]ptsMCtx, r.Len())
	for i := range p.mctxs {
		p.mctxs[i] = ptsMCtx{r.String(), r.Uvarint()}
	}
	p.vars = make([]ptsVar, r.Len())
	for i := range p.vars {
		p.vars[i] = ptsVar{r.Uvarint(), r.Uvarint(), uvarints(r)}
	}
	p.edges = make([]ptsEdge, r.Len())
	for i := range p.edges {
		p.edges[i] = ptsEdge{r.Uvarint(), r.Uvarint(), uvarints(r)}
	}
	p.cis = make([]ptsCI, r.Len())
	for i := range p.cis {
		p.cis[i] = ptsCI{r.Uvarint(), strs(r)}
	}
	p.reach = strs(r)
	if err := r.Finish(); err != nil {
		t.Fatalf("parsing a payload: %v", err)
	}
	return p
}

func (p *ptsPayload) bytes() []byte {
	var w artifact.Writer
	uvs := func(xs []uint64) {
		w.Uvarint(uint64(len(xs)))
		for _, x := range xs {
			w.Uvarint(x)
		}
	}
	ss := func(xs []string) {
		w.Uvarint(uint64(len(xs)))
		for _, x := range xs {
			w.String(x)
		}
	}
	w.Bool(p.downgraded)
	ss(p.entries)
	w.Uvarint(uint64(len(p.objects)))
	for _, o := range p.objects {
		w.Uvarint(o.site)
		w.Uvarint(o.ctx)
		w.String(o.class)
		w.String(o.elem)
		w.Int(o.depth)
	}
	w.Uvarint(uint64(len(p.mctxs)))
	for _, mc := range p.mctxs {
		w.String(mc.method)
		w.Uvarint(mc.ctx)
	}
	w.Uvarint(uint64(len(p.vars)))
	for _, v := range p.vars {
		w.Uvarint(v.reg)
		w.Uvarint(v.ctx)
		uvs(v.ids)
	}
	w.Uvarint(uint64(len(p.edges)))
	for _, e := range p.edges {
		w.Uvarint(e.call)
		w.Uvarint(e.caller)
		uvs(e.callees)
	}
	w.Uvarint(uint64(len(p.cis)))
	for _, c := range p.cis {
		w.Uvarint(c.call)
		ss(c.names)
	}
	ss(p.reach)
	return w.Bytes()
}

// unreachable returns a method of prog the result has no context for,
// with at least one register, and the index of its first register in
// the program-wide enumeration.
func unreachable(t *testing.T, prog *ir.Program, res *pointsto.Result) (*ir.Method, uint64) {
	t.Helper()
	base := 0
	for _, m := range prog.Methods {
		n := len(ir.MethodRegs(m))
		if !res.Reachable(m) && n > 0 {
			return m, uint64(base)
		}
		base += n
	}
	t.Fatal("every method with registers is reachable")
	return nil, 0
}

// TestDecodeResultRejectsPayloadsNoSolveWrites hand-writes payloads
// that re-encode to themselves, so the bit-flip sweep cannot see them,
// yet describe no solve: queries on them would disagree with every
// solve of the program. The decoder must reject each.
func TestDecodeResultRejectsPayloadsNoSolveWrites(t *testing.T) {
	pr := paperResults(t)[0] // firstnames: containers give it cloned contexts
	if got := parsePayload(t, pr.enc).bytes(); !bytes.Equal(got, pr.enc) {
		t.Fatal("the test-side payload model does not reproduce EncodeResult's bytes")
	}
	dead, deadReg := unreachable(t, pr.prog, pr.res)
	// replace swaps names[i] for the dead method's name, keeping the
	// list sorted and its length.
	replace := func(names []string, i int) {
		names[i] = dead.Sig.QualifiedName()
		sort.Strings(names)
	}
	for _, c := range []struct {
		name  string
		patch func(p *ptsPayload)
	}{
		{"duplicate method context", func(p *ptsPayload) {
			p.mctxs = append(p.mctxs, p.mctxs[len(p.mctxs)-1])
		}},
		{"points-to entry without a context", func(p *ptsPayload) {
			// A set for a register of a method no context analyzes.
			v := ptsVar{reg: deadReg, ids: []uint64{0}}
			i := sort.Search(len(p.vars), func(i int) bool { return p.vars[i].reg >= deadReg })
			p.vars = slices.Insert(p.vars, i, v)
		}},
		{"call edge outside its caller", func(p *ptsPayload) {
			// The only caller of a call replaced by a context of another
			// method.
			for i, e := range p.edges {
				if (i > 0 && p.edges[i-1].call == e.call) || (i+1 < len(p.edges) && p.edges[i+1].call == e.call) {
					continue
				}
				caller := p.mctxs[e.caller].method
				for j, mc := range p.mctxs {
					if mc.method != caller {
						p.edges[i].caller = uint64(j)
						return
					}
				}
			}
			t.Fatal("no call with a single caller context")
		}},
		{"reachable method without a context", func(p *ptsPayload) {
			replace(p.reach, 0)
		}},
		{"reachable methods missing one with a context", func(p *ptsPayload) {
			p.reach = p.reach[1:]
		}},
		{"callee set naming a method no edge calls", func(p *ptsPayload) {
			replace(p.cis[0].names, 0)
		}},
		{"callee set missing a callee's method", func(p *ptsPayload) {
			// One more callee context, of a method the call's callee set
			// does not name.
			e := &p.edges[0]
			for j, mc := range p.mctxs {
				if !slices.Contains(p.cis[0].names, mc.method) {
					e.callees = append(e.callees, uint64(j))
					slices.Sort(e.callees)
					return
				}
			}
		}},
	} {
		p := parsePayload(t, pr.enc)
		c.patch(p)
		data := p.bytes()
		dec, err := pointsto.DecodeResult(data, pr.prog)
		if err == nil {
			again, encErr := pointsto.EncodeResult(dec)
			t.Errorf("%s: DecodeResult accepted the payload (re-encodes to itself: %v, %v)", c.name, bytes.Equal(again, data), encErr)
			continue
		}
		if errors.Is(err, pointsto.ErrRecoveredForTest) {
			t.Errorf("%s: rejected only by the recover boundary: %v", c.name, err)
		}
	}
}

// FuzzDecodeResult decodes arbitrary bytes against one of the paper
// figures' programs, chosen by which. An accepted payload must
// re-encode to itself, and no payload may be rejected through the
// recover boundary: every fault must be caught by a check.
func FuzzDecodeResult(f *testing.F) {
	prs := paperResults(f)
	for i, pr := range prs {
		f.Add(uint8(i), pr.enc)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		pr := prs[int(which)%len(prs)]
		res, err := pointsto.DecodeResult(data, pr.prog)
		if errors.Is(err, pointsto.ErrRecoveredForTest) {
			t.Fatalf("rejected through the recover boundary: %v", err)
		}
		if err != nil {
			return
		}
		again, err := pointsto.EncodeResult(res)
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, data)
		}
	})
}

// answers flattens what PointsToIn and CalleesAt say about every
// register and call of prog under res, by register position and
// context ID.
func answers(prog *ir.Program, res *pointsto.Result) []string {
	var out []string
	for _, m := range prog.Methods {
		regs := ir.MethodRegs(m)
		for _, mc := range res.MCtxsOf(m) {
			for i, reg := range regs {
				if objs := res.PointsToIn(reg, mc); len(objs) > 0 {
					out = append(out, fmt.Sprintf("%s#%d@%d: %v", m.Name(), i, mc.ID, objs))
				}
			}
			m.Instrs(func(ins ir.Instr) {
				if call, ok := ins.(*ir.Call); ok {
					var ids []int
					for _, callee := range res.CalleesAt(call, mc) {
						ids = append(ids, callee.ID)
					}
					out = append(out, fmt.Sprintf("call %d@%d: %v", call.ID(), mc.ID, ids))
				}
			})
		}
	}
	return out
}

// TestRegistersWithoutDefInBody solves programs in which some registers
// have no definition in their method's body: Def cleared, or pointing at
// an instruction outside the program: one of another lowering of the
// same program (same ID, other object), one of a larger program (an ID
// past this program's), or a new instruction that defines the register
// but was never numbered, like one dropped with an unreachable block.
// Such registers take the solver's fallback table instead of their
// definition's slot, and must get the same sets, call edges and payload
// bytes as before; the payload must decode against the changed program
// and re-encode to itself.
func TestRegistersWithoutDefInBody(t *testing.T) {
	var corpus []map[string]string
	for _, c := range []struct{ file, src string }{
		{papercases.FirstNamesFile, papercases.FirstNames},
		{papercases.ToyFile, papercases.Toy},
		{papercases.FileBugFile, papercases.FileBug},
		{papercases.ToughCastFile, papercases.ToughCast},
	} {
		corpus = append(corpus, map[string]string{c.file: c.src})
	}
	for seed := 0; seed < 40; seed++ {
		corpus = append(corpus, randprog.Generate(int64(seed), randprog.DefaultConfig))
	}
	big := loadProg(t, bench.Generate("nanoxml", 2).Sources)
	cfg := pointsto.Config{ObjSensContainers: true, ContainerClasses: prelude.ContainerClasses}
	fallbacks := 0
	for n, srcs := range corpus {
		prog, twin := loadProg(t, srcs), loadProg(t, srcs)
		res, err := pointsto.Analyze(prog, cfg)
		if err != nil {
			t.Fatalf("program %d: Analyze: %v", n, err)
		}
		want, err := pointsto.EncodeResult(res)
		if err != nil {
			t.Fatalf("program %d: EncodeResult: %v", n, err)
		}
		wantAnswers := answers(prog, res)

		if big.NumInstrs <= 2*prog.NumInstrs {
			t.Fatalf("program %d: %d instructions, the larger program only %d", n, prog.NumInstrs, big.NumInstrs)
		}
		k := 0
		for mi, m := range prog.Methods {
			twinRegs := ir.MethodRegs(twin.Methods[mi])
			for i, reg := range ir.MethodRegs(m) {
				switch k++; k % 5 {
				case 0:
					reg.Def = nil
				case 1:
					reg.Def = twinRegs[i].Def
				case 2:
					reg.Def = big.InstrByID(big.NumInstrs - 1 - k%prog.NumInstrs)
				case 3:
					reg.Def = &ir.Copy{Dst: reg}
				}
			}
		}
		res, err = pointsto.Analyze(prog, cfg)
		if err != nil {
			t.Fatalf("program %d: Analyze without defs: %v", n, err)
		}
		fallbacks += pointsto.ExtraVarsForTest(res)
		got, err := pointsto.EncodeResult(res)
		if err != nil {
			t.Fatalf("program %d: EncodeResult without defs: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("program %d: payload changed when registers lost their defs", n)
		}
		if !slices.Equal(answers(prog, res), wantAnswers) {
			t.Errorf("program %d: PointsToIn or CalleesAt answers changed when registers lost their defs", n)
		}
		dec, err := pointsto.DecodeResult(got, prog)
		if err != nil {
			t.Fatalf("program %d: DecodeResult without defs: %v", n, err)
		}
		again, err := pointsto.EncodeResult(dec)
		if err != nil || !bytes.Equal(again, got) {
			t.Errorf("program %d: decoded payload re-encodes differently (%v)", n, err)
		}
		if !slices.Equal(answers(prog, dec), wantAnswers) {
			t.Errorf("program %d: decoded answers differ", n)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no register took the fallback table; the test is vacuous")
	}
}

package ir

// This file implements the persistent encoding of a lowered Program
// (package artifact's "ir" payload). The encoding is a relocatable
// snapshot: instead of serializing the pointer graph (which reaches
// into the whole type system), it stores flat tables over stable names
// — methods by qualified name, fields/classes by name, registers by a
// canonical per-method index, blocks by index — and DecodeProgram
// relinks them against a freshly checked *types.Info. Lowering is
// deterministic, so the decoded program is byte-identical (Sprint) to
// a fresh lowering of the same checked sources.

import (
	"fmt"
	"strings"

	"thinslice/internal/artifact"
	"thinslice/internal/lang/token"
	"thinslice/internal/lang/types"
)

// Instruction tags of the "ir" payload. Order is part of the format:
// renumbering requires an artifact.CodecVersion bump.
const (
	opParam = iota
	opConstInt
	opConstBool
	opConstStr
	opConstNull
	opCopy
	opBinOp
	opUnOp
	opStrOp
	opInput
	opNew
	opNewArray
	opGetField
	opSetField
	opGetStatic
	opSetStatic
	opArrayLoad
	opArrayStore
	opArrayLen
	opCast
	opInstanceOf
	opCall
	opPrint
	opAssert
	opReturn
	opThrow
	opIf
	opGoto
	opPhi
)

// MethodRegs returns every register of m in canonical order: walking
// blocks and instructions in program order, each instruction's
// definition first, then its unseen operands. Encoder and decoder (and
// the pointsto codec, which needs a program-wide register numbering)
// derive identical tables from identical programs.
func MethodRegs(m *Method) []*Reg {
	n := 0
	for _, b := range m.Blocks {
		n += len(b.Instrs)
	}
	// Lowering numbers a method's registers from 0, so a table indexed
	// by number finds the ones already listed without hashing. Its size
	// is bounded by the body, not by the counter a decoded payload
	// supplies: in none of 11,930 lowered methods (every benchmark
	// generator at scales 1–10, the paper figures, randprog seeds 0–199)
	// does a register number reach 1.4 times the instruction count. A
	// decoded method's numbers are whatever its payload holds, so a
	// number past the table, or one whose slot another register holds,
	// falls back to pointer identity and the order stays the same.
	byNum := make([]*Reg, min(max(m.nextID, 0), 2*n))
	var spilled map[*Reg]bool
	regs := make([]*Reg, 0, n)
	add := func(r *Reg) {
		if r == nil {
			return
		}
		if uint(r.Num) < uint(len(byNum)) {
			switch byNum[r.Num] {
			case r:
				return
			case nil:
				byNum[r.Num] = r
				regs = append(regs, r)
				return
			}
		}
		if spilled[r] {
			return
		}
		if spilled == nil {
			spilled = make(map[*Reg]bool)
		}
		spilled[r] = true
		regs = append(regs, r)
	}
	use := func(r *Reg, _ Role) { add(r) }
	for _, b := range m.Blocks {
		for _, ins := range b.Instrs {
			add(ins.Def())
			ins.EachUse(use)
		}
	}
	return regs
}

// EncodeProgram returns the persistent payload for p. Programs with
// lowering diagnostics are never cached and cannot be encoded.
func EncodeProgram(p *Program) ([]byte, error) {
	if len(p.Diags) > 0 {
		return nil, fmt.Errorf("ir: refusing to encode a program with %d diagnostic(s)", len(p.Diags))
	}
	var w artifact.Writer
	w.Uvarint(uint64(p.NumInstrs))
	w.Uvarint(uint64(len(p.Methods)))
	for _, m := range p.Methods {
		encodeMethod(&w, m)
	}
	return w.Bytes(), nil
}

func encodeMethod(w *artifact.Writer, m *Method) {
	w.String(m.Sig.QualifiedName())
	w.Uvarint(uint64(m.nextID))

	regs := MethodRegs(m)
	regIdx := make(map[*Reg]int, len(regs))
	for i, r := range regs {
		regIdx[r] = i
	}
	w.Uvarint(uint64(len(regs)))
	for _, r := range regs {
		w.Int(r.Num)
		w.String(typeString(r.Typ))
		w.String(r.Hint)
	}
	// ref encodes a nillable register operand as index+1.
	ref := func(r *Reg) {
		if r == nil {
			w.Uvarint(0)
			return
		}
		w.Uvarint(uint64(regIdx[r] + 1))
	}
	refs := func(rs []*Reg) {
		w.Uvarint(uint64(len(rs)))
		for _, r := range rs {
			ref(r)
		}
	}

	w.Uvarint(uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		w.Uvarint(uint64(len(b.Instrs)))
		for _, ins := range b.Instrs {
			encodeInstr(w, ins, ref, refs)
		}
	}
	// Preds and Succs both carry order that downstream passes rely on
	// (Phi edges parallel Preds), so both are explicit.
	for _, b := range m.Blocks {
		w.Uvarint(uint64(len(b.Preds)))
		for _, pr := range b.Preds {
			w.Uvarint(uint64(pr.Index))
		}
		w.Uvarint(uint64(len(b.Succs)))
		for _, sc := range b.Succs {
			w.Uvarint(uint64(sc.Index))
		}
	}
	// Params are Param instructions; store their position in the
	// method's flattened instruction sequence.
	instrSeq := make(map[Instr]int)
	n := 0
	m.Instrs(func(ins Instr) {
		instrSeq[ins] = n
		n++
	})
	w.Uvarint(uint64(len(m.Params)))
	for _, p := range m.Params {
		w.Uvarint(uint64(instrSeq[p]))
	}
}

func encodePos(w *artifact.Writer, p token.Pos) {
	w.String(p.File)
	w.Int(p.Line)
	w.Int(p.Col)
}

func encodeInstr(w *artifact.Writer, ins Instr, ref func(*Reg), refs func([]*Reg)) {
	tag := func(t int) {
		w.Uvarint(uint64(t))
		encodePos(w, ins.Pos())
	}
	switch ins := ins.(type) {
	case *Param:
		tag(opParam)
		ref(ins.Dst)
		w.Int(ins.Index)
		w.String(ins.Name)
	case *ConstInt:
		tag(opConstInt)
		ref(ins.Dst)
		w.Int64(ins.Val)
	case *ConstBool:
		tag(opConstBool)
		ref(ins.Dst)
		w.Bool(ins.Val)
	case *ConstStr:
		tag(opConstStr)
		ref(ins.Dst)
		w.String(ins.Val)
	case *ConstNull:
		tag(opConstNull)
		ref(ins.Dst)
	case *Copy:
		tag(opCopy)
		ref(ins.Dst)
		ref(ins.Src)
	case *BinOp:
		tag(opBinOp)
		ref(ins.Dst)
		w.Int(int(ins.Op))
		ref(ins.X)
		ref(ins.Y)
	case *UnOp:
		tag(opUnOp)
		ref(ins.Dst)
		w.Int(int(ins.Op))
		ref(ins.X)
	case *StrOp:
		tag(opStrOp)
		ref(ins.Dst)
		w.Int(int(ins.Op))
		refs(ins.Args)
	case *Input:
		tag(opInput)
		ref(ins.Dst)
		w.Bool(ins.IsInt)
	case *New:
		tag(opNew)
		ref(ins.Dst)
		w.String(ins.Class.Name)
	case *NewArray:
		tag(opNewArray)
		ref(ins.Dst)
		w.String(typeString(ins.Elem))
		ref(ins.Len)
	case *GetField:
		tag(opGetField)
		ref(ins.Dst)
		ref(ins.Obj)
		w.String(ins.Field.QualifiedName())
	case *SetField:
		tag(opSetField)
		ref(ins.Obj)
		w.String(ins.Field.QualifiedName())
		ref(ins.Val)
	case *GetStatic:
		tag(opGetStatic)
		ref(ins.Dst)
		w.String(ins.Field.QualifiedName())
	case *SetStatic:
		tag(opSetStatic)
		w.String(ins.Field.QualifiedName())
		ref(ins.Val)
	case *ArrayLoad:
		tag(opArrayLoad)
		ref(ins.Dst)
		ref(ins.Arr)
		ref(ins.Idx)
	case *ArrayStore:
		tag(opArrayStore)
		ref(ins.Arr)
		ref(ins.Idx)
		ref(ins.Val)
	case *ArrayLen:
		tag(opArrayLen)
		ref(ins.Dst)
		ref(ins.Arr)
	case *Cast:
		tag(opCast)
		ref(ins.Dst)
		ref(ins.Src)
		w.String(typeString(ins.Target))
	case *InstanceOf:
		tag(opInstanceOf)
		ref(ins.Dst)
		ref(ins.Src)
		w.String(ins.Class.Name)
	case *Call:
		tag(opCall)
		ref(ins.Dst)
		w.Int(int(ins.Mode))
		w.String(ins.Callee.QualifiedName())
		ref(ins.Recv)
		refs(ins.Args)
	case *Print:
		tag(opPrint)
		ref(ins.Val)
	case *Assert:
		tag(opAssert)
		ref(ins.Cond)
	case *Return:
		tag(opReturn)
		ref(ins.Val)
	case *Throw:
		tag(opThrow)
		ref(ins.Val)
	case *If:
		tag(opIf)
		ref(ins.Cond)
		w.Uvarint(uint64(ins.Then.Index))
		w.Uvarint(uint64(ins.Else.Index))
	case *Goto:
		tag(opGoto)
		w.Uvarint(uint64(ins.Target.Index))
	case *Phi:
		tag(opPhi)
		ref(ins.Dst)
		refs(ins.Edges)
	default:
		panic(fmt.Sprintf("ir: unencodable instruction %T", ins))
	}
}

// linker resolves the stable names of the encoding against a checked
// Info. A name that no longer resolves means the record does not match
// this build's semantics (a stale or corrupt entry) — an error, never
// a guess.
type linker struct {
	info      *types.Info
	methods   map[string]*types.MethodInfo
	fields    map[string]*types.FieldInfo
	typeCache map[string]types.Type
}

func newLinker(info *types.Info) *linker {
	l := &linker{
		info:      info,
		methods:   make(map[string]*types.MethodInfo),
		fields:    make(map[string]*types.FieldInfo),
		typeCache: make(map[string]types.Type),
	}
	for _, ci := range info.Classes { //determinism:ok — fills lookups keyed by unique qualified names
		for _, mi := range ci.Methods {
			l.methods[mi.QualifiedName()] = mi
		}
		if ci.Ctor != nil {
			l.methods[ci.Ctor.QualifiedName()] = ci.Ctor
		}
		for _, fi := range ci.Fields {
			l.fields[fi.QualifiedName()] = fi
		}
	}
	return l
}

func (l *linker) class(name string) (*types.ClassInfo, error) {
	if ci, ok := l.info.Classes[name]; ok {
		return ci, nil
	}
	return nil, fmt.Errorf("ir: decode: unknown class %q", name)
}

func (l *linker) method(qname string) (*types.MethodInfo, error) {
	if mi, ok := l.methods[qname]; ok {
		return mi, nil
	}
	return nil, fmt.Errorf("ir: decode: unknown method %q", qname)
}

func (l *linker) field(qname string) (*types.FieldInfo, error) {
	if fi, ok := l.fields[qname]; ok {
		return fi, nil
	}
	return nil, fmt.Errorf("ir: decode: unknown field %q", qname)
}

// typeString renders a type in the stable syntax parseType reads:
// basic-type keywords, class names, and "elem[]" arrays. "" encodes a
// nil type (registers of unlowered values never have one in practice,
// but the format tolerates it).
func typeString(t types.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

func (l *linker) parseType(s string) (types.Type, error) {
	if t, ok := l.typeCache[s]; ok {
		return t, nil
	}
	t, err := ParseType(l.info, s)
	if err != nil {
		return nil, err
	}
	l.typeCache[s] = t
	return t, nil
}

// ParseType resolves a type rendered by TypeString against info. The
// other artifact codecs (pointsto, modref) share it for element and
// cast-target types.
func ParseType(info *types.Info, s string) (types.Type, error) {
	switch {
	case s == "":
		return nil, nil
	case s == "int":
		return types.IntT, nil
	case s == "boolean":
		return types.BoolT, nil
	case s == "void":
		return types.VoidT, nil
	case s == "null":
		return types.NullT, nil
	case strings.HasSuffix(s, "[]"):
		elem, err := ParseType(info, s[:len(s)-2])
		if err != nil {
			return nil, err
		}
		return &types.Array{Elem: elem}, nil
	default:
		ci, ok := info.Classes[s]
		if !ok {
			return nil, fmt.Errorf("ir: decode: unknown type %q", s)
		}
		return types.ClassType(ci), nil
	}
}

// TypeString renders a type in the stable syntax ParseType reads:
// basic-type keywords, class names, and "elem[]" arrays. "" encodes a
// nil type.
func TypeString(t types.Type) string { return typeString(t) }

// DecodeProgram rebuilds a Program from data, relinking against info
// (the checked program the record was encoded from — same sources,
// same checker). Any structural fault in data is an error; decode
// never panics on corrupt input.
func DecodeProgram(data []byte, info *types.Info) (p *Program, err error) {
	// The reader is panic-free, but the relink arithmetic below indexes
	// slices with decoded values; a recover boundary turns any slip on
	// hostile input into an error.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("ir: decode: malformed payload: %v", r)
		}
	}()
	l := newLinker(info)
	r := artifact.NewReader(data)
	numInstrs := r.Uvarint()
	nMethods := r.Len()
	prog := &Program{Info: info, MethodOf: make(map[*types.MethodInfo]*Method, nMethods)}
	for i := 0; i < nMethods; i++ {
		m, err := decodeMethod(r, l)
		if err != nil {
			return nil, err
		}
		prog.Methods = append(prog.Methods, m)
		prog.MethodOf[m.Sig] = m
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	prog.numberInstrs()
	if uint64(prog.NumInstrs) != numInstrs {
		return nil, fmt.Errorf("ir: decode: %d instructions, header says %d", prog.NumInstrs, numInstrs)
	}
	return prog, nil
}

func decodeMethod(r *artifact.Reader, l *linker) (*Method, error) {
	sig, err := l.method(r.String())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if err != nil {
		return nil, err
	}
	m := &Method{Sig: sig}
	m.nextID = int(r.Uvarint())

	nRegs := r.Len()
	regs := make([]*Reg, nRegs)
	for i := range regs {
		num := r.Int()
		typ, terr := l.parseType(r.String())
		hint := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if terr != nil {
			return nil, terr
		}
		regs[i] = &Reg{Num: num, Typ: typ, Hint: hint, Method: m}
	}
	ref := func() (*Reg, error) {
		i := r.Uvarint()
		if i == 0 {
			return nil, nil
		}
		if i > uint64(len(regs)) {
			return nil, fmt.Errorf("ir: decode: register index %d of %d", i, len(regs))
		}
		return regs[i-1], nil
	}
	refList := func() ([]*Reg, error) {
		n := r.Len()
		if n == 0 {
			return nil, nil
		}
		out := make([]*Reg, n)
		for i := range out {
			reg, err := ref()
			if err != nil {
				return nil, err
			}
			out[i] = reg
		}
		return out, nil
	}

	nBlocks := r.Len()
	m.Blocks = make([]*Block, nBlocks)
	for i := range m.Blocks {
		m.Blocks[i] = &Block{Index: i, Method: m}
	}
	// Block bodies, then the forward-referencing fixups (branch
	// targets are decoded as indices inline, so one pass suffices).
	for _, b := range m.Blocks {
		nIns := r.Len()
		for j := 0; j < nIns; j++ {
			ins, err := decodeInstr(r, l, m, ref, refList)
			if err != nil {
				return nil, err
			}
			ins.setBlock(b)
			b.Instrs = append(b.Instrs, ins)
		}
	}
	blockAt := func(i uint64) *Block { return m.Blocks[i] } // recover boundary catches range faults
	for _, b := range m.Blocks {
		nPreds := r.Len()
		for j := 0; j < nPreds; j++ {
			b.Preds = append(b.Preds, blockAt(r.Uvarint()))
		}
		nSuccs := r.Len()
		for j := 0; j < nSuccs; j++ {
			b.Succs = append(b.Succs, blockAt(r.Uvarint()))
		}
	}

	var seq []Instr
	m.Instrs(func(ins Instr) { seq = append(seq, ins) })
	nParams := r.Len()
	for j := 0; j < nParams; j++ {
		idx := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		p, ok := seq[idx].(*Param)
		if !ok {
			return nil, fmt.Errorf("ir: decode: param slot %d is %T", idx, seq[idx])
		}
		m.Params = append(m.Params, p)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	// SSA def links: each instruction that defines a register is that
	// register's unique definition.
	m.Instrs(func(ins Instr) {
		if d := ins.Def(); d != nil {
			d.Def = ins
		}
	})
	return m, nil
}

func decodePos(r *artifact.Reader) token.Pos {
	return token.Pos{File: r.String(), Line: r.Int(), Col: r.Int()}
}

func decodeInstr(r *artifact.Reader, l *linker, m *Method, ref func() (*Reg, error), refList func() ([]*Reg, error)) (Instr, error) {
	tag := r.Uvarint()
	base := instrBase{pos: decodePos(r)}
	if r.Err() != nil {
		return nil, r.Err()
	}
	// reg / regs / fieldRef / etc. funnel the per-field error handling.
	var firstErr error
	reg := func() *Reg {
		v, err := ref()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	regs := func() []*Reg {
		v, err := refList()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	field := func() *types.FieldInfo {
		v, err := l.field(r.String())
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	class := func() *types.ClassInfo {
		v, err := l.class(r.String())
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	typ := func() types.Type {
		v, err := l.parseType(r.String())
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return v
	}
	blk := func() *Block {
		i := r.Uvarint()
		if i >= uint64(len(m.Blocks)) {
			if firstErr == nil {
				firstErr = fmt.Errorf("ir: decode: block index %d of %d", i, len(m.Blocks))
			}
			return m.Blocks[0]
		}
		return m.Blocks[i]
	}

	var ins Instr
	switch tag {
	case opParam:
		ins = &Param{instrBase: base, Dst: reg(), Index: r.Int(), Name: r.String()}
	case opConstInt:
		ins = &ConstInt{instrBase: base, Dst: reg(), Val: r.Int64()}
	case opConstBool:
		ins = &ConstBool{instrBase: base, Dst: reg(), Val: r.Bool()}
	case opConstStr:
		ins = &ConstStr{instrBase: base, Dst: reg(), Val: r.String()}
	case opConstNull:
		ins = &ConstNull{instrBase: base, Dst: reg()}
	case opCopy:
		ins = &Copy{instrBase: base, Dst: reg(), Src: reg()}
	case opBinOp:
		ins = &BinOp{instrBase: base, Dst: reg(), Op: token.Kind(r.Int()), X: reg(), Y: reg()}
	case opUnOp:
		ins = &UnOp{instrBase: base, Dst: reg(), Op: token.Kind(r.Int()), X: reg()}
	case opStrOp:
		ins = &StrOp{instrBase: base, Dst: reg(), Op: StrKind(r.Int()), Args: regs()}
	case opInput:
		ins = &Input{instrBase: base, Dst: reg(), IsInt: r.Bool()}
	case opNew:
		ins = &New{instrBase: base, Dst: reg(), Class: class()}
	case opNewArray:
		ins = &NewArray{instrBase: base, Dst: reg(), Elem: typ(), Len: reg()}
	case opGetField:
		ins = &GetField{instrBase: base, Dst: reg(), Obj: reg(), Field: field()}
	case opSetField:
		ins = &SetField{instrBase: base, Obj: reg(), Field: field(), Val: reg()}
	case opGetStatic:
		ins = &GetStatic{instrBase: base, Dst: reg(), Field: field()}
	case opSetStatic:
		ins = &SetStatic{instrBase: base, Field: field(), Val: reg()}
	case opArrayLoad:
		ins = &ArrayLoad{instrBase: base, Dst: reg(), Arr: reg(), Idx: reg()}
	case opArrayStore:
		ins = &ArrayStore{instrBase: base, Arr: reg(), Idx: reg(), Val: reg()}
	case opArrayLen:
		ins = &ArrayLen{instrBase: base, Dst: reg(), Arr: reg()}
	case opCast:
		ins = &Cast{instrBase: base, Dst: reg(), Src: reg(), Target: typ()}
	case opInstanceOf:
		ins = &InstanceOf{instrBase: base, Dst: reg(), Src: reg(), Class: class()}
	case opCall:
		c := &Call{instrBase: base, Dst: reg(), Mode: CallMode(r.Int())}
		mi, err := l.method(r.String())
		if err != nil && firstErr == nil {
			firstErr = err
		}
		c.Callee = mi
		c.Recv = reg()
		c.Args = regs()
		ins = c
	case opPrint:
		ins = &Print{instrBase: base, Val: reg()}
	case opAssert:
		ins = &Assert{instrBase: base, Cond: reg()}
	case opReturn:
		ins = &Return{instrBase: base, Val: reg()}
	case opThrow:
		ins = &Throw{instrBase: base, Val: reg()}
	case opIf:
		ins = &If{instrBase: base, Cond: reg(), Then: blk(), Else: blk()}
	case opGoto:
		ins = &Goto{instrBase: base, Target: blk()}
	case opPhi:
		ins = &Phi{instrBase: base, Dst: reg(), Edges: regs()}
	default:
		return nil, fmt.Errorf("ir: decode: unknown instruction tag %d", tag)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return ins, nil
}

package ir

import (
	"fmt"

	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/token"
	"thinslice/internal/lang/types"
)

// Lower translates a checked program into SSA IR, one method at a time
// in declaration order, then numbers the instructions densely across
// the program. Constructs that escaped the type checker are lowered to
// safe placeholder values and recorded in the program's Diags instead
// of panicking; callers should reject programs with non-empty Diags.
func Lower(info *types.Info) *Program {
	jobs := collectJobs(info)
	prog := &Program{Info: info, MethodOf: make(map[*types.MethodInfo]*Method, len(jobs))}
	for _, mi := range jobs {
		m, diags := lowerMethod(info, mi)
		prog.Methods = append(prog.Methods, m)
		prog.MethodOf[mi] = m
		prog.Diags = append(prog.Diags, diags...)
	}
	prog.numberInstrs()
	return prog
}

// collectJobs gathers the lowering jobs in the canonical declaration
// order, which depgraph.Build shares: each class's declared methods,
// then its synthesized default constructor.
func collectJobs(info *types.Info) []*types.MethodInfo {
	var jobs []*types.MethodInfo
	for _, decl := range info.Prog.Classes {
		ci := info.Classes[decl.Name]
		if ci == nil || ci.Decl != decl {
			continue
		}
		for _, mdecl := range decl.Methods {
			if mi := info.MethodOfDecl[mdecl]; mi != nil {
				jobs = append(jobs, mi)
			}
		}
		if ci.Ctor != nil && ci.Ctor.Decl == nil {
			jobs = append(jobs, ci.Ctor) // synthesized default constructor
		}
	}
	return jobs
}

// numberInstrs assigns dense program-unique instruction IDs in method
// order. Lowering and DecodeProgram both number through it, so a
// decoded program is numbered exactly as the lowering that encoded it.
func (p *Program) numberInstrs() {
	for _, m := range p.Methods {
		m.Instrs(func(ins Instr) {
			ins.setID(p.NumInstrs)
			p.NumInstrs++
			p.instrByID = append(p.instrByID, ins)
		})
	}
}

// varKey identifies an SSA-converted variable: a declaration node, a
// parameter, the receiver, or a synthetic temporary.
type varKey any

type thisVar struct{}

// tempVar is a synthetic variable for short-circuit lowering, keyed by
// the expression node.
type tempVar struct{ e ast.Expr }

type loopCtx struct {
	brk  *Block // break target
	cont *Block // continue target
}

// incompletePhi is a phi awaiting operands in a not-yet-sealed block.
type incompletePhi struct {
	v   varKey
	phi *Phi
}

type builder struct {
	info  *types.Info
	m     *Method
	sig   *types.MethodInfo
	diags Diagnostics

	cur    *Block // nil when the current point is unreachable
	sealed map[*Block]bool
	// currentDef[v][block] is the reaching SSA value of v at block end.
	currentDef map[varKey]map[*Block]*Reg
	// incomplete holds the pending phis of unsealed blocks in creation
	// order: sealing must process them deterministically, because
	// completing a phi can create further phis (and registers), and
	// that order is part of the program's canonical byte image.
	incomplete map[*Block][]incompletePhi
	// replacement maps removed trivial phi results to their value.
	replacement map[*Reg]*Reg
	phiUsers    map[*Reg][]*Phi
	deadPhis    map[*Phi]bool
	loops       []loopCtx
}

func lowerMethod(info *types.Info, sig *types.MethodInfo) (*Method, Diagnostics) {
	m := &Method{Sig: sig}
	b := &builder{
		info:        info,
		m:           m,
		sig:         sig,
		sealed:      make(map[*Block]bool),
		currentDef:  make(map[varKey]map[*Block]*Reg),
		incomplete:  make(map[*Block][]incompletePhi),
		replacement: make(map[*Reg]*Reg),
		phiUsers:    make(map[*Reg][]*Phi),
		deadPhis:    make(map[*Phi]bool),
	}
	entry := b.newBlock()
	b.seal(entry)
	b.cur = entry

	pos := token.Pos{}
	if sig.Decl != nil {
		pos = sig.Decl.Pos()
	} else if sig.Owner.Decl != nil {
		pos = sig.Owner.Decl.Pos()
	}

	// Formal parameters (including the receiver).
	idx := 0
	if !sig.Static {
		r := b.newReg(types.ClassType(sig.Owner))
		r.Hint = "this"
		p := &Param{Dst: r, Index: idx, Name: "this"}
		p.pos = pos
		b.emit(p)
		b.write(thisVar{}, r)
		idx++
	}
	if sig.Decl != nil {
		for _, pd := range sig.Decl.Params {
			r := b.newReg(b.resolveType(pd.Type))
			r.Hint = pd.Name
			p := &Param{Dst: r, Index: idx, Name: pd.Name}
			p.pos = pd.Pos()
			b.emit(p)
			b.write(pd, r)
			idx++
		}
		m.Params = collectParams(entry)
	} else {
		m.Params = collectParams(entry)
	}

	// Implicit super constructor call at the top of constructors whose
	// body does not begin with an explicit super(...) call.
	if sig.IsCtor && sig.Owner.Super != nil && sig.Owner.Super.Decl != nil {
		explicit := false
		if sig.Decl != nil && len(sig.Decl.Body.Stmts) > 0 {
			if es, ok := sig.Decl.Body.Stmts[0].(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.Call); ok && call.IsSuper {
					explicit = true
				}
			}
		}
		supCtor := sig.Owner.Super.Ctor
		if !explicit && supCtor != nil && len(supCtor.Params) == 0 {
			this := b.read(thisVar{}, pos)
			c := &Call{Mode: CallCtor, Callee: supCtor, Recv: this}
			c.pos = pos
			b.emit(c)
		}
	}

	if sig.Decl != nil {
		b.lowerStmt(sig.Decl.Body)
	}
	// Implicit return at the end of the body.
	if b.cur != nil {
		var val *Reg
		if sig.Ret != types.Type(types.VoidT) {
			val = b.zeroValue(sig.Ret, pos)
		}
		r := &Return{Val: val}
		r.pos = pos
		b.emit(r)
	}
	b.finalize()
	return m, b.diags
}

func collectParams(entry *Block) []*Param {
	var params []*Param
	for _, ins := range entry.Instrs {
		if p, ok := ins.(*Param); ok {
			params = append(params, p)
		}
	}
	return params
}

// diag records a malformed construct and lets lowering continue with a
// placeholder; the program is rejected afterwards via prog.Diags. Diags
// are collected per method and merged in method order when the program
// is assembled.
func (b *builder) diag(pos token.Pos, format string, args ...any) {
	b.diags = append(b.diags, Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// badValue emits a well-formed placeholder definition for a value that
// could not be lowered, keeping the SSA invariants (every reachable use
// has a defining instruction) intact.
func (b *builder) badValue(t types.Type, pos token.Pos) *Reg {
	return b.zeroValue(t, pos)
}

func (b *builder) resolveType(t ast.TypeExpr) types.Type {
	switch t := t.(type) {
	case *ast.PrimType:
		switch t.Kind {
		case ast.PrimInt:
			return types.IntT
		case ast.PrimBool:
			return types.BoolT
		case ast.PrimString:
			return types.ClassType(b.info.String)
		case ast.PrimVoid:
			return types.VoidT
		}
	case *ast.NamedType:
		if ci := b.info.Classes[t.Name]; ci != nil {
			return types.ClassType(ci)
		}
	case *ast.ArrayType:
		return &types.Array{Elem: b.resolveType(t.Elem)}
	}
	b.diag(t.Pos(), "unresolvable type")
	return types.IntT
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.m.Blocks), Method: b.m}
	b.m.Blocks = append(b.m.Blocks, blk)
	return blk
}

func (b *builder) newReg(t types.Type) *Reg {
	r := &Reg{Num: b.m.nextID, Typ: t, Method: b.m}
	b.m.nextID++
	return r
}

func (b *builder) emit(ins Instr) {
	if b.cur == nil {
		return // unreachable code: drop
	}
	ins.setBlock(b.cur)
	if d := ins.Def(); d != nil {
		d.Def = ins
	}
	b.cur.Instrs = append(b.cur.Instrs, ins)
}

func addEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump emits a goto from the current block to target and kills cur.
func (b *builder) jump(target *Block, pos token.Pos) {
	if b.cur == nil {
		return
	}
	g := &Goto{Target: target}
	g.pos = pos
	b.emit(g)
	addEdge(b.cur, target)
	b.cur = nil
}

// --- Braun et al. on-the-fly SSA construction ---

func (b *builder) write(v varKey, val *Reg) {
	if b.cur == nil {
		return
	}
	b.writeIn(v, b.cur, val)
}

func (b *builder) writeIn(v varKey, blk *Block, val *Reg) {
	m := b.currentDef[v]
	if m == nil {
		m = make(map[*Block]*Reg)
		b.currentDef[v] = m
	}
	m[blk] = val
}

func (b *builder) resolve(r *Reg) *Reg {
	for {
		n, ok := b.replacement[r]
		if !ok {
			return r
		}
		r = n
	}
}

func (b *builder) read(v varKey, pos token.Pos) *Reg {
	if b.cur == nil {
		// Unreachable; synthesize a placeholder that will be dropped.
		return &Reg{Num: -1, Typ: types.IntT, Method: b.m}
	}
	return b.readIn(v, b.cur, pos)
}

func (b *builder) readIn(v varKey, blk *Block, pos token.Pos) *Reg {
	if m := b.currentDef[v]; m != nil {
		if r, ok := m[blk]; ok {
			return b.resolve(r)
		}
	}
	return b.readRecursive(v, blk, pos)
}

func (b *builder) readRecursive(v varKey, blk *Block, pos token.Pos) *Reg {
	var val *Reg
	switch {
	case !b.sealed[blk]:
		phi := b.newPhiIn(blk, pos)
		b.incomplete[blk] = append(b.incomplete[blk], incompletePhi{v, phi})
		val = phi.Dst
	case len(blk.Preds) == 1:
		val = b.readIn(v, blk.Preds[0], pos)
	case len(blk.Preds) == 0:
		// Read of an undefined variable: only possible in dead code or
		// for variables declared without initializers before any write
		// on some path; synthesize a zero value in the entry block.
		val = b.zeroValueIn(b.m.Blocks[0], types.IntT, pos)
	default:
		phi := b.newPhiIn(blk, pos)
		b.writeIn(v, blk, phi.Dst)
		val = b.addPhiOperands(v, phi, pos)
	}
	b.writeIn(v, blk, val)
	return val
}

func (b *builder) newPhiIn(blk *Block, pos token.Pos) *Phi {
	r := b.newReg(types.IntT) // type refined when operands resolve; unused by analyses
	phi := &Phi{Dst: r}
	phi.pos = pos
	phi.setBlock(blk)
	r.Def = phi
	// Phis go at the front of the block.
	blk.Instrs = append([]Instr{phi}, blk.Instrs...)
	return phi
}

func (b *builder) addPhiOperands(v varKey, phi *Phi, pos token.Pos) *Reg {
	for _, pred := range phi.Block().Preds {
		op := b.readIn(v, pred, pos)
		phi.Edges = append(phi.Edges, op)
		b.phiUsers[op] = append(b.phiUsers[op], phi)
	}
	return b.tryRemoveTrivialPhi(phi)
}

func (b *builder) tryRemoveTrivialPhi(phi *Phi) *Reg {
	var same *Reg
	for _, op := range phi.Edges {
		op = b.resolve(op)
		if op == phi.Dst || op == same {
			continue
		}
		if same != nil {
			// The phi merges at least two distinct values: refine its
			// register type from an operand and keep it.
			phi.Dst.Typ = op.Typ
			return phi.Dst
		}
		same = op
	}
	if same == nil {
		// Unreachable or undefined: keep the phi as an opaque value.
		return phi.Dst
	}
	// The phi is trivial: reroute all uses of it to same.
	b.deadPhis[phi] = true
	b.replacement[phi.Dst] = same
	users := b.phiUsers[phi.Dst]
	for _, q := range users {
		if b.deadPhis[q] || q == phi {
			continue
		}
		for i := range q.Edges {
			q.Edges[i] = b.resolve(q.Edges[i])
		}
		b.tryRemoveTrivialPhi(q)
	}
	return same
}

func (b *builder) seal(blk *Block) {
	if b.sealed[blk] {
		return
	}
	for _, ip := range b.incomplete[blk] {
		if len(ip.phi.Edges) == 0 {
			b.addPhiOperands(ip.v, ip.phi, ip.phi.Pos())
		}
	}
	delete(b.incomplete, blk)
	b.sealed[blk] = true
}

// finalize resolves replaced registers in every operand, removes dead
// phis, drops unreachable blocks, and re-indexes.
func (b *builder) finalize() {
	// Seal remaining blocks in construction order, not map order:
	// sealing creates phis and registers, whose numbering must be
	// deterministic.
	for _, blk := range b.m.Blocks {
		b.seal(blk)
	}
	reach := make(map[*Block]bool)
	var walk func(*Block)
	walk = func(blk *Block) {
		if reach[blk] {
			return
		}
		reach[blk] = true
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(b.m.Blocks[0])

	var kept []*Block
	var cur Instr
	fixUse := func(u *Reg, _ Role) {
		if r := b.resolve(u); r != u {
			cur.replaceUse(u, r)
		}
	}
	for _, blk := range b.m.Blocks {
		if !reach[blk] {
			continue
		}
		var instrs []Instr
		for _, ins := range blk.Instrs {
			if phi, ok := ins.(*Phi); ok && b.deadPhis[phi] {
				continue
			}
			cur = ins
			ins.EachUse(fixUse)
			instrs = append(instrs, ins)
		}
		blk.Instrs = instrs
		blk.Index = len(kept)
		kept = append(kept, blk)
	}
	b.m.Blocks = kept
}

func (b *builder) zeroValue(t types.Type, pos token.Pos) *Reg {
	if b.cur == nil {
		return &Reg{Num: -1, Typ: t, Method: b.m}
	}
	return b.zeroValueIn(b.cur, t, pos)
}

func (b *builder) zeroValueIn(blk *Block, t types.Type, pos token.Pos) *Reg {
	r := b.newReg(t)
	var ins Instr
	switch t {
	case types.Type(types.IntT):
		c := &ConstInt{Dst: r}
		c.pos = pos
		ins = c
	case types.Type(types.BoolT):
		c := &ConstBool{Dst: r}
		c.pos = pos
		ins = c
	default:
		c := &ConstNull{Dst: r}
		c.pos = pos
		ins = c
	}
	ins.setBlock(blk)
	r.Def = ins
	// Insert after any leading phis so blocks stay well-formed.
	n := 0
	for n < len(blk.Instrs) {
		if _, ok := blk.Instrs[n].(*Phi); !ok {
			break
		}
		n++
	}
	blk.Instrs = append(blk.Instrs[:n], append([]Instr{ins}, blk.Instrs[n:]...)...)
	return r
}

// --- statement lowering ---

func (b *builder) lowerStmt(s ast.Stmt) {
	if s == nil || b.cur == nil {
		return
	}
	switch s := s.(type) {
	case *ast.Block:
		for _, st := range s.Stmts {
			if b.cur == nil {
				return // code after return/throw/break is unreachable
			}
			b.lowerStmt(st)
		}
	case *ast.VarDecl:
		var val *Reg
		if s.Init != nil {
			val = b.lowerExpr(s.Init)
			val = b.materializeCopy(s.Init, val, s.Pos())
		} else {
			val = b.zeroValue(b.resolveType(s.Type), s.Pos())
		}
		b.write(s, val)
	case *ast.Assign:
		b.lowerAssign(s)
	case *ast.If:
		b.lowerIf(s)
	case *ast.While:
		b.lowerWhile(s)
	case *ast.For:
		b.lowerFor(s)
	case *ast.Return:
		var val *Reg
		if s.Value != nil {
			val = b.lowerExpr(s.Value)
		}
		r := &Return{Val: val}
		r.pos = s.Pos()
		b.emit(r)
		b.cur = nil
	case *ast.ExprStmt:
		b.lowerExpr(s.X)
	case *ast.Throw:
		val := b.lowerExpr(s.X)
		t := &Throw{Val: val}
		t.pos = s.Pos()
		b.emit(t)
		b.cur = nil
	case *ast.Assert:
		cond := b.lowerExpr(s.Cond)
		a := &Assert{Cond: cond}
		a.pos = s.Pos()
		b.emit(a)
	case *ast.Break:
		if len(b.loops) == 0 {
			b.diag(s.Pos(), "break outside loop")
			b.cur = nil // code after the bad jump is unreachable
			return
		}
		b.jump(b.loops[len(b.loops)-1].brk, s.Pos())
	case *ast.Continue:
		if len(b.loops) == 0 {
			b.diag(s.Pos(), "continue outside loop")
			b.cur = nil
			return
		}
		b.jump(b.loops[len(b.loops)-1].cont, s.Pos())
	default:
		b.diag(s.Pos(), "unexpected statement %T", s)
	}
}

func (b *builder) lowerAssign(s *ast.Assign) {
	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		ref := b.info.Refs[lhs]
		val := b.lowerExpr(s.RHS)
		if ref == nil {
			b.diag(lhs.Pos(), "unresolved assignment target %s", lhs.Name)
			return
		}
		switch ref.Kind {
		case types.RefLocal:
			b.write(ref.Local, b.materializeCopy(s.RHS, val, s.Pos()))
		case types.RefParam:
			b.write(ref.Param, b.materializeCopy(s.RHS, val, s.Pos()))
		case types.RefField:
			this := b.read(thisVar{}, s.Pos())
			st := &SetField{Obj: this, Field: ref.Field, Val: val}
			st.pos = s.Pos()
			b.emit(st)
		case types.RefStaticField:
			st := &SetStatic{Field: ref.Field, Val: val}
			st.pos = s.Pos()
			b.emit(st)
		default:
			b.diag(s.Pos(), "bad assign target %s", lhs.Name)
		}
	case *ast.FieldAccess:
		f := b.info.FieldRefs[lhs]
		if f == nil {
			b.diag(lhs.Pos(), "unresolved field in assignment")
			b.lowerExpr(s.RHS) // still lower the RHS for its effects
			return
		}
		if f.Static {
			val := b.lowerExpr(s.RHS)
			st := &SetStatic{Field: f, Val: val}
			st.pos = s.Pos()
			b.emit(st)
			return
		}
		obj := b.lowerExpr(lhs.X)
		val := b.lowerExpr(s.RHS)
		st := &SetField{Obj: obj, Field: f, Val: val}
		st.pos = s.Pos()
		b.emit(st)
	case *ast.Index:
		arr := b.lowerExpr(lhs.X)
		idx := b.lowerExpr(lhs.I)
		val := b.lowerExpr(s.RHS)
		st := &ArrayStore{Arr: arr, Idx: idx, Val: val}
		st.pos = s.Pos()
		b.emit(st)
	default:
		b.diag(s.Pos(), "bad assign target %T", s.LHS)
	}
}

func (b *builder) lowerIf(s *ast.If) {
	thenB := b.newBlock()
	var elseB *Block
	join := b.newBlock()
	if s.Else != nil {
		elseB = b.newBlock()
		b.lowerCond(s.Cond, thenB, elseB)
		b.seal(elseB)
	} else {
		b.lowerCond(s.Cond, thenB, join)
	}
	b.seal(thenB)
	b.cur = thenB
	b.lowerStmt(s.Then)
	b.jump(join, s.Pos())
	if s.Else != nil {
		b.cur = elseB
		b.lowerStmt(s.Else)
		b.jump(join, s.Pos())
	}
	b.seal(join)
	if len(join.Preds) == 0 {
		b.cur = nil
		return
	}
	b.cur = join
}

func (b *builder) lowerWhile(s *ast.While) {
	header := b.newBlock()
	b.jump(header, s.Pos())
	body := b.newBlock()
	exit := b.newBlock()
	b.cur = header
	b.lowerCond(s.Cond, body, exit)
	b.seal(body)
	b.cur = body
	b.loops = append(b.loops, loopCtx{brk: exit, cont: header})
	b.lowerStmt(s.Body)
	b.loops = b.loops[:len(b.loops)-1]
	b.jump(header, s.Pos())
	b.seal(header)
	b.seal(exit)
	b.cur = exit
}

func (b *builder) lowerFor(s *ast.For) {
	b.lowerStmt(s.Init)
	header := b.newBlock()
	b.jump(header, s.Pos())
	body := b.newBlock()
	exit := b.newBlock()
	post := b.newBlock()
	b.cur = header
	if s.Cond != nil {
		b.lowerCond(s.Cond, body, exit)
	} else {
		b.jump(body, s.Pos())
	}
	b.seal(body)
	b.cur = body
	b.loops = append(b.loops, loopCtx{brk: exit, cont: post})
	b.lowerStmt(s.Body)
	b.loops = b.loops[:len(b.loops)-1]
	b.jump(post, s.Pos())
	b.seal(post)
	b.cur = post
	b.lowerStmt(s.Post)
	b.jump(header, s.Pos())
	b.seal(header)
	b.seal(exit)
	b.cur = exit
}

// materializeCopy wraps a bare identifier/this RHS in an explicit Copy
// instruction, so that source-level copy statements (x = y) remain
// dependence-graph nodes instead of being elided by SSA construction.
func (b *builder) materializeCopy(rhs ast.Expr, val *Reg, pos token.Pos) *Reg {
	if b.cur == nil {
		return val
	}
	bare := false
	switch rhs := rhs.(type) {
	case *ast.This:
		bare = true
	case *ast.Ident:
		if ref := b.info.Refs[rhs]; ref != nil {
			bare = ref.Kind == types.RefLocal || ref.Kind == types.RefParam
		}
	}
	if !bare {
		return val
	}
	dst := b.newReg(val.Typ)
	dst.Hint = val.Hint
	c := &Copy{Dst: dst, Src: val}
	c.pos = pos
	b.emit(c)
	return dst
}

// lowerCond lowers e in a control position, branching to thenB/elseB,
// expanding short-circuit operators into control flow.
func (b *builder) lowerCond(e ast.Expr, thenB, elseB *Block) {
	if b.cur == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Binary:
		switch e.Op {
		case token.LAND:
			mid := b.newBlock()
			b.lowerCond(e.X, mid, elseB)
			b.seal(mid)
			b.cur = mid
			b.lowerCond(e.Y, thenB, elseB)
			return
		case token.LOR:
			mid := b.newBlock()
			b.lowerCond(e.X, thenB, mid)
			b.seal(mid)
			b.cur = mid
			b.lowerCond(e.Y, thenB, elseB)
			return
		}
	case *ast.Unary:
		if e.Op == token.NOT {
			b.lowerCond(e.X, elseB, thenB)
			return
		}
	}
	cond := b.lowerExpr(e)
	if b.cur == nil {
		return
	}
	br := &If{Cond: cond, Then: thenB, Else: elseB}
	br.pos = e.Pos()
	b.emit(br)
	addEdge(b.cur, thenB)
	addEdge(b.cur, elseB)
	b.cur = nil
}

// --- expression lowering ---

func (b *builder) lowerExpr(e ast.Expr) *Reg {
	if b.cur == nil {
		return &Reg{Num: -1, Typ: types.IntT, Method: b.m}
	}
	switch e := e.(type) {
	case *ast.IntLit:
		r := b.newReg(types.IntT)
		c := &ConstInt{Dst: r, Val: e.Value}
		c.pos = e.Pos()
		b.emit(c)
		return r
	case *ast.BoolLit:
		r := b.newReg(types.BoolT)
		c := &ConstBool{Dst: r, Val: e.Value}
		c.pos = e.Pos()
		b.emit(c)
		return r
	case *ast.StrLit:
		r := b.newReg(types.ClassType(b.info.String))
		c := &ConstStr{Dst: r, Val: e.Value}
		c.pos = e.Pos()
		b.emit(c)
		return r
	case *ast.NullLit:
		return b.zeroValue(types.NullT, e.Pos())
	case *ast.This:
		return b.read(thisVar{}, e.Pos())
	case *ast.Ident:
		return b.lowerIdent(e)
	case *ast.Binary:
		return b.lowerBinary(e)
	case *ast.Unary:
		x := b.lowerExpr(e.X)
		t := types.Type(types.IntT)
		if e.Op == token.NOT {
			t = types.BoolT
		}
		r := b.newReg(t)
		u := &UnOp{Dst: r, Op: e.Op, X: x}
		u.pos = e.Pos()
		b.emit(u)
		return r
	case *ast.FieldAccess:
		return b.lowerFieldAccess(e)
	case *ast.Index:
		arr := b.lowerExpr(e.X)
		idx := b.lowerExpr(e.I)
		r := b.newReg(b.elemType(e.X))
		ld := &ArrayLoad{Dst: r, Arr: arr, Idx: idx}
		ld.pos = e.Pos()
		b.emit(ld)
		return r
	case *ast.Call:
		return b.lowerCall(e)
	case *ast.New:
		return b.lowerNew(e)
	case *ast.NewArray:
		ln := b.lowerExpr(e.Len)
		elem := b.resolveType(e.Elem)
		r := b.newReg(&types.Array{Elem: elem})
		na := &NewArray{Dst: r, Elem: elem, Len: ln}
		na.pos = e.Pos()
		b.emit(na)
		return r
	case *ast.Cast:
		src := b.lowerExpr(e.X)
		target := b.resolveType(e.Type)
		r := b.newReg(target)
		c := &Cast{Dst: r, Src: src, Target: target}
		c.pos = e.Pos()
		b.emit(c)
		return r
	case *ast.InstanceOf:
		src := b.lowerExpr(e.X)
		r := b.newReg(types.BoolT)
		io := &InstanceOf{Dst: r, Src: src, Class: b.info.Classes[e.Class]}
		io.pos = e.Pos()
		b.emit(io)
		return r
	}
	b.diag(e.Pos(), "unexpected expression %T", e)
	return b.badValue(types.IntT, e.Pos())
}

func (b *builder) elemType(arrExpr ast.Expr) types.Type {
	if at, ok := b.info.TypeOf(arrExpr).(*types.Array); ok {
		return at.Elem
	}
	return types.IntT
}

func (b *builder) lowerIdent(e *ast.Ident) *Reg {
	ref := b.info.Refs[e]
	if ref == nil {
		b.diag(e.Pos(), "unresolved identifier %s", e.Name)
		return b.badValue(types.IntT, e.Pos())
	}
	switch ref.Kind {
	case types.RefLocal:
		return b.read(ref.Local, e.Pos())
	case types.RefParam:
		return b.read(ref.Param, e.Pos())
	case types.RefField:
		this := b.read(thisVar{}, e.Pos())
		r := b.newReg(ref.Field.Type)
		g := &GetField{Dst: r, Obj: this, Field: ref.Field}
		g.pos = e.Pos()
		b.emit(g)
		return r
	case types.RefStaticField:
		r := b.newReg(ref.Field.Type)
		g := &GetStatic{Dst: r, Field: ref.Field}
		g.pos = e.Pos()
		b.emit(g)
		return r
	}
	b.diag(e.Pos(), "identifier %s names a class", e.Name)
	return b.badValue(types.IntT, e.Pos())
}

func (b *builder) lowerBinary(e *ast.Binary) *Reg {
	switch e.Op {
	case token.LAND, token.LOR:
		// Value-position short-circuit: lower via control flow into a
		// synthetic variable, then read it back (yields a phi).
		key := tempVar{e}
		thenB := b.newBlock()
		elseB := b.newBlock()
		join := b.newBlock()
		b.lowerCond(e, thenB, elseB)
		b.seal(thenB)
		b.seal(elseB)
		b.cur = thenB
		tr := b.newReg(types.BoolT)
		ct := &ConstBool{Dst: tr, Val: true}
		ct.pos = e.Pos()
		b.emit(ct)
		b.write(key, tr)
		b.jump(join, e.Pos())
		b.cur = elseB
		fr := b.newReg(types.BoolT)
		cf := &ConstBool{Dst: fr, Val: false}
		cf.pos = e.Pos()
		b.emit(cf)
		b.write(key, fr)
		b.jump(join, e.Pos())
		b.seal(join)
		b.cur = join
		return b.read(key, e.Pos())
	case token.ADD:
		// String concatenation.
		if isStrType(b.info.TypeOf(e)) {
			x := b.lowerExpr(e.X)
			y := b.lowerExpr(e.Y)
			r := b.newReg(types.ClassType(b.info.String))
			s := &StrOp{Dst: r, Op: StrConcat, Args: []*Reg{x, y}}
			s.pos = e.Pos()
			b.emit(s)
			return r
		}
	}
	x := b.lowerExpr(e.X)
	y := b.lowerExpr(e.Y)
	t := types.Type(types.IntT)
	switch e.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		t = types.BoolT
	}
	r := b.newReg(t)
	op := &BinOp{Dst: r, Op: e.Op, X: x, Y: y}
	op.pos = e.Pos()
	b.emit(op)
	return r
}

func isStrType(t types.Type) bool {
	c, ok := t.(*types.Class)
	return ok && c.Info.Name == "String"
}

func (b *builder) lowerFieldAccess(e *ast.FieldAccess) *Reg {
	if b.info.IsArrayLen[e] {
		arr := b.lowerExpr(e.X)
		r := b.newReg(types.IntT)
		al := &ArrayLen{Dst: r, Arr: arr}
		al.pos = e.Pos()
		b.emit(al)
		return r
	}
	f := b.info.FieldRefs[e]
	if f == nil {
		b.diag(e.Pos(), "unresolved field access")
		return b.badValue(types.IntT, e.Pos())
	}
	if f.Static {
		r := b.newReg(f.Type)
		g := &GetStatic{Dst: r, Field: f}
		g.pos = e.Pos()
		b.emit(g)
		return r
	}
	obj := b.lowerExpr(e.X)
	r := b.newReg(f.Type)
	g := &GetField{Dst: r, Obj: obj, Field: f}
	g.pos = e.Pos()
	b.emit(g)
	return r
}

var strIntrinsicKinds = map[types.Intrinsic]StrKind{
	types.StrLength:     StrLength,
	types.StrSubstring:  StrSubstring,
	types.StrIndexOf:    StrIndexOf,
	types.StrCharAt:     StrCharAt,
	types.StrEquals:     StrEquals,
	types.StrStartsWith: StrStartsWith,
}

func (b *builder) lowerCall(e *ast.Call) *Reg {
	ci := b.info.Calls[e]
	if ci == nil {
		b.diag(e.Pos(), "unresolved call %s", e.Name)
		return b.badValue(types.IntT, e.Pos())
	}
	switch ci.Intrinsic {
	case types.BuiltinPrint:
		val := b.lowerExpr(e.Args[0])
		p := &Print{Val: val}
		p.pos = e.Pos()
		b.emit(p)
		return nil
	case types.BuiltinItoa:
		val := b.lowerExpr(e.Args[0])
		r := b.newReg(types.ClassType(b.info.String))
		s := &StrOp{Dst: r, Op: StrItoa, Args: []*Reg{val}}
		s.pos = e.Pos()
		b.emit(s)
		return r
	case types.BuiltinInput, types.BuiltinInputInt:
		isInt := ci.Intrinsic == types.BuiltinInputInt
		t := types.Type(types.IntT)
		if !isInt {
			t = types.ClassType(b.info.String)
		}
		r := b.newReg(t)
		in := &Input{Dst: r, IsInt: isInt}
		in.pos = e.Pos()
		b.emit(in)
		return r
	}
	if k, ok := strIntrinsicKinds[ci.Intrinsic]; ok {
		args := []*Reg{b.lowerExpr(e.Recv)}
		for _, a := range e.Args {
			args = append(args, b.lowerExpr(a))
		}
		var t types.Type
		switch k {
		case StrSubstring:
			t = types.ClassType(b.info.String)
		case StrEquals, StrStartsWith:
			t = types.BoolT
		default:
			t = types.IntT
		}
		r := b.newReg(t)
		s := &StrOp{Dst: r, Op: k, Args: args}
		s.pos = e.Pos()
		b.emit(s)
		return r
	}
	// Regular method or constructor call.
	mi := ci.Method
	var recv *Reg
	mode := CallVirtual
	switch {
	case e.IsSuper:
		mode = CallCtor
		recv = b.read(thisVar{}, e.Pos())
	case mi.Static:
		mode = CallStatic
	case e.Recv == nil:
		recv = b.read(thisVar{}, e.Pos())
	default:
		recv = b.lowerExpr(e.Recv)
	}
	var args []*Reg
	for _, a := range e.Args {
		args = append(args, b.lowerExpr(a))
	}
	var dst *Reg
	if mi.Ret != types.Type(types.VoidT) {
		dst = b.newReg(mi.Ret)
	}
	c := &Call{Dst: dst, Mode: mode, Callee: mi, Recv: recv, Args: args}
	c.pos = e.Pos()
	b.emit(c)
	return dst
}

func (b *builder) lowerNew(e *ast.New) *Reg {
	ci := b.info.Classes[e.Class]
	if ci == nil {
		b.diag(e.Pos(), "unresolved class %s", e.Class)
		return b.badValue(types.IntT, e.Pos())
	}
	r := b.newReg(types.ClassType(ci))
	n := &New{Dst: r, Class: ci}
	n.pos = e.Pos()
	b.emit(n)
	var args []*Reg
	for _, a := range e.Args {
		args = append(args, b.lowerExpr(a))
	}
	if ci.Ctor != nil {
		c := &Call{Mode: CallCtor, Callee: ci.Ctor, Recv: r, Args: args}
		c.pos = e.Pos()
		b.emit(c)
	}
	return r
}

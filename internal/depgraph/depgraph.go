// Package depgraph builds a cross-file symbol dependency graph over a
// checked program: one Unit per lowering job (a declared method or a
// synthesized default constructor), each keyed by a content hash that
// captures everything its lowering can observe — the unit's own AST
// (positions included, because lowered instructions carry positions),
// the deep structural fingerprint of its owner class, and the deep
// fingerprints of every class its body references. Deep class
// fingerprints fold in the superclass chain and every member signature,
// so a signature edit anywhere invalidates exactly the units whose
// lowering could see it: comparing unit keys between two checked
// revisions (Diff) yields the transitively affected frontier directly,
// with no separate closure pass.
//
// Session.Depgraph builds the graph on demand and keeps it in memory
// only; no pipeline stage reads it. Diff between two revisions' graphs
// names the units an edit affected.
package depgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/token"
	"thinslice/internal/lang/types"
)

// Unit is one lowering unit: a declared method/constructor or a
// synthesized default constructor.
type Unit struct {
	// QName is the method's qualified name (types.MethodInfo.QualifiedName).
	QName string
	// File is the source file of the unit's declaration (the owner
	// class's declaration file for synthesized constructors).
	File string
	// Key is the unit's content hash: equal keys mean the unit lowers to
	// byte-identical IR against any checked program containing it.
	Key string
	// Synthesized marks a compiler-generated default constructor (no
	// declaration of its own).
	Synthesized bool
	// Refs names the units this unit's body calls (deduplicated, sorted
	// qualified names, declared units only).
	Refs []string
}

// Graph is the symbol dependency graph of one checked program: units in
// lowering job order plus the per-class deep fingerprints they are
// keyed by.
type Graph struct {
	Units []Unit
	index map[string]int // QName → Units index
}

// Unit returns the unit named q and whether it exists.
func (g *Graph) Unit(q string) (Unit, bool) {
	i, ok := g.index[q]
	if !ok {
		return Unit{}, false
	}
	return g.Units[i], true
}

// hasher accumulates length-prefixed fields so no two distinct field
// sequences collide by concatenation.
type hasher struct {
	h   hash.Hash
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (h *hasher) str(s string) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(len(s)))
	h.h.Write(h.buf[:])
	h.h.Write([]byte(s))
}

func (h *hasher) num(v int64) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.h.Write(h.buf[:])
}

func (h *hasher) pos(p token.Pos) {
	h.str(p.File)
	h.num(int64(p.Line))
	h.num(int64(p.Col))
}

func (h *hasher) sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// Build constructs the dependency graph for a checked program.
func Build(info *types.Info) *Graph {
	b := &builder{info: info, classFPs: make(map[*types.ClassInfo]string)}
	g := &Graph{index: make(map[string]int)}
	// Same job collection as ir.Lower: declaration order, with
	// the synthesized default constructor after a class's declared
	// methods.
	for _, decl := range info.Prog.Classes {
		ci := info.Classes[decl.Name]
		if ci == nil || ci.Decl != decl {
			continue
		}
		for _, mdecl := range decl.Methods {
			if mi := info.MethodOfDecl[mdecl]; mi != nil {
				g.Units = append(g.Units, b.unit(mi))
			}
		}
		if ci.Ctor != nil && ci.Ctor.Decl == nil {
			g.Units = append(g.Units, b.unit(ci.Ctor))
		}
	}
	for i, u := range g.Units {
		g.index[u.QName] = i
	}
	return g
}

type builder struct {
	info     *types.Info
	classFPs map[*types.ClassInfo]string
}

// classFP is the deep structural fingerprint of a class: its name, the
// full fingerprint of its superclass, and every member signature
// (fields with type/static/final, methods and constructor with
// parameter and return types). Bodies are not included — a body edit
// must invalidate only its own unit.
func (b *builder) classFP(ci *types.ClassInfo) string {
	if fp, ok := b.classFPs[ci]; ok {
		return fp
	}
	b.classFPs[ci] = "" // cycle guard; class hierarchies are acyclic post-check
	h := newHasher()
	h.str("class")
	h.str(ci.Name)
	if ci.Super != nil {
		h.str(b.classFP(ci.Super))
	} else {
		h.str("")
	}
	h.num(int64(len(ci.Fields)))
	for _, f := range ci.Fields {
		h.str(f.Name)
		h.str(typeStr(f.Type))
		h.num(boolBit(f.Static)<<1 | boolBit(f.Final))
	}
	h.num(int64(len(ci.Methods)))
	for _, m := range ci.Methods {
		b.sigFP(h, m)
	}
	if ci.Ctor != nil {
		h.str("ctor")
		b.sigFP(h, ci.Ctor)
		h.num(boolBit(ci.Ctor.Decl == nil)) // synthesized vs declared
	} else {
		h.str("")
	}
	fp := h.sum()
	b.classFPs[ci] = fp
	return fp
}

// sigFP folds one method signature into h (no body, no owner — the
// owner's identity comes from the enclosing classFP computation).
func (b *builder) sigFP(h *hasher, m *types.MethodInfo) {
	h.str(m.Name)
	h.num(boolBit(m.Static)<<1 | boolBit(m.IsCtor))
	h.num(int64(len(m.Params)))
	for _, p := range m.Params {
		h.str(typeStr(p))
	}
	h.str(typeStr(m.Ret))
}

func typeStr(t types.Type) string {
	if t == nil {
		return ""
	}
	return t.String()
}

func boolBit(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// unit builds the Unit record for one lowering job.
func (b *builder) unit(mi *types.MethodInfo) Unit {
	u := Unit{
		QName:       mi.QualifiedName(),
		Synthesized: mi.Decl == nil,
	}
	h := newHasher()
	h.str("unit")
	h.str(u.QName)
	h.str(b.classFP(mi.Owner))

	refClasses := map[string]*types.ClassInfo{}
	refUnits := map[string]bool{}
	if mi.Decl == nil {
		// Synthesized default constructor: lowering depends only on the
		// owner's shape (field initializers and the super chain), all of
		// which the deep owner fingerprint covers.
		h.str("synthesized")
		if ownerDecl := mi.Owner.Decl; ownerDecl != nil {
			u.File = ownerDecl.NamePos.File
			h.pos(ownerDecl.NamePos)
		}
		if mi.Owner.Super != nil && mi.Owner.Super.Ctor != nil {
			refUnits[mi.Owner.Super.Ctor.QualifiedName()] = true
		}
	} else {
		u.File = mi.Decl.NamePos.File
		hashMethodDecl(h, mi.Decl)
		b.collectRefs(mi.Decl, refClasses, refUnits)
	}
	// Referenced-class fingerprints, sorted by class name for a
	// deterministic key.
	names := make([]string, 0, len(refClasses))
	for name := range refClasses {
		names = append(names, name)
	}
	sort.Strings(names)
	h.num(int64(len(names)))
	for _, name := range names {
		h.str(name)
		h.str(b.classFP(refClasses[name]))
	}
	u.Key = h.sum()

	u.Refs = make([]string, 0, len(refUnits))
	for q := range refUnits {
		u.Refs = append(u.Refs, q)
	}
	sort.Strings(u.Refs)
	return u
}

// collectRefs walks a method body recording every class whose structure
// the lowering of this unit can observe (receiver/owner classes of
// called methods and accessed fields, named types in expressions and
// type expressions) and every unit it calls.
func (b *builder) collectRefs(m *ast.MethodDecl, classes map[string]*types.ClassInfo, units map[string]bool) {
	info := b.info
	addType := func(t types.Type) {
		for {
			switch tt := t.(type) {
			case *types.Class:
				if tt.Info != nil {
					classes[tt.Info.Name] = tt.Info
				}
				return
			case *types.Array:
				t = tt.Elem
			default:
				return
			}
		}
	}
	addTypeExpr := func(te ast.TypeExpr) {
		for {
			switch tt := te.(type) {
			case *ast.NamedType:
				if ci := info.Classes[tt.Name]; ci != nil {
					classes[ci.Name] = ci
				}
				return
			case *ast.ArrayType:
				te = tt.Elem
			default:
				return
			}
		}
	}
	for _, p := range m.Params {
		addTypeExpr(p.Type)
	}
	if m.Ret != nil {
		addTypeExpr(m.Ret)
	}
	walk(m.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.VarDecl:
			addTypeExpr(n.Type)
		case *ast.Cast:
			addTypeExpr(n.Type)
		case *ast.NewArray:
			addTypeExpr(n.Elem)
		case *ast.New:
			if ci := info.Classes[n.Class]; ci != nil {
				classes[ci.Name] = ci
				if ci.Ctor != nil {
					units[ci.Ctor.QualifiedName()] = true
				}
			}
		case *ast.InstanceOf:
			if ci := info.Classes[n.Class]; ci != nil {
				classes[ci.Name] = ci
			}
		case *ast.Ident:
			if ref := info.Refs[n]; ref != nil {
				if ref.Field != nil {
					classes[ref.Field.Owner.Name] = ref.Field.Owner
				}
				if ref.Class != nil {
					classes[ref.Class.Name] = ref.Class
				}
			}
		case *ast.FieldAccess:
			if fi := info.FieldRefs[n]; fi != nil {
				classes[fi.Owner.Name] = fi.Owner
			}
		case *ast.Call:
			if ciInfo := info.Calls[n]; ciInfo != nil && ciInfo.Method != nil {
				classes[ciInfo.Method.Owner.Name] = ciInfo.Method.Owner
				units[ciInfo.Method.QualifiedName()] = true
			}
		}
		if e, ok := n.(ast.Expr); ok {
			if t := info.ExprTypes[e]; t != nil {
				addType(t)
			}
		}
	})
}

// walk visits every statement and expression node reachable from n in
// source order.
func walk(n ast.Node, f func(ast.Node)) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.Block:
		if n == nil {
			return
		}
		f(n)
		for _, s := range n.Stmts {
			walk(s, f)
		}
	case *ast.VarDecl:
		f(n)
		walk(n.Init, f)
	case *ast.Assign:
		f(n)
		walk(n.LHS, f)
		walk(n.RHS, f)
	case *ast.If:
		f(n)
		walk(n.Cond, f)
		walk(n.Then, f)
		walk(n.Else, f)
	case *ast.While:
		f(n)
		walk(n.Cond, f)
		walk(n.Body, f)
	case *ast.For:
		f(n)
		walk(n.Init, f)
		walk(n.Cond, f)
		walk(n.Post, f)
		walk(n.Body, f)
	case *ast.Return:
		f(n)
		walk(n.Value, f)
	case *ast.ExprStmt:
		f(n)
		walk(n.X, f)
	case *ast.Throw:
		f(n)
		walk(n.X, f)
	case *ast.Assert:
		f(n)
		walk(n.Cond, f)
	case *ast.Break, *ast.Continue, *ast.This, *ast.IntLit, *ast.BoolLit,
		*ast.StrLit, *ast.NullLit, *ast.Ident:
		f(n)
	case *ast.Binary:
		f(n)
		walk(n.X, f)
		walk(n.Y, f)
	case *ast.Unary:
		f(n)
		walk(n.X, f)
	case *ast.FieldAccess:
		f(n)
		walk(n.X, f)
	case *ast.Index:
		f(n)
		walk(n.X, f)
		walk(n.I, f)
	case *ast.Call:
		f(n)
		walk(n.Recv, f)
		for _, a := range n.Args {
			walk(a, f)
		}
	case *ast.New:
		f(n)
		for _, a := range n.Args {
			walk(a, f)
		}
	case *ast.NewArray:
		f(n)
		walk(n.Len, f)
	case *ast.Cast:
		f(n)
		walk(n.X, f)
	case *ast.InstanceOf:
		f(n)
		walk(n.X, f)
	}
}

// hashMethodDecl folds the complete declaration AST — positions
// included, because lowered instructions carry source positions — into
// h.
func hashMethodDecl(h *hasher, m *ast.MethodDecl) {
	h.str("decl")
	h.pos(m.NamePos)
	h.num(boolBit(m.Static)<<1 | boolBit(m.IsCtor))
	h.str(m.Name)
	hashTypeExpr(h, m.Ret)
	h.num(int64(len(m.Params)))
	for _, p := range m.Params {
		h.pos(p.NamePos)
		hashTypeExpr(h, p.Type)
		h.str(p.Name)
	}
	hashNode(h, m.Body)
}

func hashTypeExpr(h *hasher, t ast.TypeExpr) {
	switch t := t.(type) {
	case nil:
		h.str("T:nil")
	case *ast.PrimType:
		h.str("T:prim")
		h.pos(t.KindPos)
		h.num(int64(t.Kind))
	case *ast.NamedType:
		h.str("T:named")
		h.pos(t.NamePos)
		h.str(t.Name)
	case *ast.ArrayType:
		h.str("T:array")
		hashTypeExpr(h, t.Elem)
	default:
		panic(fmt.Sprintf("depgraph: unhashable type expr %T", t))
	}
}

// hashNode folds one statement or expression subtree into h. Every
// concrete node type writes a distinct tag plus its position and
// payload, so structurally different trees never hash alike.
func hashNode(h *hasher, n ast.Node) {
	switch n := n.(type) {
	case nil:
		h.str("nil")
	case *ast.Block:
		if n == nil {
			h.str("nil")
			return
		}
		h.str("block")
		h.pos(n.LbracePos)
		h.num(int64(len(n.Stmts)))
		for _, s := range n.Stmts {
			hashNode(h, s)
		}
	case *ast.VarDecl:
		h.str("var")
		h.pos(n.NamePos)
		hashTypeExpr(h, n.Type)
		h.str(n.Name)
		hashNode(h, n.Init)
	case *ast.Assign:
		h.str("assign")
		h.pos(n.AssignPos)
		hashNode(h, n.LHS)
		hashNode(h, n.RHS)
	case *ast.If:
		h.str("if")
		h.pos(n.IfPos)
		hashNode(h, n.Cond)
		hashNode(h, n.Then)
		hashNode(h, n.Else)
	case *ast.While:
		h.str("while")
		h.pos(n.WhilePos)
		hashNode(h, n.Cond)
		hashNode(h, n.Body)
	case *ast.For:
		h.str("for")
		h.pos(n.ForPos)
		hashNode(h, n.Init)
		hashNode(h, n.Cond)
		hashNode(h, n.Post)
		hashNode(h, n.Body)
	case *ast.Return:
		h.str("return")
		h.pos(n.RetPos)
		hashNode(h, n.Value)
	case *ast.ExprStmt:
		h.str("exprstmt")
		hashNode(h, n.X)
	case *ast.Throw:
		h.str("throw")
		h.pos(n.ThrowPos)
		hashNode(h, n.X)
	case *ast.Assert:
		h.str("assert")
		h.pos(n.AssertPos)
		hashNode(h, n.Cond)
	case *ast.Break:
		h.str("break")
		h.pos(n.BreakPos)
	case *ast.Continue:
		h.str("continue")
		h.pos(n.ContinuePos)
	case *ast.IntLit:
		h.str("int")
		h.pos(n.LitPos)
		h.num(n.Value)
	case *ast.BoolLit:
		h.str("bool")
		h.pos(n.LitPos)
		h.num(boolBit(n.Value))
	case *ast.StrLit:
		h.str("str")
		h.pos(n.LitPos)
		h.str(n.Value)
	case *ast.NullLit:
		h.str("null")
		h.pos(n.LitPos)
	case *ast.Ident:
		h.str("ident")
		h.pos(n.NamePos)
		h.str(n.Name)
	case *ast.This:
		h.str("this")
		h.pos(n.ThisPos)
	case *ast.Binary:
		h.str("binary")
		h.pos(n.OpPos)
		h.num(int64(n.Op))
		hashNode(h, n.X)
		hashNode(h, n.Y)
	case *ast.Unary:
		h.str("unary")
		h.pos(n.OpPos)
		h.num(int64(n.Op))
		hashNode(h, n.X)
	case *ast.FieldAccess:
		h.str("field")
		h.pos(n.NamePos)
		h.str(n.Name)
		hashNode(h, n.X)
	case *ast.Index:
		h.str("index")
		hashNode(h, n.X)
		hashNode(h, n.I)
	case *ast.Call:
		h.str("call")
		h.pos(n.NamePos)
		h.str(n.Name)
		h.num(boolBit(n.IsSuper))
		hashNode(h, n.Recv)
		h.num(int64(len(n.Args)))
		for _, a := range n.Args {
			hashNode(h, a)
		}
	case *ast.New:
		h.str("new")
		h.pos(n.NewPos)
		h.str(n.Class)
		h.num(int64(len(n.Args)))
		for _, a := range n.Args {
			hashNode(h, a)
		}
	case *ast.NewArray:
		h.str("newarray")
		h.pos(n.NewPos)
		hashTypeExpr(h, n.Elem)
		hashNode(h, n.Len)
	case *ast.Cast:
		h.str("cast")
		h.pos(n.LparenPos)
		hashTypeExpr(h, n.Type)
		hashNode(h, n.X)
	case *ast.InstanceOf:
		h.str("instanceof")
		h.str(n.Class)
		hashNode(h, n.X)
	default:
		panic(fmt.Sprintf("depgraph: unhashable node %T", n))
	}
}

// Delta is the unit-level difference between two revisions of a
// program, computed by Diff. Because unit keys embed deep referenced-
// class fingerprints, Changed already contains the full transitive
// frontier of an edit — callers of a signature-changed method appear in
// it without a separate closure.
type Delta struct {
	Changed []string // units present in both revisions with different keys
	Added   []string // units only in the new revision
	Removed []string // units only in the old revision
}

// Dirty returns the union of Changed and Added as a set: the units that
// must be re-derived in the new revision.
func (d Delta) Dirty() map[string]bool {
	m := make(map[string]bool, len(d.Changed)+len(d.Added))
	for _, q := range d.Changed {
		m[q] = true
	}
	for _, q := range d.Added {
		m[q] = true
	}
	return m
}

// Diff computes the unit delta from old to new. Slices are sorted by
// qualified name.
func Diff(old, new *Graph) Delta {
	var d Delta
	for _, u := range new.Units {
		if prev, ok := old.Unit(u.QName); !ok {
			d.Added = append(d.Added, u.QName)
		} else if prev.Key != u.Key {
			d.Changed = append(d.Changed, u.QName)
		}
	}
	for _, u := range old.Units {
		if _, ok := new.Unit(u.QName); !ok {
			d.Removed = append(d.Removed, u.QName)
		}
	}
	sort.Strings(d.Changed)
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	return d
}

// Fingerprint returns a sha256 digest of the graph's full structure:
// units in order with keys, files, and reference lists. Two builds over
// the same checked program must produce identical fingerprints.
func (g *Graph) Fingerprint() string {
	h := newHasher()
	h.str("depgraph")
	h.num(int64(len(g.Units)))
	for _, u := range g.Units {
		h.str(u.QName)
		h.str(u.File)
		h.str(u.Key)
		h.num(boolBit(u.Synthesized))
		h.num(int64(len(u.Refs)))
		for _, r := range u.Refs {
			h.str(r)
		}
	}
	return h.sum()
}

// Package types implements semantic analysis for the MiniJava-style
// language: class hierarchy construction, name resolution, and type
// checking. Its output (Info) records everything the IR lowering needs
// about each expression: its type, what an identifier refers to, the
// field an access resolves to, and the statically-resolved call target.
package types

import (
	"fmt"

	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/token"
)

// Type is the semantic type of an expression.
type Type interface {
	String() string
	isType()
}

// Basic is a primitive (non-reference) type or void/null.
type Basic int

// Basic kinds. NullT is the type of the null literal, assignable to any
// reference type.
const (
	IntT Basic = iota
	BoolT
	VoidT
	NullT
)

func (b Basic) String() string {
	switch b {
	case IntT:
		return "int"
	case BoolT:
		return "boolean"
	case VoidT:
		return "void"
	case NullT:
		return "null"
	}
	return "?"
}
func (Basic) isType() {}

// Class is a reference type backed by a class declaration. The
// predeclared classes Object and String have no Decl.
type Class struct {
	Info *ClassInfo
}

func (c *Class) String() string { return c.Info.Name }
func (*Class) isType()          {}

// Array is an array type with element type Elem.
type Array struct {
	Elem Type
}

func (a *Array) String() string { return a.Elem.String() + "[]" }
func (*Array) isType()          {}

// IsRef reports whether t is a reference type (class, array, or null).
func IsRef(t Type) bool {
	switch t := t.(type) {
	case *Class, *Array:
		return true
	case Basic:
		return t == NullT
	}
	return false
}

// ClassInfo is the semantic view of a class.
type ClassInfo struct {
	Name    string
	Super   *ClassInfo // nil only for Object
	Decl    *ast.ClassDecl
	Fields  []*FieldInfo  // declared in this class only
	Methods []*MethodInfo // declared in this class only
	Ctor    *MethodInfo   // may be a synthesized default constructor
	// ref is the shared *Class handed out by ClassType. Set once by
	// NewClassInfo before any concurrent phase runs; ClassType falls
	// back to a fresh wrapper for bare ClassInfo literals (tests).
	ref *Class
}

// NewClassInfo creates a ClassInfo with its shared ClassType wrapper.
func NewClassInfo(name string) *ClassInfo {
	ci := &ClassInfo{Name: name}
	ci.ref = &Class{Info: ci}
	return ci
}

// IsSubclassOf reports whether c is t or a (transitive) subclass of t.
func (c *ClassInfo) IsSubclassOf(t *ClassInfo) bool {
	for x := c; x != nil; x = x.Super {
		if x == t {
			return true
		}
	}
	return false
}

// LookupField finds a field by name in c or its superclasses.
func (c *ClassInfo) LookupField(name string) *FieldInfo {
	for x := c; x != nil; x = x.Super {
		for _, f := range x.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// LookupMethod finds a method by name in c or its superclasses.
func (c *ClassInfo) LookupMethod(name string) *MethodInfo {
	for x := c; x != nil; x = x.Super {
		for _, m := range x.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

// FieldInfo is a resolved field.
type FieldInfo struct {
	Owner  *ClassInfo
	Name   string
	Type   Type
	Static bool
	Final  bool
	Decl   *ast.FieldDecl
	// qname caches QualifiedName — the SDG scan asks for it once per
	// heap access per context, and concatenating each time shows up in
	// allocation profiles. Set by the checker; empty for bare literals.
	qname string
}

// QualifiedName is Owner.Name, unique across the program.
func (f *FieldInfo) QualifiedName() string {
	if f.qname != "" {
		return f.qname
	}
	return f.Owner.Name + "." + f.Name
}

// MethodInfo is a resolved method or constructor.
type MethodInfo struct {
	Owner  *ClassInfo
	Name   string
	Static bool
	IsCtor bool
	Params []Type
	Ret    Type
	Decl   *ast.MethodDecl // nil for synthesized default constructors
	// exprBase is where the body's facts start in the Info's tables.
	exprBase int32
}

// QualifiedName is Owner.Name(...), unique because overloading is not
// supported.
func (m *MethodInfo) QualifiedName() string {
	if m.IsCtor {
		return m.Owner.Name + ".<init>"
	}
	return m.Owner.Name + "." + m.Name
}

// Intrinsic identifies builtin operations that are not user methods.
type Intrinsic int

// Intrinsic kinds. Str* intrinsics are methods on String receivers;
// the rest are unqualified builtin functions.
const (
	NoIntrinsic     Intrinsic = iota
	StrLength                 // s.length() int
	StrSubstring              // s.substring(int,int) string
	StrIndexOf                // s.indexOf(string) int
	StrCharAt                 // s.charAt(int) int
	StrEquals                 // s.equals(string) boolean
	StrStartsWith             // s.startsWith(string) boolean
	StrConcatI                // via + (not a call form)
	BuiltinPrint              // print(any) void
	BuiltinItoa               // itoa(int) string
	BuiltinInput              // input() string    — external data source
	BuiltinInputInt           // inputInt() int    — external data source
)

// CallInfo is the static resolution of one call expression.
type CallInfo struct {
	Method    *MethodInfo // nil for intrinsics
	Intrinsic Intrinsic
	// StaticCall is true when the call was made through a class name or
	// the target is a static method (no dynamic dispatch).
	StaticCall bool
}

// RefKind classifies what an identifier resolves to.
type RefKind int

// Reference kinds for identifier uses.
const (
	RefLocal RefKind = iota
	RefParam
	RefField       // instance field of this
	RefStaticField // static field (possibly of a superclass)
	RefClass       // class name (receiver of static member access)
)

// Ref is the resolution of one identifier use.
type Ref struct {
	Kind  RefKind
	Local *ast.VarDecl
	Param *ast.Param
	Field *FieldInfo
	Class *ClassInfo
}

// Info is the result of checking a program.
type Info struct {
	Prog    *ast.Program
	Classes map[string]*ClassInfo
	Object  *ClassInfo
	String  *ClassInfo
	// MethodOfDecl maps each method declaration back to its info.
	MethodOfDecl map[*ast.MethodDecl]*MethodInfo

	// facts holds the per-expression facts of every checked body, laid
	// end to end in declaration order: a body's start at its
	// MethodInfo's exprBase. They live here, not in the AST, so
	// programs sharing a parsed file keep their own.
	facts Body
}

// Body returns the facts of mi's body, empty for a synthesized
// constructor. mi must come from this Info.
func (info *Info) Body(mi *MethodInfo) Body {
	if mi.Decl == nil {
		return Body{}
	}
	lo, hi := mi.exprBase, mi.exprBase+mi.Decl.NumExprs
	f := info.facts
	return Body{
		types:     f.types[lo:hi:hi],
		refs:      f.refs[lo:hi:hi],
		fieldRefs: f.fieldRefs[lo:hi:hi],
		arrayLen:  f.arrayLen[lo:hi:hi],
		calls:     f.calls[lo:hi:hi],
	}
}

// NumTyped returns the number of expressions with a recorded type.
func (info *Info) NumTyped() int {
	n := 0
	for _, t := range info.facts.types {
		if t != nil {
			n++
		}
	}
	return n
}

// Body is the checker's facts for one method body, indexed by the
// ExprID of each expression in it. A fact the checker did not record
// (an expression it could not resolve) reads as nil or false.
type Body struct {
	types     []Type
	refs      []*Ref
	fieldRefs []*FieldInfo
	arrayLen  []bool
	calls     []*CallInfo
}

// TypeOf returns the checked type of e (nil if unchecked due to errors).
func (b Body) TypeOf(e ast.Expr) Type { return b.types[e.ExprID()] }

// Ref returns what the identifier e refers to.
func (b Body) Ref(e *ast.Ident) *Ref { return b.refs[e.ID] }

// Field returns the field that the access e resolves to.
func (b Body) Field(e *ast.FieldAccess) *FieldInfo { return b.fieldRefs[e.ID] }

// IsArrayLen reports whether e reads an array's length.
func (b Body) IsArrayLen(e *ast.FieldAccess) bool { return b.arrayLen[e.ID] }

// Call returns the static resolution of the call e.
func (b Body) Call(e *ast.Call) *CallInfo { return b.calls[e.ID] }

// ClassType returns the reference type for a class info. Checker-built
// classes share one wrapper (this is one of the hottest allocation
// sites of checking and lowering otherwise); consumers must compare
// Class values by Info, never by pointer.
func ClassType(c *ClassInfo) *Class {
	if c.ref != nil {
		return c.ref
	}
	return &Class{Info: c}
}

// Error is a semantic error with a position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	msg := l[0].Error()
	if len(l) > 1 {
		msg += fmt.Sprintf(" (and %d more errors)", len(l)-1)
	}
	return msg
}

type checker struct {
	info   *Info
	errors ErrorList

	// current method context
	curClass  *ClassInfo
	curMethod *MethodInfo
	body      Body // curMethod's facts, written as its body is checked
	scopes    []map[string]*Ref
}

// Check performs semantic analysis on prog. It returns partial Info even
// when errors are present, so tools can operate best-effort.
func Check(prog *ast.Program) (*Info, error) {
	info := &Info{
		Prog:         prog,
		Classes:      make(map[string]*ClassInfo),
		MethodOfDecl: make(map[*ast.MethodDecl]*MethodInfo),
	}
	c := &checker{info: info}
	c.collectClasses(prog)
	c.resolveHierarchy(prog)
	c.collectMembers()
	c.checkBodies()
	if len(c.errors) > 0 {
		return info, c.errors
	}
	return info, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errors = append(c.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) collectClasses(prog *ast.Program) {
	c.info.Object = NewClassInfo("Object")
	c.info.String = NewClassInfo("String")
	c.info.String.Super = c.info.Object
	c.info.Classes["Object"] = c.info.Object
	c.info.Classes["String"] = c.info.String
	for _, decl := range prog.Classes {
		if decl.Name == "Object" || decl.Name == "String" {
			c.errorf(decl.Pos(), "cannot redeclare predeclared class %s", decl.Name)
			continue
		}
		if _, dup := c.info.Classes[decl.Name]; dup {
			c.errorf(decl.Pos(), "duplicate class %s", decl.Name)
			continue
		}
		ci := NewClassInfo(decl.Name)
		ci.Decl = decl
		c.info.Classes[decl.Name] = ci
	}
}

func (c *checker) resolveHierarchy(prog *ast.Program) {
	for _, decl := range prog.Classes {
		ci := c.info.Classes[decl.Name]
		if ci == nil || ci.Decl != decl {
			continue // duplicate
		}
		if decl.Super == "" {
			ci.Super = c.info.Object
			continue
		}
		sup, ok := c.info.Classes[decl.Super]
		if !ok {
			c.errorf(decl.Pos(), "class %s extends undeclared class %s", decl.Name, decl.Super)
			ci.Super = c.info.Object
			continue
		}
		ci.Super = sup
	}
	// Detect inheritance cycles; break them at Object.
	for _, ci := range c.info.Classes {
		seen := map[*ClassInfo]bool{}
		for x := ci; x != nil; x = x.Super {
			if seen[x] {
				c.errorf(ci.Decl.Pos(), "inheritance cycle involving class %s", x.Name)
				x.Super = c.info.Object
				break
			}
			seen[x] = true
		}
	}
}

// resolveType converts a syntactic type to a semantic one.
func (c *checker) resolveType(t ast.TypeExpr) Type {
	switch t := t.(type) {
	case *ast.PrimType:
		switch t.Kind {
		case ast.PrimInt:
			return IntT
		case ast.PrimBool:
			return BoolT
		case ast.PrimString:
			return ClassType(c.info.String)
		case ast.PrimVoid:
			return VoidT
		}
	case *ast.NamedType:
		if ci, ok := c.info.Classes[t.Name]; ok {
			return ClassType(ci)
		}
		c.errorf(t.Pos(), "undeclared class %s", t.Name)
		return ClassType(c.info.Object)
	case *ast.ArrayType:
		return &Array{Elem: c.resolveType(t.Elem)}
	}
	return VoidT
}

func (c *checker) collectMembers() {
	for _, decl := range c.info.Prog.Classes {
		ci := c.info.Classes[decl.Name]
		if ci == nil || ci.Decl != decl {
			continue
		}
		for _, f := range decl.Fields {
			if lookupOwn(ci.Fields, f.Name) != nil {
				c.errorf(f.Pos(), "duplicate field %s in class %s", f.Name, ci.Name)
				continue
			}
			ci.Fields = append(ci.Fields, &FieldInfo{
				Owner: ci, Name: f.Name, Type: c.resolveType(f.Type),
				Static: f.Static, Final: f.Final, Decl: f,
				qname: ci.Name + "." + f.Name,
			})
		}
		for _, m := range decl.Methods {
			mi := &MethodInfo{
				Owner: ci, Name: m.Name, Static: m.Static, IsCtor: m.IsCtor, Decl: m,
			}
			for _, p := range m.Params {
				mi.Params = append(mi.Params, c.resolveType(p.Type))
			}
			if m.IsCtor {
				mi.Ret = VoidT
				if ci.Ctor != nil {
					c.errorf(m.Pos(), "duplicate constructor in class %s (overloading unsupported)", ci.Name)
					continue
				}
				ci.Ctor = mi
			} else {
				mi.Ret = c.resolveType(m.Ret)
				for _, prev := range ci.Methods {
					if prev.Name == m.Name {
						c.errorf(m.Pos(), "duplicate method %s in class %s (overloading unsupported)", m.Name, ci.Name)
					}
				}
				ci.Methods = append(ci.Methods, mi)
			}
			c.info.MethodOfDecl[m] = mi
		}
		if ci.Ctor == nil {
			ci.Ctor = &MethodInfo{Owner: ci, Name: ci.Name, IsCtor: true, Ret: VoidT}
		}
	}
	// Override compatibility: an override must match param and return types.
	for _, ci := range c.info.Classes {
		for _, m := range ci.Methods {
			if ci.Super == nil {
				continue
			}
			if sup := ci.Super.LookupMethod(m.Name); sup != nil {
				if !signaturesMatch(m, sup) {
					c.errorf(m.Decl.Pos(), "method %s.%s overrides %s.%s with a different signature",
						ci.Name, m.Name, sup.Owner.Name, sup.Name)
				}
				if sup.Static != m.Static {
					c.errorf(m.Decl.Pos(), "method %s.%s changes staticness of inherited method", ci.Name, m.Name)
				}
			}
		}
	}
}

func lookupOwn(fields []*FieldInfo, name string) *FieldInfo {
	for _, f := range fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

func signaturesMatch(a, b *MethodInfo) bool {
	if len(a.Params) != len(b.Params) || !Identical(a.Ret, b.Ret) {
		return false
	}
	for i := range a.Params {
		if !Identical(a.Params[i], b.Params[i]) {
			return false
		}
	}
	return true
}

// Identical reports structural type identity.
func Identical(a, b Type) bool {
	switch a := a.(type) {
	case Basic:
		b, ok := b.(Basic)
		return ok && a == b
	case *Class:
		b, ok := b.(*Class)
		return ok && a.Info == b.Info
	case *Array:
		b, ok := b.(*Array)
		return ok && Identical(a.Elem, b.Elem)
	}
	return false
}

// AssignableTo reports whether a value of type src may be assigned to a
// location of type dst. Reference types use Java-like subtyping with
// covariant arrays; null is assignable to any reference type.
func AssignableTo(src, dst Type) bool {
	if Identical(src, dst) {
		return true
	}
	if src == Basic(NullT) {
		return IsRef(dst)
	}
	switch src := src.(type) {
	case *Class:
		if dst, ok := dst.(*Class); ok {
			return src.Info.IsSubclassOf(dst.Info)
		}
	case *Array:
		if dst, ok := dst.(*Class); ok {
			return dst.Info.Name == "Object"
		}
		if dst, ok := dst.(*Array); ok {
			return AssignableTo(src.Elem, dst.Elem) && IsRef(src.Elem)
		}
	}
	return false
}

// CastableTo reports whether (dst) src is a legal cast: identical
// types, widening, or narrowing among related reference types.
func CastableTo(src, dst Type) bool {
	if AssignableTo(src, dst) || AssignableTo(dst, src) {
		return true
	}
	// Object <-> arrays.
	if c, ok := src.(*Class); ok && c.Info.Name == "Object" {
		if _, isArr := dst.(*Array); isArr {
			return true
		}
	}
	return false
}

// bodies returns the method bodies to check, in declaration order, and
// lays out the fact tables for them.
func (c *checker) bodies() []*MethodInfo {
	var ms []*MethodInfo
	n := int32(0)
	for _, decl := range c.info.Prog.Classes {
		ci := c.info.Classes[decl.Name]
		if ci == nil || ci.Decl != decl {
			continue
		}
		for _, m := range decl.Methods {
			if mi := c.info.MethodOfDecl[m]; mi != nil {
				mi.exprBase = n
				n += m.NumExprs
				ms = append(ms, mi)
			}
		}
	}
	c.info.facts = Body{
		types:     make([]Type, n),
		refs:      make([]*Ref, n),
		fieldRefs: make([]*FieldInfo, n),
		arrayLen:  make([]bool, n),
		calls:     make([]*CallInfo, n),
	}
	return ms
}

func (c *checker) checkBodies() {
	for _, mi := range c.bodies() {
		c.curClass = mi.Owner
		c.curMethod = mi
		c.body = c.info.Body(mi)
		c.scopes = []map[string]*Ref{{}}
		for _, p := range mi.Decl.Params {
			c.declare(p.Name, &Ref{Kind: RefParam, Param: p}, p.Pos())
		}
		c.checkStmt(mi.Decl.Body)
	}
	c.curClass = nil
	c.curMethod = nil
	c.body = Body{}
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*Ref{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, r *Ref, pos token.Pos) {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		c.errorf(pos, "redeclaration of %s in the same scope", name)
	}
	top[name] = r
}

func (c *checker) lookup(name string) *Ref {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if r, ok := c.scopes[i][name]; ok {
			return r
		}
	}
	return nil
}

func (c *checker) paramType(p *ast.Param) Type   { return c.resolveType(p.Type) }
func (c *checker) localType(d *ast.VarDecl) Type { return c.resolveType(d.Type) }

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.Block:
		c.pushScope()
		for _, st := range s.Stmts {
			c.checkStmt(st)
		}
		c.popScope()
	case *ast.VarDecl:
		t := c.resolveType(s.Type)
		if s.Init != nil {
			it := c.checkExpr(s.Init)
			if it != nil && !AssignableTo(it, t) {
				c.errorf(s.Pos(), "cannot initialize %s (%s) with value of type %s", s.Name, t, it)
			}
		}
		c.declare(s.Name, &Ref{Kind: RefLocal, Local: s}, s.Pos())
	case *ast.Assign:
		lt := c.checkLValue(s.LHS)
		rt := c.checkExpr(s.RHS)
		if lt != nil && rt != nil && !AssignableTo(rt, lt) {
			c.errorf(s.Pos(), "cannot assign value of type %s to location of type %s", rt, lt)
		}
	case *ast.If:
		c.checkCond(s.Cond)
		c.checkStmt(s.Then)
		c.checkStmt(s.Else)
	case *ast.While:
		c.checkCond(s.Cond)
		c.checkStmt(s.Body)
	case *ast.For:
		c.pushScope()
		c.checkStmt(s.Init)
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		c.checkStmt(s.Post)
		c.checkStmt(s.Body)
		c.popScope()
	case *ast.Return:
		var vt Type = VoidT
		if s.Value != nil {
			vt = c.checkExpr(s.Value)
		}
		ret := c.curMethod.Ret
		if s.Value == nil && ret != Basic(VoidT) {
			c.errorf(s.Pos(), "missing return value (method returns %s)", ret)
		} else if s.Value != nil {
			if ret == Basic(VoidT) {
				c.errorf(s.Pos(), "void method cannot return a value")
			} else if vt != nil && !AssignableTo(vt, ret) {
				c.errorf(s.Pos(), "cannot return %s from method returning %s", vt, ret)
			}
		}
	case *ast.ExprStmt:
		c.checkExpr(s.X)
	case *ast.Throw:
		t := c.checkExpr(s.X)
		if t != nil && !IsRef(t) {
			c.errorf(s.Pos(), "throw requires an object, got %s", t)
		}
	case *ast.Assert:
		c.checkCond(s.Cond)
	case *ast.Break, *ast.Continue:
		// Loop-nesting validity is enforced during IR lowering.
	default:
		c.errorf(s.Pos(), "unexpected statement %T", s)
	}
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if t != nil && t != Basic(BoolT) {
		c.errorf(e.Pos(), "condition must be boolean, got %s", t)
	}
}

// checkLValue checks an assignment target and returns its type.
func (c *checker) checkLValue(e ast.Expr) Type {
	switch e := e.(type) {
	case *ast.Ident:
		t := c.checkExpr(e)
		if r := c.body.Ref(e); r != nil && r.Kind == RefClass {
			c.errorf(e.Pos(), "cannot assign to class name %s", e.Name)
			return nil
		}
		return t
	case *ast.FieldAccess:
		t := c.checkExpr(e)
		if c.body.IsArrayLen(e) {
			c.errorf(e.Pos(), "cannot assign to array length")
			return nil
		}
		return t
	case *ast.Index:
		return c.checkExpr(e)
	}
	c.errorf(e.Pos(), "invalid assignment target")
	c.checkExpr(e)
	return nil
}

func (c *checker) setType(e ast.Expr, t Type) Type {
	c.body.types[e.ExprID()] = t
	return t
}

func (c *checker) checkExpr(e ast.Expr) Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return c.setType(e, IntT)
	case *ast.BoolLit:
		return c.setType(e, BoolT)
	case *ast.StrLit:
		return c.setType(e, ClassType(c.info.String))
	case *ast.NullLit:
		return c.setType(e, NullT)
	case *ast.This:
		if c.curMethod.Static {
			c.errorf(e.Pos(), "cannot use 'this' in a static method")
		}
		return c.setType(e, ClassType(c.curClass))
	case *ast.Ident:
		return c.checkIdent(e)
	case *ast.Binary:
		return c.checkBinary(e)
	case *ast.Unary:
		t := c.checkExpr(e.X)
		switch e.Op {
		case token.NOT:
			if t != nil && t != Basic(BoolT) {
				c.errorf(e.Pos(), "operator ! requires boolean, got %s", t)
			}
			return c.setType(e, BoolT)
		case token.SUB:
			if t != nil && t != Basic(IntT) {
				c.errorf(e.Pos(), "operator - requires int, got %s", t)
			}
			return c.setType(e, IntT)
		}
		return c.setType(e, IntT)
	case *ast.FieldAccess:
		return c.checkFieldAccess(e)
	case *ast.Index:
		xt := c.checkExpr(e.X)
		it := c.checkExpr(e.I)
		if it != nil && it != Basic(IntT) {
			c.errorf(e.I.Pos(), "array index must be int, got %s", it)
		}
		if arr, ok := xt.(*Array); ok {
			return c.setType(e, arr.Elem)
		}
		if xt != nil {
			c.errorf(e.Pos(), "cannot index non-array type %s", xt)
		}
		return c.setType(e, IntT)
	case *ast.Call:
		return c.checkCall(e)
	case *ast.New:
		return c.checkNew(e)
	case *ast.NewArray:
		lt := c.checkExpr(e.Len)
		if lt != nil && lt != Basic(IntT) {
			c.errorf(e.Len.Pos(), "array length must be int, got %s", lt)
		}
		return c.setType(e, &Array{Elem: c.resolveType(e.Elem)})
	case *ast.Cast:
		xt := c.checkExpr(e.X)
		dt := c.resolveType(e.Type)
		if xt != nil && !CastableTo(xt, dt) {
			c.errorf(e.Pos(), "impossible cast from %s to %s", xt, dt)
		}
		return c.setType(e, dt)
	case *ast.InstanceOf:
		xt := c.checkExpr(e.X)
		if xt != nil && !IsRef(xt) {
			c.errorf(e.Pos(), "instanceof requires a reference, got %s", xt)
		}
		if _, ok := c.info.Classes[e.Class]; !ok {
			c.errorf(e.Pos(), "instanceof against undeclared class %s", e.Class)
		}
		return c.setType(e, BoolT)
	}
	c.errorf(e.Pos(), "unexpected expression %T", e)
	return nil
}

func (c *checker) checkIdent(e *ast.Ident) Type {
	if r := c.lookup(e.Name); r != nil {
		c.body.refs[e.ID] = r
		switch r.Kind {
		case RefLocal:
			return c.setType(e, c.localType(r.Local))
		case RefParam:
			return c.setType(e, c.paramType(r.Param))
		}
	}
	// Field of the enclosing class (or a superclass)?
	if f := c.curClass.LookupField(e.Name); f != nil {
		kind := RefField
		if f.Static {
			kind = RefStaticField
		} else if c.curMethod.Static {
			c.errorf(e.Pos(), "cannot use instance field %s in a static method", e.Name)
		}
		c.body.refs[e.ID] = &Ref{Kind: kind, Field: f}
		return c.setType(e, f.Type)
	}
	// Class name, for static member access C.f or C.m().
	if ci, ok := c.info.Classes[e.Name]; ok {
		c.body.refs[e.ID] = &Ref{Kind: RefClass, Class: ci}
		return c.setType(e, ClassType(ci))
	}
	c.errorf(e.Pos(), "undeclared identifier %s", e.Name)
	return c.setType(e, IntT)
}

func (c *checker) checkBinary(e *ast.Binary) Type {
	xt := c.checkExpr(e.X)
	yt := c.checkExpr(e.Y)
	strT := ClassType(c.info.String)
	switch e.Op {
	case token.ADD:
		// String concatenation: string + string|int.
		if isString(xt) || isString(yt) {
			okOperand := func(t Type) bool { return t == nil || isString(t) || t == Basic(IntT) }
			if !okOperand(xt) || !okOperand(yt) {
				c.errorf(e.Pos(), "invalid operands for string concatenation: %s + %s", xt, yt)
			}
			return c.setType(e, strT)
		}
		fallthrough
	case token.SUB, token.MUL, token.QUO, token.REM:
		c.wantInt(e.X, xt)
		c.wantInt(e.Y, yt)
		return c.setType(e, IntT)
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		c.wantInt(e.X, xt)
		c.wantInt(e.Y, yt)
		return c.setType(e, BoolT)
	case token.EQL, token.NEQ:
		if xt != nil && yt != nil {
			if !(AssignableTo(xt, yt) || AssignableTo(yt, xt)) {
				c.errorf(e.Pos(), "cannot compare %s and %s", xt, yt)
			}
		}
		return c.setType(e, BoolT)
	case token.LAND, token.LOR:
		c.wantBool(e.X, xt)
		c.wantBool(e.Y, yt)
		return c.setType(e, BoolT)
	}
	c.errorf(e.Pos(), "unexpected binary operator %s", e.Op)
	return c.setType(e, IntT)
}

func isString(t Type) bool {
	cl, ok := t.(*Class)
	return ok && cl.Info.Name == "String"
}

func (c *checker) wantInt(e ast.Expr, t Type) {
	if t != nil && t != Basic(IntT) {
		c.errorf(e.Pos(), "operand must be int, got %s", t)
	}
}

func (c *checker) wantBool(e ast.Expr, t Type) {
	if t != nil && t != Basic(BoolT) {
		c.errorf(e.Pos(), "operand must be boolean, got %s", t)
	}
}

func (c *checker) checkFieldAccess(e *ast.FieldAccess) Type {
	// Static field access through a class name.
	if id, ok := e.X.(*ast.Ident); ok {
		if c.lookup(id.Name) == nil && c.curClass.LookupField(id.Name) == nil {
			if ci, isClass := c.info.Classes[id.Name]; isClass {
				c.body.refs[id.ID] = &Ref{Kind: RefClass, Class: ci}
				c.setType(id, ClassType(ci))
				f := ci.LookupField(e.Name)
				if f == nil || !f.Static {
					c.errorf(e.Pos(), "class %s has no static field %s", ci.Name, e.Name)
					return c.setType(e, IntT)
				}
				c.body.fieldRefs[e.ID] = f
				return c.setType(e, f.Type)
			}
		}
	}
	xt := c.checkExpr(e.X)
	if arr, ok := xt.(*Array); ok {
		_ = arr
		if e.Name == "length" {
			c.body.arrayLen[e.ID] = true
			return c.setType(e, IntT)
		}
		c.errorf(e.Pos(), "arrays have no field %s", e.Name)
		return c.setType(e, IntT)
	}
	cl, ok := xt.(*Class)
	if !ok {
		if xt != nil {
			c.errorf(e.Pos(), "cannot access field %s of non-object type %s", e.Name, xt)
		}
		return c.setType(e, IntT)
	}
	f := cl.Info.LookupField(e.Name)
	if f == nil {
		c.errorf(e.Pos(), "class %s has no field %s", cl.Info.Name, e.Name)
		return c.setType(e, IntT)
	}
	c.body.fieldRefs[e.ID] = f
	return c.setType(e, f.Type)
}

var strIntrinsics = map[string]struct {
	kind   Intrinsic
	params []Type
	retInt bool // true: int result; handled specially below
}{
	"length":     {StrLength, nil, true},
	"substring":  {StrSubstring, []Type{IntT, IntT}, false},
	"indexOf":    {StrIndexOf, []Type{nil}, true}, // nil = String param, filled below
	"charAt":     {StrCharAt, []Type{IntT}, true},
	"equals":     {StrEquals, []Type{nil}, false},
	"startsWith": {StrStartsWith, []Type{nil}, false},
}

func (c *checker) checkCall(e *ast.Call) Type {
	strT := ClassType(c.info.String)
	// super(...) constructor call.
	if e.IsSuper {
		if !c.curMethod.IsCtor {
			c.errorf(e.Pos(), "super(...) is only allowed in constructors")
			return c.setType(e, VoidT)
		}
		sup := c.curClass.Super
		if sup == nil {
			c.errorf(e.Pos(), "class %s has no superclass", c.curClass.Name)
			return c.setType(e, VoidT)
		}
		ctor := sup.Ctor
		if ctor == nil {
			ctor = &MethodInfo{Owner: sup, IsCtor: true, Ret: VoidT}
		}
		c.checkArgs(e, ctor.Params)
		c.body.calls[e.ID] = &CallInfo{Method: ctor, StaticCall: true}
		return c.setType(e, VoidT)
	}
	// Unqualified: builtin, or method of the enclosing class.
	if e.Recv == nil {
		switch e.Name {
		case "print":
			if len(e.Args) != 1 {
				c.errorf(e.Pos(), "print takes exactly 1 argument")
			}
			for _, a := range e.Args {
				c.checkExpr(a)
			}
			c.body.calls[e.ID] = &CallInfo{Intrinsic: BuiltinPrint}
			return c.setType(e, VoidT)
		case "itoa":
			c.checkArgs(e, []Type{IntT})
			c.body.calls[e.ID] = &CallInfo{Intrinsic: BuiltinItoa}
			return c.setType(e, strT)
		case "input":
			c.checkArgs(e, nil)
			c.body.calls[e.ID] = &CallInfo{Intrinsic: BuiltinInput}
			return c.setType(e, strT)
		case "inputInt":
			c.checkArgs(e, nil)
			c.body.calls[e.ID] = &CallInfo{Intrinsic: BuiltinInputInt}
			return c.setType(e, IntT)
		}
		m := c.curClass.LookupMethod(e.Name)
		if m == nil {
			c.errorf(e.Pos(), "class %s has no method %s", c.curClass.Name, e.Name)
			return c.setType(e, IntT)
		}
		if !m.Static && c.curMethod.Static {
			c.errorf(e.Pos(), "cannot call instance method %s from a static method", e.Name)
		}
		c.checkArgs(e, m.Params)
		c.body.calls[e.ID] = &CallInfo{Method: m, StaticCall: m.Static}
		return c.setType(e, m.Ret)
	}
	// Static call through a class name.
	if id, ok := e.Recv.(*ast.Ident); ok {
		if c.lookup(id.Name) == nil && c.curClass.LookupField(id.Name) == nil {
			if ci, isClass := c.info.Classes[id.Name]; isClass {
				c.body.refs[id.ID] = &Ref{Kind: RefClass, Class: ci}
				c.setType(id, ClassType(ci))
				m := ci.LookupMethod(e.Name)
				if m == nil || !m.Static {
					c.errorf(e.Pos(), "class %s has no static method %s", ci.Name, e.Name)
					return c.setType(e, IntT)
				}
				c.checkArgs(e, m.Params)
				c.body.calls[e.ID] = &CallInfo{Method: m, StaticCall: true}
				return c.setType(e, m.Ret)
			}
		}
	}
	rt := c.checkExpr(e.Recv)
	// String intrinsics.
	if isString(rt) {
		if in, ok := strIntrinsics[e.Name]; ok {
			params := make([]Type, len(in.params))
			for i, p := range in.params {
				if p == nil {
					params[i] = strT
				} else {
					params[i] = p
				}
			}
			c.checkArgs(e, params)
			c.body.calls[e.ID] = &CallInfo{Intrinsic: in.kind}
			switch in.kind {
			case StrSubstring:
				return c.setType(e, strT)
			case StrEquals, StrStartsWith:
				return c.setType(e, BoolT)
			default:
				return c.setType(e, IntT)
			}
		}
		c.errorf(e.Pos(), "String has no method %s", e.Name)
		return c.setType(e, IntT)
	}
	cl, ok := rt.(*Class)
	if !ok {
		if rt != nil {
			c.errorf(e.Pos(), "cannot call method %s on non-object type %s", e.Name, rt)
		}
		return c.setType(e, IntT)
	}
	m := cl.Info.LookupMethod(e.Name)
	if m == nil {
		c.errorf(e.Pos(), "class %s has no method %s", cl.Info.Name, e.Name)
		return c.setType(e, IntT)
	}
	c.checkArgs(e, m.Params)
	c.body.calls[e.ID] = &CallInfo{Method: m, StaticCall: m.Static}
	return c.setType(e, m.Ret)
}

func (c *checker) checkArgs(e *ast.Call, params []Type) {
	if len(e.Args) != len(params) {
		c.errorf(e.Pos(), "call to %s has %d arguments, want %d", e.Name, len(e.Args), len(params))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(params) && at != nil && params[i] != nil && !AssignableTo(at, params[i]) {
			c.errorf(a.Pos(), "argument %d of %s has type %s, want %s", i+1, e.Name, at, params[i])
		}
	}
}

func (c *checker) checkNew(e *ast.New) Type {
	ci, ok := c.info.Classes[e.Class]
	if !ok {
		c.errorf(e.Pos(), "cannot instantiate undeclared class %s", e.Class)
		return c.setType(e, ClassType(c.info.Object))
	}
	if ci == c.info.Object || ci == c.info.String {
		// new Object() is allowed (useful as an opaque token); new String() is not.
		if ci == c.info.String {
			c.errorf(e.Pos(), "cannot instantiate String directly")
		}
	}
	var params []Type
	if ci.Ctor != nil {
		params = ci.Ctor.Params
	}
	if len(e.Args) != len(params) {
		c.errorf(e.Pos(), "constructor of %s takes %d arguments, got %d", e.Class, len(params), len(e.Args))
	}
	for i, a := range e.Args {
		at := c.checkExpr(a)
		if i < len(params) && at != nil && !AssignableTo(at, params[i]) {
			c.errorf(a.Pos(), "constructor argument %d has type %s, want %s", i+1, at, params[i])
		}
	}
	return c.setType(e, ClassType(ci))
}

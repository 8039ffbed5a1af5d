// Package ast defines the abstract syntax tree for the MiniJava-style
// source language. Nodes carry source positions so that slices can be
// reported back in terms of source lines.
package ast

import "thinslice/internal/lang/token"

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Program is a whole analyzed program: the union of all parsed files.
type Program struct {
	Classes []*ClassDecl
	// SrcBytes is the total size of the parsed sources. Nothing reads
	// it since the checker sizes its tables from MethodDecl.NumExprs;
	// it stays because the benchmark module still sets it.
	SrcBytes int
}

// Class returns the declaration of the named class, or nil.
func (p *Program) Class(name string) *ClassDecl {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ClassDecl is a class declaration. Every class implicitly extends
// Object unless Super names another class.
type ClassDecl struct {
	NamePos token.Pos
	Name    string
	Super   string // "" means Object
	Fields  []*FieldDecl
	Methods []*MethodDecl
}

func (c *ClassDecl) Pos() token.Pos { return c.NamePos }

// FieldDecl is an instance or static field declaration.
type FieldDecl struct {
	NamePos token.Pos
	Static  bool
	Final   bool
	Type    TypeExpr
	Name    string
}

func (f *FieldDecl) Pos() token.Pos { return f.NamePos }

// MethodDecl is a method or constructor declaration. Constructors have
// IsCtor true, Name equal to the class name, and no return type.
type MethodDecl struct {
	NamePos token.Pos
	Static  bool
	IsCtor  bool
	Ret     TypeExpr // nil for constructors
	Name    string
	Params  []*Param
	Body    *Block
	// NumExprs is the number of expression nodes in Body, whose
	// ExprIDs are 0 to NumExprs-1.
	NumExprs int32
}

func (m *MethodDecl) Pos() token.Pos { return m.NamePos }

// Param is a formal parameter.
type Param struct {
	NamePos token.Pos
	Type    TypeExpr
	Name    string
}

func (p *Param) Pos() token.Pos { return p.NamePos }

// TypeExpr is a syntactic type.
type TypeExpr interface {
	Node
	typeExpr()
}

// PrimKind enumerates primitive types.
type PrimKind int

// Primitive type kinds.
const (
	PrimInt PrimKind = iota
	PrimBool
	PrimString
	PrimVoid
)

func (k PrimKind) String() string {
	switch k {
	case PrimInt:
		return "int"
	case PrimBool:
		return "boolean"
	case PrimString:
		return "string"
	case PrimVoid:
		return "void"
	}
	return "?"
}

// PrimType is a primitive type expression (int, boolean, string, void).
type PrimType struct {
	KindPos token.Pos
	Kind    PrimKind
}

func (t *PrimType) Pos() token.Pos { return t.KindPos }
func (t *PrimType) typeExpr()      {}

// NamedType references a class by name.
type NamedType struct {
	NamePos token.Pos
	Name    string
}

func (t *NamedType) Pos() token.Pos { return t.NamePos }
func (t *NamedType) typeExpr()      {}

// ArrayType is T[].
type ArrayType struct {
	Elem TypeExpr
}

func (t *ArrayType) Pos() token.Pos { return t.Elem.Pos() }
func (t *ArrayType) typeExpr()      {}

// TypeString renders a type expression as source text.
func TypeString(t TypeExpr) string {
	switch t := t.(type) {
	case *PrimType:
		return t.Kind.String()
	case *NamedType:
		return t.Name
	case *ArrayType:
		return TypeString(t.Elem) + "[]"
	}
	return "?"
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmt()
}

// Block is { stmts... }.
type Block struct {
	LbracePos token.Pos
	Stmts     []Stmt
}

func (s *Block) Pos() token.Pos { return s.LbracePos }
func (s *Block) stmt()          {}

// VarDecl declares a local variable, optionally with an initializer.
type VarDecl struct {
	NamePos token.Pos
	Type    TypeExpr
	Name    string
	Init    Expr // may be nil
}

func (s *VarDecl) Pos() token.Pos { return s.NamePos }
func (s *VarDecl) stmt()          {}

// Assign assigns RHS to an lvalue (Ident, FieldAccess, or Index).
type Assign struct {
	AssignPos token.Pos
	LHS       Expr
	RHS       Expr
}

func (s *Assign) Pos() token.Pos { return s.AssignPos }
func (s *Assign) stmt()          {}

// If is a conditional with an optional else branch.
type If struct {
	IfPos token.Pos
	Cond  Expr
	Then  Stmt
	Else  Stmt // may be nil
}

func (s *If) Pos() token.Pos { return s.IfPos }
func (s *If) stmt()          {}

// While is a pre-test loop.
type While struct {
	WhilePos token.Pos
	Cond     Expr
	Body     Stmt
}

func (s *While) Pos() token.Pos { return s.WhilePos }
func (s *While) stmt()          {}

// For is a C-style for loop; Init and Post may be nil.
type For struct {
	ForPos token.Pos
	Init   Stmt // VarDecl, Assign, or ExprStmt
	Cond   Expr // may be nil (treated as true)
	Post   Stmt
	Body   Stmt
}

func (s *For) Pos() token.Pos { return s.ForPos }
func (s *For) stmt()          {}

// Return exits a method, optionally with a value.
type Return struct {
	RetPos token.Pos
	Value  Expr // may be nil
}

func (s *Return) Pos() token.Pos { return s.RetPos }
func (s *Return) stmt()          {}

// ExprStmt evaluates an expression (a call) for effect.
type ExprStmt struct {
	X Expr
}

func (s *ExprStmt) Pos() token.Pos { return s.X.Pos() }
func (s *ExprStmt) stmt()          {}

// Throw raises an exception object; control does not continue.
type Throw struct {
	ThrowPos token.Pos
	X        Expr
}

func (s *Throw) Pos() token.Pos { return s.ThrowPos }
func (s *Throw) stmt()          {}

// Assert checks a condition; failure is a program failure point.
type Assert struct {
	AssertPos token.Pos
	Cond      Expr
}

func (s *Assert) Pos() token.Pos { return s.AssertPos }
func (s *Assert) stmt()          {}

// Break exits the innermost loop.
type Break struct{ BreakPos token.Pos }

func (s *Break) Pos() token.Pos { return s.BreakPos }
func (s *Break) stmt()          {}

// Continue jumps to the next iteration of the innermost loop.
type Continue struct{ ContinuePos token.Pos }

func (s *Continue) Pos() token.Pos { return s.ContinuePos }
func (s *Continue) stmt()          {}

// Expr is implemented by all expression nodes. ExprID numbers an
// expression densely from 0 within its method body (MethodDecl.NumExprs
// bounds it), so per-expression facts can live in tables indexed by it
// rather than in the nodes, and one parsed AST can be shared by
// programs that resolve it differently. Distinct nodes of a body have
// distinct IDs.
type Expr interface {
	Node
	ExprID() int32
}

// IntLit is an integer literal (also used for char literals).
type IntLit struct {
	LitPos token.Pos
	Value  int64
	ID     int32
}

func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (e *IntLit) ExprID() int32  { return e.ID }

// BoolLit is true or false.
type BoolLit struct {
	LitPos token.Pos
	Value  bool
	ID     int32
}

func (e *BoolLit) Pos() token.Pos { return e.LitPos }
func (e *BoolLit) ExprID() int32  { return e.ID }

// StrLit is a string literal.
type StrLit struct {
	LitPos token.Pos
	Value  string
	ID     int32
}

func (e *StrLit) Pos() token.Pos { return e.LitPos }
func (e *StrLit) ExprID() int32  { return e.ID }

// NullLit is the null reference.
type NullLit struct {
	LitPos token.Pos
	ID     int32
}

func (e *NullLit) Pos() token.Pos { return e.LitPos }
func (e *NullLit) ExprID() int32  { return e.ID }

// Ident names a local variable, parameter, field of this, or class (in
// a static field/method access position).
type Ident struct {
	NamePos token.Pos
	Name    string
	ID      int32
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (e *Ident) ExprID() int32  { return e.ID }

// This is the receiver reference.
type This struct {
	ThisPos token.Pos
	ID      int32
}

func (e *This) Pos() token.Pos { return e.ThisPos }
func (e *This) ExprID() int32  { return e.ID }

// Binary is a binary operation X Op Y.
type Binary struct {
	OpPos token.Pos
	Op    token.Kind
	X, Y  Expr
	ID    int32
}

func (e *Binary) Pos() token.Pos { return e.X.Pos() }
func (e *Binary) ExprID() int32  { return e.ID }

// Unary is !X or -X.
type Unary struct {
	OpPos token.Pos
	Op    token.Kind
	X     Expr
	ID    int32
}

func (e *Unary) Pos() token.Pos { return e.OpPos }
func (e *Unary) ExprID() int32  { return e.ID }

// FieldAccess is X.Name, including array .length and static Class.f.
type FieldAccess struct {
	X       Expr
	NamePos token.Pos
	Name    string
	ID      int32
}

func (e *FieldAccess) Pos() token.Pos { return e.NamePos }
func (e *FieldAccess) ExprID() int32  { return e.ID }

// Index is X[I].
type Index struct {
	X, I Expr
	ID   int32
}

func (e *Index) Pos() token.Pos { return e.X.Pos() }
func (e *Index) ExprID() int32  { return e.ID }

// Call invokes a method. Recv is nil for unqualified calls (implicit
// this, a static method of the enclosing class, or a builtin such as
// print). A Recv that is an Ident naming a class is a static call.
type Call struct {
	Recv    Expr // may be nil
	NamePos token.Pos
	Name    string
	Args    []Expr
	IsSuper bool // true for super(...) constructor calls
	ID      int32
}

func (e *Call) Pos() token.Pos { return e.NamePos }
func (e *Call) ExprID() int32  { return e.ID }

// New allocates an object and runs its constructor.
type New struct {
	NewPos token.Pos
	Class  string
	Args   []Expr
	ID     int32
}

func (e *New) Pos() token.Pos { return e.NewPos }
func (e *New) ExprID() int32  { return e.ID }

// NewArray allocates an array: new T[Len].
type NewArray struct {
	NewPos token.Pos
	Elem   TypeExpr
	Len    Expr
	ID     int32
}

func (e *NewArray) Pos() token.Pos { return e.NewPos }
func (e *NewArray) ExprID() int32  { return e.ID }

// Cast is (T) X.
type Cast struct {
	LparenPos token.Pos
	Type      TypeExpr
	X         Expr
	ID        int32
}

func (e *Cast) Pos() token.Pos { return e.LparenPos }
func (e *Cast) ExprID() int32  { return e.ID }

// InstanceOf is X instanceof Class.
type InstanceOf struct {
	X     Expr
	Class string
	ID    int32
}

func (e *InstanceOf) Pos() token.Pos { return e.X.Pos() }
func (e *InstanceOf) ExprID() int32  { return e.ID }

// Walk calls f for every statement and expression node reachable from
// n, in source order, each node before its children. The LHS that an
// x += e or x++ shares with its synthesized Binary is visited twice.
func Walk(n Node, f func(Node)) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *Block:
		if n == nil {
			return
		}
		f(n)
		for _, s := range n.Stmts {
			Walk(s, f)
		}
	case *VarDecl:
		f(n)
		Walk(n.Init, f)
	case *Assign:
		f(n)
		Walk(n.LHS, f)
		Walk(n.RHS, f)
	case *If:
		f(n)
		Walk(n.Cond, f)
		Walk(n.Then, f)
		Walk(n.Else, f)
	case *While:
		f(n)
		Walk(n.Cond, f)
		Walk(n.Body, f)
	case *For:
		f(n)
		Walk(n.Init, f)
		Walk(n.Cond, f)
		Walk(n.Post, f)
		Walk(n.Body, f)
	case *Return:
		f(n)
		Walk(n.Value, f)
	case *ExprStmt:
		f(n)
		Walk(n.X, f)
	case *Throw:
		f(n)
		Walk(n.X, f)
	case *Assert:
		f(n)
		Walk(n.Cond, f)
	case *Break, *Continue, *This, *IntLit, *BoolLit,
		*StrLit, *NullLit, *Ident:
		f(n)
	case *Binary:
		f(n)
		Walk(n.X, f)
		Walk(n.Y, f)
	case *Unary:
		f(n)
		Walk(n.X, f)
	case *FieldAccess:
		f(n)
		Walk(n.X, f)
	case *Index:
		f(n)
		Walk(n.X, f)
		Walk(n.I, f)
	case *Call:
		f(n)
		Walk(n.Recv, f)
		for _, a := range n.Args {
			Walk(a, f)
		}
	case *New:
		f(n)
		for _, a := range n.Args {
			Walk(a, f)
		}
	case *NewArray:
		f(n)
		Walk(n.Len, f)
	case *Cast:
		f(n)
		Walk(n.X, f)
	case *InstanceOf:
		f(n)
		Walk(n.X, f)
	}
}

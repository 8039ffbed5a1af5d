// Package parser builds an AST from MiniJava-style source text using
// recursive descent with arbitrary lookahead.
package parser

import (
	"fmt"
	"strconv"

	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/lexer"
	"thinslice/internal/lang/token"
)

// Error is a syntax error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList aggregates parse errors.
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

type parser struct {
	file   string
	src    string // CRLF-normalized; token offsets index it
	toks   []token.Token
	i      int
	errors ErrorList
	// nextID is the ExprID the next expression node of the current
	// method body gets.
	nextID int32
}

// ParseFile parses one source file into a list of class declarations.
// A source of 2 GiB or more is rejected with an error.
func ParseFile(file, src string) ([]*ast.ClassDecl, error) {
	src, toks, lexErrs := lexer.ScanAll(file, src)
	p := &parser{file: file, src: src, toks: toks}
	for _, e := range lexErrs {
		p.errors = append(p.errors, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	var classes []*ast.ClassDecl
	for !p.atEOF() {
		c := p.parseClass()
		if c != nil {
			classes = append(classes, c)
		}
	}
	if len(p.errors) > 0 {
		return classes, p.errors
	}
	return classes, nil
}

// ParseProgram parses several named sources into one program.
// Sources is a map from file name to content; order of iteration does
// not affect the result because classes are name-resolved later.
func ParseProgram(sources map[string]string) (*ast.Program, error) {
	prog := &ast.Program{}
	var all ErrorList
	// Iterate deterministically for stable error ordering.
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		classes, err := ParseFile(name, sources[name])
		prog.Classes = append(prog.Classes, classes...)
		if err != nil {
			all = append(all, err.(ErrorList)...)
		}
	}
	if len(all) > 0 {
		return prog, all
	}
	return prog, nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (p *parser) cur() token.Token {
	if p.i < len(p.toks) {
		return p.toks[p.i]
	}
	eof := token.Token{Kind: token.EOF}
	if len(p.toks) > 0 {
		last := p.toks[len(p.toks)-1]
		eof.Line, eof.Col, eof.Off, eof.End = last.Line, last.Col, last.End, last.End
	}
	return eof
}

// pos returns t's source position.
func (p *parser) pos(t token.Token) token.Pos {
	return token.Pos{File: p.file, Line: int(t.Line), Col: int(t.Col)}
}

// lit returns t's literal text.
func (p *parser) lit(t token.Token) string { return lexer.Lit(p.src, t) }

// describe renders t for a diagnostic: a literal kind with its text,
// anything else by its spelling.
func (p *parser) describe(t token.Token) string {
	switch t.Kind {
	case token.IDENT, token.INT, token.STRING, token.CHAR:
		return fmt.Sprintf("%s(%q)", t.Kind, p.lit(t))
	}
	return t.Kind.String()
}

// id numbers the next expression node of the current method body.
func (p *parser) id() int32 {
	id := p.nextID
	p.nextID++
	return id
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

// peekKind returns the kind of the token n positions ahead (0 = current).
func (p *parser) peekKind(n int) token.Kind {
	if p.i+n < len(p.toks) {
		return p.toks[p.i+n].Kind
	}
	return token.EOF
}

func (p *parser) atEOF() bool { return p.i >= len(p.toks) }

func (p *parser) advance() token.Token {
	t := p.cur()
	if p.i < len(p.toks) {
		p.i++
	}
	return t
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	p.errors = append(p.errors, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) expect(k token.Kind) token.Token {
	t := p.cur()
	if t.Kind == k {
		return p.advance()
	}
	p.errorf(p.pos(t), "expected %s, found %s", k, p.describe(t))
	// A stand-in at the current position with empty text.
	return token.Token{Kind: k, Line: t.Line, Col: t.Col, Off: t.Off, End: t.Off}
}

// sync skips tokens until a likely statement/declaration boundary, to
// recover from errors without cascading.
func (p *parser) sync() {
	for !p.atEOF() {
		switch p.cur().Kind {
		case token.SEMI:
			p.advance()
			return
		case token.RBRACE, token.CLASS, token.IF, token.WHILE, token.FOR,
			token.RETURN, token.THROW, token.ASSERT:
			return
		}
		p.advance()
	}
}

func (p *parser) parseClass() *ast.ClassDecl {
	if !p.at(token.CLASS) {
		p.errorf(p.pos(p.cur()), "expected 'class', found %s", p.describe(p.cur()))
		p.advance()
		return nil
	}
	p.advance()
	nameTok := p.expect(token.IDENT)
	c := &ast.ClassDecl{NamePos: p.pos(nameTok), Name: p.lit(nameTok)}
	if p.at(token.EXTENDS) {
		p.advance()
		c.Super = p.lit(p.expect(token.IDENT))
	}
	p.expect(token.LBRACE)
	for !p.at(token.RBRACE) && !p.atEOF() {
		before := p.i
		p.parseMember(c)
		if p.i == before {
			// parseMember's error recovery stopped at a token it does not
			// consume (e.g. a stray statement keyword); skip it so the
			// loop always makes progress.
			p.advance()
		}
	}
	p.expect(token.RBRACE)
	return c
}

func (p *parser) parseMember(c *ast.ClassDecl) {
	static := false
	final := false
	for p.at(token.STATIC) || p.at(token.FINAL) {
		if p.advance().Kind == token.STATIC {
			static = true
		} else {
			final = true
		}
	}
	// Constructor: ClassName followed by '('.
	if p.at(token.IDENT) && p.peekKind(1) == token.LPAREN && p.lit(p.cur()) == c.Name {
		nameTok := p.advance()
		m := &ast.MethodDecl{
			NamePos: p.pos(nameTok), Name: p.lit(nameTok), IsCtor: true,
			Params: p.parseParams(),
		}
		p.parseBody(m)
		c.Methods = append(c.Methods, m)
		return
	}
	typ := p.parseType()
	if typ == nil {
		p.sync()
		return
	}
	nameTok := p.expect(token.IDENT)
	if p.at(token.LPAREN) {
		m := &ast.MethodDecl{
			NamePos: p.pos(nameTok), Static: static, Ret: typ,
			Name: p.lit(nameTok), Params: p.parseParams(),
		}
		p.parseBody(m)
		c.Methods = append(c.Methods, m)
		return
	}
	// Field declaration (no initializers on fields; constructors set them).
	c.Fields = append(c.Fields, &ast.FieldDecl{
		NamePos: p.pos(nameTok), Static: static, Final: final, Type: typ, Name: p.lit(nameTok),
	})
	p.expect(token.SEMI)
}

// parseBody parses m's body, numbering its expressions from 0.
func (p *parser) parseBody(m *ast.MethodDecl) {
	p.nextID = 0
	m.Body = p.parseBlock()
	m.NumExprs = p.nextID
}

func (p *parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	var params []*ast.Param
	for !p.at(token.RPAREN) && !p.atEOF() {
		if len(params) > 0 {
			p.expect(token.COMMA)
		}
		typ := p.parseType()
		if typ == nil {
			p.sync()
			break
		}
		nameTok := p.expect(token.IDENT)
		params = append(params, &ast.Param{NamePos: p.pos(nameTok), Type: typ, Name: p.lit(nameTok)})
	}
	p.expect(token.RPAREN)
	return params
}

// parseType parses a type expression, or returns nil with an error
// recorded if the current token cannot start a type.
func (p *parser) parseType() ast.TypeExpr {
	var base ast.TypeExpr
	switch t := p.cur(); t.Kind {
	case token.INTK:
		p.advance()
		base = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimInt}
	case token.BOOLK:
		p.advance()
		base = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimBool}
	case token.STRK:
		p.advance()
		base = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimString}
	case token.VOID:
		p.advance()
		base = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimVoid}
	case token.IDENT:
		p.advance()
		base = &ast.NamedType{NamePos: p.pos(t), Name: p.lit(t)}
	default:
		p.errorf(p.pos(t), "expected type, found %s", p.describe(t))
		return nil
	}
	for p.at(token.LBRACK) && p.peekKind(1) == token.RBRACK {
		p.advance()
		p.advance()
		base = &ast.ArrayType{Elem: base}
	}
	return base
}

func (p *parser) parseBlock() *ast.Block {
	lb := p.expect(token.LBRACE)
	b := &ast.Block{LbracePos: p.pos(lb)}
	for !p.at(token.RBRACE) && !p.atEOF() {
		s := p.parseStmt()
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.expect(token.RBRACE)
	return b
}

// typeStartsDecl reports whether the token stream at the current
// position begins a local variable declaration rather than an
// expression statement.
func (p *parser) typeStartsDecl() bool {
	switch p.cur().Kind {
	case token.INTK, token.BOOLK, token.STRK:
		return true
	case token.IDENT:
		// "Foo x", "Foo[] x", "Foo[][] x" are declarations;
		// "Foo[i]" or "Foo.m()" or "Foo = e" are expressions.
		j := 1
		for p.peekKind(j) == token.LBRACK && p.peekKind(j+1) == token.RBRACK {
			j += 2
		}
		return p.peekKind(j) == token.IDENT
	}
	return false
}

func (p *parser) parseStmt() ast.Stmt {
	switch t := p.cur(); t.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.IF:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		s := &ast.If{IfPos: p.pos(t), Cond: cond, Then: p.parseStmt()}
		if p.at(token.ELSE) {
			p.advance()
			s.Else = p.parseStmt()
		}
		return s
	case token.WHILE:
		p.advance()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.While{WhilePos: p.pos(t), Cond: cond, Body: p.parseStmt()}
	case token.FOR:
		return p.parseFor()
	case token.RETURN:
		p.advance()
		s := &ast.Return{RetPos: p.pos(t)}
		if !p.at(token.SEMI) {
			s.Value = p.parseExpr()
		}
		p.expect(token.SEMI)
		return s
	case token.THROW:
		p.advance()
		s := &ast.Throw{ThrowPos: p.pos(t), X: p.parseExpr()}
		p.expect(token.SEMI)
		return s
	case token.ASSERT:
		p.advance()
		p.expect(token.LPAREN)
		s := &ast.Assert{AssertPos: p.pos(t), Cond: p.parseExpr()}
		p.expect(token.RPAREN)
		p.expect(token.SEMI)
		return s
	case token.BREAK:
		p.advance()
		p.expect(token.SEMI)
		return &ast.Break{BreakPos: p.pos(t)}
	case token.CONTINUE:
		p.advance()
		p.expect(token.SEMI)
		return &ast.Continue{ContinuePos: p.pos(t)}
	case token.SEMI:
		p.advance()
		return nil
	}
	if p.typeStartsDecl() {
		s := p.parseVarDecl()
		p.expect(token.SEMI)
		return s
	}
	s := p.parseSimpleStmt()
	p.expect(token.SEMI)
	return s
}

func (p *parser) parseVarDecl() ast.Stmt {
	typ := p.parseType()
	nameTok := p.expect(token.IDENT)
	d := &ast.VarDecl{NamePos: p.pos(nameTok), Type: typ, Name: p.lit(nameTok)}
	if p.at(token.ASSIGN) {
		p.advance()
		d.Init = p.parseExpr()
	}
	return d
}

// parseSimpleStmt parses assignments, op-assignments, ++/--, and call
// statements (everything that can appear in a for-init/post position).
func (p *parser) parseSimpleStmt() ast.Stmt {
	lhs := p.parseExpr()
	// x += e and x++ share lhs between the assignment and the
	// synthesized Binary, so that node keeps its one ExprID.
	switch t := p.cur(); t.Kind {
	case token.ASSIGN:
		p.advance()
		return &ast.Assign{AssignPos: p.pos(t), LHS: lhs, RHS: p.parseExpr()}
	case token.PLUSEQ, token.MINUSEQ:
		p.advance()
		op := token.ADD
		if t.Kind == token.MINUSEQ {
			op = token.SUB
		}
		rhs := p.parseExpr()
		return &ast.Assign{AssignPos: p.pos(t), LHS: lhs,
			RHS: &ast.Binary{ID: p.id(), OpPos: p.pos(t), Op: op, X: lhs, Y: rhs}}
	case token.INCR, token.DECR:
		p.advance()
		op := token.ADD
		if t.Kind == token.DECR {
			op = token.SUB
		}
		one := &ast.IntLit{ID: p.id(), LitPos: p.pos(t), Value: 1}
		return &ast.Assign{AssignPos: p.pos(t), LHS: lhs,
			RHS: &ast.Binary{ID: p.id(), OpPos: p.pos(t), Op: op, X: lhs, Y: one}}
	}
	if _, ok := lhs.(*ast.Call); !ok {
		if _, ok := lhs.(*ast.New); !ok {
			p.errorf(lhs.Pos(), "expression statement must be a call")
		}
	}
	return &ast.ExprStmt{X: lhs}
}

func (p *parser) parseFor() ast.Stmt {
	forTok := p.advance()
	p.expect(token.LPAREN)
	var init ast.Stmt
	if !p.at(token.SEMI) {
		if p.typeStartsDecl() {
			init = p.parseVarDecl()
		} else {
			init = p.parseSimpleStmt()
		}
	}
	p.expect(token.SEMI)
	var cond ast.Expr
	if !p.at(token.SEMI) {
		cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	var post ast.Stmt
	if !p.at(token.RPAREN) {
		post = p.parseSimpleStmt()
	}
	p.expect(token.RPAREN)
	return &ast.For{ForPos: p.pos(forTok), Init: init, Cond: cond, Post: post, Body: p.parseStmt()}
}

func (p *parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		t := p.cur()
		prec := t.Kind.Precedence()
		if prec < minPrec || prec == 0 {
			return x
		}
		p.advance()
		if t.Kind == token.INSTANCEOF {
			cls := p.expect(token.IDENT)
			x = &ast.InstanceOf{ID: p.id(), X: x, Class: p.lit(cls)}
			continue
		}
		y := p.parseBinary(prec + 1)
		x = &ast.Binary{ID: p.id(), OpPos: p.pos(t), Op: t.Kind, X: x, Y: y}
	}
}

// castLookahead reports whether the tokens at the current position
// (which must be LPAREN) form a cast "(T)" or "(T[])" followed by an
// operand, rather than a parenthesized expression.
func (p *parser) castLookahead() bool {
	if !p.at(token.LPAREN) {
		return false
	}
	j := 1
	switch p.peekKind(j) {
	case token.INTK, token.BOOLK, token.STRK:
		// (int) e is always a cast.
	case token.IDENT:
		// Ambiguous: "(x)" could be a parenthesized identifier.
	default:
		return false
	}
	isIdent := p.peekKind(j) == token.IDENT
	j++
	sawBrackets := false
	for p.peekKind(j) == token.LBRACK && p.peekKind(j+1) == token.RBRACK {
		j += 2
		sawBrackets = true
	}
	if p.peekKind(j) != token.RPAREN {
		return false
	}
	if !isIdent || sawBrackets {
		return true
	}
	// "(Foo) <operand>": only a cast if followed by something that can
	// start a unary operand but cannot continue a binary expression.
	switch p.peekKind(j + 1) {
	case token.IDENT, token.INT, token.STRING, token.CHAR, token.LPAREN,
		token.THIS, token.NEW, token.NULL, token.TRUE, token.FALSE, token.NOT:
		return true
	}
	return false
}

func (p *parser) parseUnary() ast.Expr {
	switch t := p.cur(); t.Kind {
	case token.NOT:
		p.advance()
		return &ast.Unary{ID: p.id(), OpPos: p.pos(t), Op: token.NOT, X: p.parseUnary()}
	case token.SUB:
		p.advance()
		return &ast.Unary{ID: p.id(), OpPos: p.pos(t), Op: token.SUB, X: p.parseUnary()}
	}
	if p.castLookahead() {
		lp := p.advance()
		typ := p.parseType()
		p.expect(token.RPAREN)
		return &ast.Cast{ID: p.id(), LparenPos: p.pos(lp), Type: typ, X: p.parseUnary()}
	}
	return p.parsePostfix(p.parsePrimary())
}

func (p *parser) parsePostfix(x ast.Expr) ast.Expr {
	for {
		switch t := p.cur(); t.Kind {
		case token.DOT:
			p.advance()
			nameTok := p.expect(token.IDENT)
			if p.at(token.LPAREN) {
				x = &ast.Call{ID: p.id(), Recv: x, NamePos: p.pos(nameTok), Name: p.lit(nameTok), Args: p.parseArgs()}
			} else {
				x = &ast.FieldAccess{ID: p.id(), X: x, NamePos: p.pos(nameTok), Name: p.lit(nameTok)}
			}
		case token.LBRACK:
			p.advance()
			i := p.parseExpr()
			p.expect(token.RBRACK)
			x = &ast.Index{ID: p.id(), X: x, I: i}
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	var args []ast.Expr
	for !p.at(token.RPAREN) && !p.atEOF() {
		if len(args) > 0 {
			p.expect(token.COMMA)
		}
		args = append(args, p.parseExpr())
	}
	p.expect(token.RPAREN)
	return args
}

func (p *parser) parsePrimary() ast.Expr {
	switch t := p.cur(); t.Kind {
	case token.INT:
		p.advance()
		lit := p.lit(t)
		v, err := strconv.ParseInt(lit, 10, 64)
		if err != nil {
			p.errorf(p.pos(t), "invalid integer literal %q", lit)
		}
		return &ast.IntLit{ID: p.id(), LitPos: p.pos(t), Value: v}
	case token.CHAR:
		p.advance()
		var v int64
		for _, r := range p.lit(t) {
			v = int64(r)
			break
		}
		return &ast.IntLit{ID: p.id(), LitPos: p.pos(t), Value: v}
	case token.STRING:
		p.advance()
		return &ast.StrLit{ID: p.id(), LitPos: p.pos(t), Value: p.lit(t)}
	case token.TRUE:
		p.advance()
		return &ast.BoolLit{ID: p.id(), LitPos: p.pos(t), Value: true}
	case token.FALSE:
		p.advance()
		return &ast.BoolLit{ID: p.id(), LitPos: p.pos(t), Value: false}
	case token.NULL:
		p.advance()
		return &ast.NullLit{ID: p.id(), LitPos: p.pos(t)}
	case token.THIS:
		p.advance()
		return &ast.This{ID: p.id(), ThisPos: p.pos(t)}
	case token.SUPER:
		p.advance()
		if p.at(token.LPAREN) {
			return &ast.Call{ID: p.id(), NamePos: p.pos(t), Name: "super", Args: p.parseArgs(), IsSuper: true}
		}
		p.errorf(p.pos(t), "'super' is only supported as a constructor call super(...)")
		return &ast.NullLit{ID: p.id(), LitPos: p.pos(t)}
	case token.NEW:
		p.advance()
		typ := p.parseTypeForNew(p.pos(t))
		return typ
	case token.IDENT:
		p.advance()
		if p.at(token.LPAREN) {
			return &ast.Call{ID: p.id(), NamePos: p.pos(t), Name: p.lit(t), Args: p.parseArgs()}
		}
		return &ast.Ident{ID: p.id(), NamePos: p.pos(t), Name: p.lit(t)}
	case token.LPAREN:
		p.advance()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	}
	t := p.cur()
	p.errorf(p.pos(t), "expected expression, found %s", p.describe(t))
	p.advance()
	return &ast.NullLit{ID: p.id(), LitPos: p.pos(t)}
}

// parseTypeForNew parses the remainder of a 'new' expression:
// new C(args), new T[len], or new T[len][] (unsupported multi-dim
// allocations report an error).
func (p *parser) parseTypeForNew(newPos token.Pos) ast.Expr {
	var elem ast.TypeExpr
	switch t := p.cur(); t.Kind {
	case token.INTK:
		p.advance()
		elem = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimInt}
	case token.BOOLK:
		p.advance()
		elem = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimBool}
	case token.STRK:
		p.advance()
		elem = &ast.PrimType{KindPos: p.pos(t), Kind: ast.PrimString}
	case token.IDENT:
		p.advance()
		if p.at(token.LPAREN) {
			return &ast.New{ID: p.id(), NewPos: newPos, Class: p.lit(t), Args: p.parseArgs()}
		}
		elem = &ast.NamedType{NamePos: p.pos(t), Name: p.lit(t)}
	default:
		p.errorf(p.pos(t), "expected type after 'new', found %s", p.describe(t))
		return &ast.NullLit{ID: p.id(), LitPos: newPos}
	}
	p.expect(token.LBRACK)
	length := p.parseExpr()
	p.expect(token.RBRACK)
	for p.at(token.LBRACK) && p.peekKind(1) == token.RBRACK {
		p.advance()
		p.advance()
		elem = &ast.ArrayType{Elem: elem}
	}
	return &ast.NewArray{ID: p.id(), NewPos: newPos, Elem: elem, Len: length}
}

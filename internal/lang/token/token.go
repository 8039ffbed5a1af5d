// Package token defines the lexical tokens of the MiniJava-style source
// language analyzed by the thin slicer, together with source positions.
//
// The language is a small Java subset: classes with single inheritance,
// virtual dispatch, object fields, arrays, strings, casts, instanceof,
// and structured control flow. It is rich enough to exhibit the
// heap-mediated value flow (containers, opcode-field class families) that
// the thin slicing paper (PLDI 2007) studies.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Literal kinds take their text from the source.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	// Literals and identifiers.
	IDENT  // foo
	INT    // 123
	STRING // "abc"
	CHAR   // 'a'

	// Operators and delimiters.
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	LAND // &&
	LOR  // ||
	NOT  // !

	EQL // ==
	NEQ // !=
	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=

	ASSIGN // =

	LPAREN  // (
	RPAREN  // )
	LBRACE  // {
	RBRACE  // }
	LBRACK  // [
	RBRACK  // ]
	COMMA   // ,
	SEMI    // ;
	DOT     // .
	INCR    // ++ (statement-level only)
	DECR    // -- (statement-level only)
	PLUSEQ  // +=
	MINUSEQ // -=

	// Keywords.
	kwStart
	CLASS
	EXTENDS
	STATIC
	FINAL
	VOID
	INTK  // int
	BOOLK // boolean
	STRK  // string
	IF
	ELSE
	WHILE
	FOR
	RETURN
	NEW
	THIS
	SUPER
	NULL
	TRUE
	FALSE
	THROW
	ASSERT
	INSTANCEOF
	BREAK
	CONTINUE
	kwEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", COMMENT: "COMMENT",
	IDENT: "IDENT", INT: "INT", STRING: "STRING", CHAR: "CHAR",
	ADD: "+", SUB: "-", MUL: "*", QUO: "/", REM: "%",
	LAND: "&&", LOR: "||", NOT: "!",
	EQL: "==", NEQ: "!=", LSS: "<", LEQ: "<=", GTR: ">", GEQ: ">=",
	ASSIGN: "=",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACK: "[", RBRACK: "]", COMMA: ",", SEMI: ";", DOT: ".",
	INCR: "++", DECR: "--", PLUSEQ: "+=", MINUSEQ: "-=",
	CLASS: "class", EXTENDS: "extends", STATIC: "static", FINAL: "final",
	VOID: "void", INTK: "int", BOOLK: "boolean", STRK: "string",
	IF: "if", ELSE: "else", WHILE: "while", FOR: "for", RETURN: "return",
	NEW: "new", THIS: "this", SUPER: "super", NULL: "null",
	TRUE: "true", FALSE: "false", THROW: "throw", ASSERT: "assert",
	INSTANCEOF: "instanceof", BREAK: "break", CONTINUE: "continue",
}

// String returns a human-readable name or the operator/keyword spelling.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsKeyword reports whether k is a reserved word.
func (k Kind) IsKeyword() bool { return k > kwStart && k < kwEnd }

// Lookup returns the keyword kind for an identifier spelling, or IDENT.
func Lookup(ident string) Kind {
	switch ident {
	case "class":
		return CLASS
	case "extends":
		return EXTENDS
	case "static":
		return STATIC
	case "final":
		return FINAL
	case "void":
		return VOID
	case "int":
		return INTK
	case "boolean":
		return BOOLK
	case "string":
		return STRK
	case "if":
		return IF
	case "else":
		return ELSE
	case "while":
		return WHILE
	case "for":
		return FOR
	case "return":
		return RETURN
	case "new":
		return NEW
	case "this":
		return THIS
	case "super":
		return SUPER
	case "null":
		return NULL
	case "true":
		return TRUE
	case "false":
		return FALSE
	case "throw":
		return THROW
	case "assert":
		return ASSERT
	case "instanceof":
		return INSTANCEOF
	case "break":
		return BREAK
	case "continue":
		return CONTINUE
	}
	return IDENT
}

// Pos is a source position: 1-based line and column plus the file name.
type Pos struct {
	File string
	Line int
	Col  int
}

// IsValid reports whether p refers to a real source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexeme: its kind, the 1-based line and column (in
// runes) of its first rune, and its byte range [Off, End) in the
// lexer's CRLF-normalized source. It holds no pointers, so a token
// stream is one flat array the garbage collector never scans; literal
// text is read from the source (lexer.Lit) only where it is needed.
type Token struct {
	Kind      Kind
	Line, Col int32
	Off, End  int32
}

func (t Token) String() string {
	return fmt.Sprintf("%s@%d:%d", t.Kind, t.Line, t.Col)
}

// Precedence returns the binary operator precedence (higher binds
// tighter), or 0 if k is not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQL, NEQ:
		return 3
	case LSS, LEQ, GTR, GEQ, INSTANCEOF:
		return 4
	case ADD, SUB:
		return 5
	case MUL, QUO, REM:
		return 6
	}
	return 0
}

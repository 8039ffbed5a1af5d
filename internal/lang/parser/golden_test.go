package parser_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"thinslice/internal/bench"
	"thinslice/internal/lang/lexer"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
)

// frontEndGolden is the SHA-256 of every token (kind, line, column,
// literal), every lexer error and every ParseFile error over
// goldenCorpus. It pins what the lexer and the parser report, so a
// change to how tokens are stored or literals are decoded cannot move
// a position, a literal value or a diagnostic.
const frontEndGolden = "0e5891a75106148cb76c7ccf3c0038a6213f80a2ff0aa865f5bccaa451a66cbf"

// goldenFragments are the pieces the random part of the corpus is
// drawn from: quotes, escapes, comment openers and closers, CRLF,
// non-ASCII letters, invalid UTF-8 and a few ordinary tokens.
var goldenFragments = []string{
	`"`, `'`, `\`, `\n`, `\t`, `\"`, `\'`, `\\`, `\0`, `\q`,
	`/*`, `*/`, `//`, "\r\n", "\r", "\n", " ",
	"é", "λ", "日本", "\u00a0", "\xff", "\xc3", "\xe2\x82", "\xed\xa0\x80",
	"a", "x1", "9", "0", "class", "int", ";", "{", "}", "(", ")",
	"+", "++", "-", "&", "|", "=", "#", ".",
}

// goldenCorpus returns the named sources the golden hashes: the
// prelude, every bench generator at scale 1, the paper cases, randprog
// seeds 0–99 and 20,000 short random strings.
func goldenCorpus() [][2]string {
	out := [][2]string{{prelude.FileName, prelude.Source}}
	add := func(srcs map[string]string) {
		names := make([]string, 0, len(srcs))
		for name := range srcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out = append(out, [2]string{name, srcs[name]})
		}
	}
	for _, name := range bench.AllNames {
		add(bench.Generate(name, 1).Sources)
	}
	out = append(out,
		[2]string{papercases.FirstNamesFile, papercases.FirstNames},
		[2]string{papercases.ToyFile, papercases.Toy},
		[2]string{papercases.FileBugFile, papercases.FileBug},
		[2]string{papercases.ToughCastFile, papercases.ToughCast})
	for seed := int64(0); seed < 100; seed++ {
		add(randprog.Generate(seed, randprog.DefaultConfig))
	}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := 1 + rng.Intn(12); n > 0; n-- {
			b.WriteString(goldenFragments[rng.Intn(len(goldenFragments))])
		}
		out = append(out, [2]string{fmt.Sprintf("r%d.mj", i), b.String()})
	}
	return out
}

// hashFrontEnd writes one line per token, lexer error and parse error
// of src to h.
func hashFrontEnd(h hash.Hash, file, src string) {
	norm, toks, lexErrs := lexer.ScanAll(file, src)
	for _, t := range toks {
		fmt.Fprintf(h, "tok %d %d:%d %q\n", t.Kind, t.Line, t.Col, lexer.Lit(norm, t))
	}
	for _, e := range lexErrs {
		fmt.Fprintf(h, "lex %s\n", e)
	}
	if _, err := parser.ParseFile(file, src); err != nil {
		for _, e := range err.(parser.ErrorList) {
			fmt.Fprintf(h, "parse %s\n", e)
		}
	}
}

func TestTokenAndDiagnosticGolden(t *testing.T) {
	h := sha256.New()
	for _, f := range goldenCorpus() {
		fmt.Fprintf(h, "file %q\n", f[0])
		hashFrontEnd(h, f[0], f[1])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != frontEndGolden {
		t.Fatalf("token and diagnostic digest = %s, want %s", got, frontEndGolden)
	}
}

package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"thinslice/internal/bench"
	"thinslice/internal/inspect"
)

// spec names one generated program: a bench generator at a scale.
type spec struct {
	bench string
	scale int
}

func (s spec) String() string { return fmt.Sprintf("%s@%d", s.bench, s.scale) }

// p3 is the three-program mix used round-robin at equal shares by cold
// and restart. At equal shares p50 falls inside one program's
// latency mode and p90 inside another's, never on a mode boundary.
//   - nanoxml@10: container-heavy, so points-to dominates; below both
//     parallel-build thresholds.
//   - javac@5: the SDG-heavy program (over a million SDG edges).
//   - nanoxml@15: above the 24,576-node SDG threshold and the
//     4,096-statement lowering threshold, so both parallel builds run.
var p3 = []spec{{"nanoxml", 10}, {"javac", 5}, {"nanoxml", 15}}

// checkMix is the check workload's cycle. nanoxml@10 is not in it: its
// checkers run past the server's 10 s default deadline.
var checkMix = []spec{{"nanoxml", 1}, {"jack", 5}, {"mtrt", 5}}

// editSpec is the program the edit workload's /watch stream edits.
var editSpec = spec{"nanoxml", 10}

// program is one generated input with its slicing seeds.
type program struct {
	spec  spec
	name  string
	file  string
	src   string
	seeds []string // "file:line" of every generator task, in task order
	tasks []inspect.Task
}

func generate(s spec) *program {
	b := bench.Generate(s.bench, s.scale)
	p := &program{spec: s, name: s.String(), file: b.File, src: b.Src()}
	for _, group := range [][]inspect.Task{b.Debug, b.Casts, b.Hopeless} {
		p.tasks = append(p.tasks, group...)
	}
	for _, sd := range b.QuerySeeds() {
		p.seeds = append(p.seeds, sd.String())
	}
	return p
}

// variant returns the program's source with a trailing nonce comment: a
// program the server has never seen, with every line number unchanged.
// The nonce has a fixed width so every variant is the same size.
func (p *program) variant(nonce uint64) string {
	return p.src + fmt.Sprintf("// nonce %016x\n", nonce)
}

// rng is splitmix64: the workload seed's only consumer, so the same seed
// gives the same nonces, edit literals and cycle starts.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// env is what every workload of one run shares.
type env struct {
	cfg   config
	exp   *expected
	rng   *rng
	progs map[string]*program
}

func newEnv(cfg config) *env {
	return &env{cfg: cfg, rng: &rng{s: cfg.seed}, progs: make(map[string]*program)}
}

// program returns the generated program for s, generating it once.
func (e *env) program(s spec) *program {
	p, ok := e.progs[s.String()]
	if !ok {
		p = generate(s)
		e.progs[s.String()] = p
	}
	return p
}

func (e *env) programs(specs []spec) []*program {
	out := make([]*program, len(specs))
	for i, s := range specs {
		out[i] = e.program(s)
	}
	return out
}

// close removes what the run left in its output directory, except the
// span files.
func (e *env) close() { _ = os.RemoveAll(e.cacheDir()) }

// editSites is how many method bodies the edit workload cycles through.
const editSites = 8

// literalLine matches the decoy statements whose integer literal an edit
// rewrites; the literal's value feeds no slice seed, so every revision
// keeps the same thin slices.
var literalLine = regexp.MustCompile(`^(\s+pos = Idx\.norm\(pos \+ )(\d\d)(\);)$`)

var methodHeader = regexp.MustCompile(`^\s+static int \w+\(\) \{$`)

// literal is one two-digit integer literal an edit can set.
type literal struct {
	line           int // 0-based
	prefix, suffix string
}

// site is one method body an edit lands in: its literals and the
// (literal, value) pairs not sent yet, in the seed's order.
type site struct {
	lits []literal
	todo [][2]int
}

// editor produces the edit workload's revisions: each sets one
// two-digit integer literal in one method body to a value that literal
// has not held before, so no position in the file moves and no revision
// repeats an earlier program.
type editor struct {
	lines []string
	sites []*site
	start int
	n     int
}

func newEditor(p *program, r *rng) (*editor, error) {
	lines := strings.Split(p.src, "\n")
	var methods []*site
	for i, l := range lines {
		if methodHeader.MatchString(l) {
			methods = append(methods, &site{})
			continue
		}
		if m := literalLine.FindStringSubmatch(l); m != nil && len(methods) > 0 {
			cur := methods[len(methods)-1]
			cur.lits = append(cur.lits, literal{line: i, prefix: m[1], suffix: m[3]})
		}
	}
	var candidates []*site
	for _, m := range methods {
		if len(m.lits) > 0 {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) < editSites {
		return nil, fmt.Errorf("%s has %d editable methods, want %d", p.name, len(candidates), editSites)
	}
	e := &editor{lines: lines}
	for k := 0; k < editSites; k++ {
		s := candidates[k*len(candidates)/editSites]
		for li, lit := range s.lits {
			orig := strings.TrimSuffix(strings.TrimPrefix(lines[lit.line], lit.prefix), lit.suffix)
			for v := 10; v <= 99; v++ {
				if strconv.Itoa(v) != orig {
					s.todo = append(s.todo, [2]int{li, v})
				}
			}
		}
		for i := len(s.todo) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			s.todo[i], s.todo[j] = s.todo[j], s.todo[i]
		}
		e.sites = append(e.sites, s)
	}
	e.start = r.intn(editSites)
	return e, nil
}

// next applies the next edit and returns the new source.
func (e *editor) next() (string, error) {
	s := e.sites[(e.start+e.n)%len(e.sites)]
	e.n++
	if len(s.todo) == 0 {
		return "", fmt.Errorf("edit site at line %d has no unsent value left", s.lits[0].line+1)
	}
	lit := s.lits[s.todo[0][0]]
	e.lines[lit.line] = lit.prefix + strconv.Itoa(s.todo[0][1]) + lit.suffix
	s.todo = s.todo[1:]
	return strings.Join(e.lines, "\n"), nil
}

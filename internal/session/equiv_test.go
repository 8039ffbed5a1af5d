package session_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/session"
)

// The randomized edit-script sweep: scripted sequences of insert-,
// modify-, and delete-method edits over multi-file programs (synthetic,
// papercases, and randprog bases), each step asserting the updated
// session's points-to result and dependence graph byte-identical to a
// fresh session's. An updated session must re-derive exactly what the
// edit reaches and reuse nothing stale from earlier revisions.

// sweepMethod is one generated (and editable) method of a sweep class.
type sweepMethod struct {
	name    string
	variant int
	k       int
	callee  string // class whose static base() variant 2 calls, or ""
}

// sweepClass is one editable class, rendered into its own file.
type sweepClass struct {
	file    string
	name    string
	bias    int // constant inside base() — a reachable-body edit target
	methods []sweepMethod
}

func (c *sweepClass) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "class %s {\n", c.name)
	b.WriteString("    int val;\n")
	b.WriteString("    void set(int v) { this.val = v; }\n")
	b.WriteString("    int get() { return this.val; }\n")
	fmt.Fprintf(&b, "    static int base(int x) { return x + %d; }\n", c.bias)
	for _, m := range c.methods {
		switch m.variant {
		case 0:
			fmt.Fprintf(&b, "    int %s(int x) { return x + %d; }\n", m.name, m.k)
		case 1:
			fmt.Fprintf(&b, "    int %s(int x) { if (x > %d) { return x * 2; } return this.val; }\n", m.name, m.k)
		case 2:
			fmt.Fprintf(&b, "    int %s(int x) { return %s.base(x) + %d; }\n", m.name, m.callee, m.k)
		default:
			fmt.Fprintf(&b, "    int %s(int x) { this.val = x + %d; return this.val; }\n", m.name, m.k)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// sweepProg is the evolving program of one edit script.
type sweepProg struct {
	rng     *rand.Rand
	static  map[string]string // base files never edited by the script
	classes []*sweepClass
	mainK   int // constant in the synthetic main (0 = no synthetic main)
	hasMain bool
	nextID  int
}

func newSweepProg(rng *rand.Rand) *sweepProg {
	p := &sweepProg{rng: rng, static: map[string]string{}}
	nClasses := 2 + rng.Intn(2)
	for i := 0; i < nClasses; i++ {
		c := &sweepClass{
			file: fmt.Sprintf("e%d.mj", i),
			name: fmt.Sprintf("E%d", i),
			bias: rng.Intn(10),
		}
		for j := rng.Intn(3); j > 0; j-- {
			c.methods = append(c.methods, p.genMethod(c))
		}
		p.classes = append(p.classes, c)
	}
	switch rng.Intn(3) {
	case 0: // pure synthetic program with its own main
		p.hasMain = true
		p.mainK = rng.Intn(10)
	case 1: // papercases base: the editable classes ride along as extra files
		p.static[papercases.FirstNamesFile] = papercases.FirstNames
	default: // randprog base (brings its own Main, Util, containers)
		for name, src := range randprog.Generate(rng.Int63(), randprog.Config{Classes: 2, Stmts: 8, MaxDepth: 2}) {
			p.static[name] = src
		}
	}
	return p
}

func (p *sweepProg) genMethod(c *sweepClass) sweepMethod {
	p.nextID++
	m := sweepMethod{
		name:    fmt.Sprintf("g%d", p.nextID),
		variant: p.rng.Intn(4),
		k:       p.rng.Intn(20),
	}
	if m.variant == 2 {
		// Call a previously built class's base(), or our own while the
		// program is still being seeded.
		if len(p.classes) > 0 {
			m.callee = p.classes[p.rng.Intn(len(p.classes))].name
		} else {
			m.callee = c.name
		}
	}
	return m
}

func (p *sweepProg) render() map[string]string {
	srcs := make(map[string]string, len(p.static)+len(p.classes)+1)
	for name, src := range p.static {
		srcs[name] = src
	}
	for _, c := range p.classes {
		srcs[c.file] = c.render()
	}
	if p.hasMain {
		var b strings.Builder
		b.WriteString("class Main {\n    static void main() {\n")
		fmt.Fprintf(&b, "        %s a = new %s();\n", p.classes[0].name, p.classes[0].name)
		b.WriteString("        int acc = 0;\n")
		for _, c := range p.classes {
			fmt.Fprintf(&b, "        acc = acc + %s.base(acc);\n", c.name)
		}
		b.WriteString("        a.set(acc);\n")
		b.WriteString("        Vector v = new Vector();\n")
		b.WriteString("        v.add(a);\n")
		fmt.Fprintf(&b, "        %s c = (%s) v.get(0);\n", p.classes[0].name, p.classes[0].name)
		fmt.Fprintf(&b, "        print(c.get() + %d);\n", p.mainK)
		b.WriteString("    }\n}\n")
		srcs["main.mj"] = b.String()
	}
	return srcs
}

// mutate applies one random insert/modify/delete-method edit.
func (p *sweepProg) mutate() {
	c := p.classes[p.rng.Intn(len(p.classes))]
	switch p.rng.Intn(5) {
	case 0: // insert a method
		c.methods = append(c.methods, p.genMethod(c))
	case 1: // delete a method (if the class has any left)
		if n := len(c.methods); n > 0 {
			i := p.rng.Intn(n)
			c.methods = append(c.methods[:i], c.methods[i+1:]...)
		} else {
			c.bias++
		}
	case 2: // modify a generated method's body
		if n := len(c.methods); n > 0 {
			m := &c.methods[p.rng.Intn(n)]
			m.k = p.rng.Intn(20)
			m.variant = p.rng.Intn(4)
			if m.variant == 2 {
				m.callee = p.classes[p.rng.Intn(len(p.classes))].name
			}
		} else {
			c.bias++
		}
	case 3: // modify a reachable body: the class's base() constant
		c.bias = p.rng.Intn(100)
	default: // modify the synthetic main, when there is one
		if p.hasMain {
			p.mainK = p.rng.Intn(100)
		} else {
			c.bias++
		}
	}
}

// runSweepScript drives one script: open a session over the base
// revision, then per edit step apply the changed files and assert
// byte-identity with a cold build.
func runSweepScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	p := newSweepProg(rng)
	srcs := p.render()
	s := session.Open(srcs)
	assertMatchesColdBuild(t, s, srcs)
	steps := 3 + rng.Intn(3)
	for step := 0; step < steps; step++ {
		p.mutate()
		next := p.render()
		for name, src := range next {
			if srcs[name] != src {
				s.Update(name, src)
			}
		}
		srcs = next
		assertMatchesColdBuild(t, s, srcs)
		if t.Failed() {
			var files []string
			for name := range srcs {
				files = append(files, name)
			}
			sort.Strings(files)
			t.Fatalf("seed %d diverged at step %d (files %v)", seed, step, files)
		}
	}
}

func TestRandomEditScriptsMatchColdBuilds(t *testing.T) {
	scripts := 200
	if testing.Short() {
		scripts = 20
	}
	for i := 0; i < scripts; i++ {
		seed := int64(i)
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			runSweepScript(t, seed)
		})
	}
}

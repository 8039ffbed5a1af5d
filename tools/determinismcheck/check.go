// Package main implements determinismcheck, a repo-specific lint: no
// function reachable from a determinism-critical entry point — the
// Fingerprint/Encode* codec family and the ir.Sprint/Fprint printers —
// may iterate a map with a bare range statement. Map iteration order
// is randomized per run, so a single stray `for k := range m` in an
// encoder turns byte-identical artifacts, golden files, and the
// content-addressed cache keys built from them into flaky tests and
// cache misses.
//
// Benign patterns (collect keys, sort, then emit) still trip the
// syntactic check; annotate the range statement — same line or the
// line above — with `//determinism:ok` after confirming the iteration
// order cannot reach the output.
//
// The checker is stdlib-only by design (go/parser + go/types, no
// x/tools): repo packages are type-checked from source via a custom
// importer, while non-repo imports resolve to empty stub packages.
// Types flowing out of stdlib calls are therefore unresolved, which is
// fine for this check — map types constructed in this repo, the only
// ones an encoder can range over, resolve fully.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one flagged map-range statement.
type Finding struct {
	Pos  token.Position
	Func string // fully qualified enclosing function
	Seed string // the determinism-critical root that reaches it
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: range over map in %s (reachable from %s)", f.Pos, f.Func, f.Seed)
}

// seedFunc reports whether fn is a determinism-critical entry point.
// Besides the codec/printer family, the builders are seeds: lowering,
// the points-to solver and the SDG builder produce the bytes the
// byte-identity oracles pin, and the edit sweep compares an updated
// session with a fresh one, so a map-order dependence anywhere beneath
// them breaks an oracle, not just a log line; depgraph's Diff reports
// sorted unit lists. The builders are matched by full name, so that a
// function sharing a short name (analyzer.Analyze, or any other Lower
// or Build) does not become a seed with everything it calls.
func seedFunc(fn *types.Func) bool {
	name := fn.Name()
	switch fn.FullName() {
	case "thinslice/internal/ir.Lower",
		"thinslice/internal/analysis/pointsto.Analyze",
		"thinslice/internal/sdg.BuildBudget":
		return true
	}
	return name == "Fingerprint" || name == "Sprint" || name == "Fprint" ||
		strings.HasPrefix(name, "Encode") || name == "Diff"
}

// checker loads and type-checks every package of one module from
// source.
type checker struct {
	fset   *token.FileSet
	root   string // module root directory
	module string // module import path prefix
	pkgs   map[string]*types.Package
	files  map[string][]*ast.File // import path → parsed files
	info   *types.Info            // shared across packages; maps accumulate
}

// Import implements types.Importer: module-local packages are
// type-checked recursively from source; everything else (stdlib,
// which this repo's constraints forbid depending past) becomes an
// empty stub so the check needs no compiled export data.
func (c *checker) Import(path string) (*types.Package, error) {
	if path == c.module || strings.HasPrefix(path, c.module+"/") {
		return c.load(path)
	}
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	name := path[strings.LastIndex(path, "/")+1:]
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	c.pkgs[path] = pkg
	return pkg, nil
}

// load parses and type-checks one module-local package.
func (c *checker) load(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, c.module), "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{
		Importer:    c,
		FakeImportC: true,
		// Stub imports make every use of a non-repo symbol a type
		// error; collect and discard so checking continues with the
		// repo-local types this lint actually needs.
		Error: func(error) {},
	}
	pkg, _ := conf.Check(path, c.fset, files, c.info)
	c.pkgs[path] = pkg
	c.files[path] = files
	return pkg, nil
}

// packageDirs returns the import paths of every package under root,
// skipping testdata, hidden directories, and dirs without Go files.
func (c *checker) packageDirs() ([]string, error) {
	var out []string
	err := filepath.WalkDir(c.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != c.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(c.root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := c.module
		if rel != "." {
			path = c.module + "/" + filepath.ToSlash(rel)
		}
		for _, seen := range out {
			if seen == path {
				return nil
			}
		}
		out = append(out, path)
		return nil
	})
	sort.Strings(out)
	return out, err
}

// funcInfo pairs a function's type object with its syntax.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
}

// Check runs the lint over the module rooted at root and returns the
// findings, deterministically ordered by position.
func Check(root, module string) ([]Finding, error) {
	c := &checker{
		fset:   token.NewFileSet(),
		root:   root,
		module: module,
		pkgs:   make(map[string]*types.Package),
		files:  make(map[string][]*ast.File),
		info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
		},
	}
	paths, err := c.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := c.load(path); err != nil {
			return nil, fmt.Errorf("load %s: %v", path, err)
		}
	}

	// Index every function declaration with a body, and every method
	// name (the interface-dispatch fallback below resolves dynamic
	// calls by name, over-approximating reachability).
	funcs := make(map[*types.Func]funcInfo)
	byName := make(map[string][]*types.Func)
	for _, path := range paths {
		for _, f := range c.files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := c.info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				funcs[obj] = funcInfo{obj: obj, decl: fd}
				if fd.Recv != nil {
					byName[fd.Name.Name] = append(byName[fd.Name.Name], obj)
				}
			}
		}
	}

	// Breadth-first reachability from the seed functions. Static calls
	// follow the resolved callee; calls to bodyless functions (interface
	// methods) fall back to every same-named method in the repo.
	seedOf := make(map[*types.Func]string)
	var queue []*types.Func
	enqueue := func(fn *types.Func, seed string) {
		if _, ok := seedOf[fn]; ok {
			return
		}
		if _, ok := funcs[fn]; !ok {
			return
		}
		seedOf[fn] = seed
		queue = append(queue, fn)
	}
	var seedNames []*types.Func
	for fn := range funcs {
		if seedFunc(fn) {
			seedNames = append(seedNames, fn)
		}
	}
	sort.Slice(seedNames, func(i, j int) bool { return seedNames[i].FullName() < seedNames[j].FullName() })
	for _, fn := range seedNames {
		enqueue(fn, fn.FullName())
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		seed := seedOf[fn]
		ast.Inspect(funcs[fn].decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var id *ast.Ident
			switch e := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				return true
			}
			callee, _ := c.info.Uses[id].(*types.Func)
			if callee == nil {
				return true
			}
			if _, hasBody := funcs[callee]; hasBody {
				enqueue(callee, seed)
			} else if callee.Pkg() != nil && strings.HasPrefix(callee.Pkg().Path(), module) {
				// A repo-local function without a body is an interface
				// method: any same-named concrete method may run.
				for _, impl := range byName[callee.Name()] {
					enqueue(impl, seed)
				}
			}
			return true
		})
	}

	// Suppression comments: determinism:ok on the range line or the
	// line above.
	suppressed := make(map[string]map[int]bool)
	for _, path := range paths {
		for _, f := range c.files[path] {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					if strings.Contains(cm.Text, "determinism:ok") {
						pos := c.fset.Position(cm.Pos())
						if suppressed[pos.Filename] == nil {
							suppressed[pos.Filename] = make(map[int]bool)
						}
						suppressed[pos.Filename][pos.Line] = true
					}
				}
			}
		}
	}

	var findings []Finding
	for fn, seed := range seedOf {
		fi := funcs[fn]
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := c.info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			pos := c.fset.Position(rs.Pos())
			if lines := suppressed[pos.Filename]; lines != nil && (lines[pos.Line] || lines[pos.Line-1]) {
				return true
			}
			findings = append(findings, Finding{Pos: pos, Func: fn.FullName(), Seed: seed})
			return true
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return findings, nil
}

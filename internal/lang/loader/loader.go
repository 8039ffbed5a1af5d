// Package loader ties the frontend together: it parses user sources
// together with the container prelude and runs semantic analysis,
// producing the typed program every analysis consumes.
package loader

import (
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
)

// Load parses and checks the given sources (file name -> content) plus
// the standard container prelude.
func Load(sources map[string]string) (*types.Info, error) {
	all := make(map[string]string, len(sources)+1)
	for name, src := range sources {
		all[name] = src
	}
	all[prelude.FileName] = prelude.Source
	return LoadBare(all)
}

// LoadBare parses and checks the given sources without adding the
// prelude. Useful for self-contained unit-test programs.
func LoadBare(sources map[string]string) (*types.Info, error) {
	prog, err := parser.ParseProgram(sources)
	if err != nil {
		return nil, err
	}
	return types.Check(prog)
}

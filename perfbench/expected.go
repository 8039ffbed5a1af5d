package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"slices"

	"thinslice/internal/server"
)

// expectedJSON holds the committed answers: every seed's thin-slice line
// list for each program, and the findings of each check program.
// Regenerate it with -write-expected (see README.md).
//
//go:embed expected.json
var expectedJSON []byte

type expected struct {
	Programs []*expectedProgram `json:"programs"`
}

// expectedProgram is one program's answers plus the facts BENCHMARK.json
// and README.md quote about it.
type expectedProgram struct {
	Name     string `json:"name"`
	File     string `json:"file"`
	Bytes    int    `json:"bytes"`
	SDGNodes int    `json:"sdg_nodes"`
	SDGEdges int    `json:"sdg_edges"`
	// LowerStmts counts the top-level statements of every method body,
	// prelude included: the work measure of the parallel-lowering
	// threshold (4,096), as SDGNodes is of the parallel-SDG one (24,576).
	LowerStmts int `json:"lower_stmts"`
	// Slices lists the thin slice of every seed, in seed order.
	Slices []expectedSlice `json:"slices"`
	// Findings is the /check answer (checks "all"); only the check
	// workload's programs carry it.
	Findings []server.Finding `json:"findings,omitempty"`
	// Facts counts, for each IFDS problem the checkers solve, the
	// (node, fact) pairs its fixpoint holds. The findings of the check
	// programs come from points-to and CHA alone, so these counts are
	// what pins the dataflow layer's answers. Only the check workload's
	// programs carry them.
	Facts map[string]int `json:"facts,omitempty"`
}

type expectedSlice struct {
	Seed  string   `json:"seed"`
	Lines []string `json:"lines"`
}

// answerSpecs are the programs expected.json must cover.
func answerSpecs() []spec {
	return append(append([]spec{}, p3...), checkMix...)
}

// loadExpected parses the committed answers and checks them against the
// generators' own ground truth, which does not depend on the slicer:
// every task with zero control hops has its desired lines inside its
// seed's thin slice.
func (e *env) loadExpected() error {
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return err
	}
	for _, s := range answerSpecs() {
		want := exp.program(s.String())
		if want == nil {
			return fmt.Errorf("no answers for %s", s)
		}
		p := e.program(s)
		if len(want.Slices) != len(p.seeds) {
			return fmt.Errorf("%s: %d answers for %d seeds", s, len(want.Slices), len(p.seeds))
		}
		for i, t := range p.tasks {
			if want.Slices[i].Seed != p.seeds[i] {
				return fmt.Errorf("%s: answer %d is for seed %s, want %s", s, i, want.Slices[i].Seed, p.seeds[i])
			}
			if t.ControlDeps != 0 {
				continue
			}
			for _, d := range t.Desired {
				line := fmt.Sprintf("%s:%d", d.File, d.Line)
				if !slices.Contains(want.Slices[i].Lines, line) {
					return fmt.Errorf("%s task %s: desired line %s is not in the thin slice of %s", s, t.Name, line, p.seeds[i])
				}
			}
		}
	}
	for _, s := range checkMix {
		for _, problem := range checkProblems {
			if _, ok := exp.program(s.String()).Facts[problem.Name()]; !ok {
				return fmt.Errorf("%s: no fact count for the %s problem", s, problem.Name())
			}
		}
	}
	e.exp = &exp
	return nil
}

func (e *expected) program(name string) *expectedProgram {
	for _, p := range e.Programs {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// checkSlices compares a response's slices with the program's answers
// for the given seed indexes.
func (w *expectedProgram) checkSlices(got []server.SliceResult, seeds []int) error {
	if len(got) != len(seeds) {
		return fmt.Errorf("%s: %d slices, want %d", w.Name, len(got), len(seeds))
	}
	for i, k := range seeds {
		want := w.Slices[k]
		if got[i].Seed != want.Seed {
			return fmt.Errorf("%s: slice %d is for %s, want %s", w.Name, i, got[i].Seed, want.Seed)
		}
		if got[i].Truncated || !slices.Equal(got[i].Lines, want.Lines) {
			return fmt.Errorf("%s: thin slice of %s differs from the expected answer", w.Name, want.Seed)
		}
	}
	return nil
}

// checkFacts compares the size of an IFDS problem's fixpoint with the
// committed count.
func (w *expectedProgram) checkFacts(problem string, got int) error {
	if want := w.Facts[problem]; got != want {
		return fmt.Errorf("%s: the %s problem holds %d (node, fact) pairs, want %d", w.Name, problem, got, want)
	}
	return nil
}

func (w *expectedProgram) checkFindings(got []server.Finding) error {
	if !slices.Equal(got, w.Findings) {
		return fmt.Errorf("%s: %d findings differ from the %d expected", w.Name, len(got), len(w.Findings))
	}
	return nil
}

// allSeeds lists the indexes 0..n-1.
func allSeeds(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

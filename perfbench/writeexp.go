package main

import (
	"encoding/json"
	"fmt"
	"os"

	"thinslice/internal/server"
	"thinslice/internal/session"
)

// writeExpected records the answers of the current code to path: each
// program's thin slices from /batch and, for the check programs, the
// findings of /check, both through the real handler, and the size of
// each IFDS problem's fixpoint. Run it only at a commit whose answers
// are known good; a benchmark run compares against the file, it never
// writes it.
func writeExpected(path string) error {
	srv, err := server.New(serverConfig(""))
	if err != nil {
		return err
	}
	h, err := startHarness(srv)
	if err != nil {
		return err
	}
	defer h.close()
	var exp expected
	for _, s := range answerSpecs() {
		p := generate(s)
		sources := map[string]string{p.file: p.src}
		status, data, err := h.post("/batch", marshal(server.Request{Sources: sources, Seeds: p.seeds}))
		if err != nil {
			return err
		}
		resp, err := decodeResponse(status, data)
		if err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
		ep := &expectedProgram{Name: s.String(), File: p.file, Bytes: len(p.src)}
		for _, sl := range resp.Slices {
			ep.Slices = append(ep.Slices, expectedSlice{Seed: sl.Seed, Lines: sl.Lines})
		}
		sess := session.Open(sources)
		g, err := sess.Graph()
		if err != nil {
			return err
		}
		ep.SDGNodes, ep.SDGEdges = g.NumNodes(), g.NumEdges()
		info, err := sess.Info()
		if err != nil {
			return err
		}
		for _, c := range info.Prog.Classes {
			for _, m := range c.Methods {
				if m.Body != nil {
					ep.LowerStmts += len(m.Body.Stmts)
				}
			}
		}
		for _, c := range checkMix {
			if c != s {
				continue
			}
			status, data, err := h.post("/check", marshal(server.Request{Sources: sources}))
			if err != nil {
				return err
			}
			resp, err := decodeResponse(status, data)
			if err != nil {
				return fmt.Errorf("%s /check: %w", s, err)
			}
			ep.Findings = resp.Findings
			ep.Facts = make(map[string]int)
			checked := openSession(sources, session.NewStore(), nil, nil)
			for _, problem := range checkProblems {
				res, err := checked.Dataflow(problem)
				if err != nil {
					return fmt.Errorf("%s %s problem: %w", s, problem.Name(), err)
				}
				ep.Facts[problem.Name()] = res.NumNodeFacts()
			}
		}
		exp.Programs = append(exp.Programs, ep)
	}
	data, err := json.MarshalIndent(&exp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

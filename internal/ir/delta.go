package ir

import (
	"fmt"

	"thinslice/internal/artifact"
	"thinslice/internal/lang/types"
)

// This file is the IR half of the session derivation graph: per-method
// lowering units that can be cached, cloned, and reassembled into a
// whole program without re-lowering unchanged methods.
//
// A unit payload is exactly one encodeMethod stream (the same bytes the
// whole-program codec writes for that method), so the codec's
// round-trip proof carries over: decoding a unit against a new
// revision's types.Info yields a method byte-identical to re-lowering
// it, provided the unit's depgraph key is unchanged.

// EncodeUnit returns the self-contained payload for one lowered method.
// The caller must not encode methods that produced diagnostics (the
// session never caches those).
func EncodeUnit(m *Method) []byte {
	var w artifact.Writer
	encodeMethod(&w, m)
	return w.Bytes()
}

// DecodeUnit relinks one unit payload against info, producing a fresh
// Method whose signature, fields, and types resolve in info's world.
// Instruction IDs are unassigned until the method joins a program
// (AssembleProgram).
func DecodeUnit(data []byte, info *types.Info) (m *Method, err error) {
	return decodeUnit(data, newLinker(info))
}

func decodeUnit(data []byte, l *linker) (m *Method, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("ir: decode unit: malformed payload: %v", r)
		}
	}()
	r := artifact.NewReader(data)
	m, err = decodeMethod(r, l)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

// LowerUnitsStats reports how a LowerUnits call split its work.
type LowerUnitsStats struct {
	Lowered int // methods lowered fresh
	Reused  int // methods cloned from cached unit payloads
}

// LowerUnits assembles a program from per-method units: jobs whose
// qualified name appears in reuse are cloned from the cached payload
// (relinked against info), all others are lowered fresh, in declaration
// order. Lower is the call with nothing to reuse. The output is
// byte-identical to Lower on the same info as long as every reused
// payload was produced by lowering a method whose depgraph unit key is
// unchanged; a payload that fails to decode is an error (the caller
// falls back to a full lower).
func LowerUnits(info *types.Info, reuse map[string][]byte) (*Program, LowerUnitsStats, error) {
	var stats LowerUnitsStats
	jobs := collectJobs(info)
	methods := make([]*Method, len(jobs))
	diags := make([]Diagnostics, len(jobs))
	var l *linker
	for i, mi := range jobs {
		if data, ok := reuse[mi.QualifiedName()]; ok {
			if l == nil {
				l = newLinker(info)
			}
			m, err := decodeUnit(data, l)
			if err != nil {
				return nil, stats, err
			}
			if m.Sig != mi {
				return nil, stats, fmt.Errorf("ir: unit %s relinked to a different signature", mi.QualifiedName())
			}
			methods[i] = m
			stats.Reused++
			continue
		}
		methods[i], diags[i] = lowerMethod(info, mi)
		stats.Lowered++
	}
	return assembleProgram(info, jobs, methods, diags), stats, nil
}

// collectJobs gathers the lowering jobs in the canonical declaration
// order shared by LowerUnits and depgraph.Build.
func collectJobs(info *types.Info) []*types.MethodInfo {
	var jobs []*types.MethodInfo
	for _, decl := range info.Prog.Classes {
		ci := info.Classes[decl.Name]
		if ci == nil || ci.Decl != decl {
			continue
		}
		for _, mdecl := range decl.Methods {
			if mi := info.MethodOfDecl[mdecl]; mi != nil {
				jobs = append(jobs, mi)
			}
		}
		if ci.Ctor != nil && ci.Ctor.Decl == nil {
			jobs = append(jobs, ci.Ctor) // synthesized default constructor
		}
	}
	return jobs
}

// assembleProgram stitches per-job methods into a Program: methods in
// job order, diagnostics merged in method order, dense program-unique
// instruction IDs in one deterministic pass.
func assembleProgram(info *types.Info, jobs []*types.MethodInfo, methods []*Method, diags []Diagnostics) *Program {
	prog := &Program{Info: info, MethodOf: make(map[*types.MethodInfo]*Method, len(jobs))}
	for i, mi := range jobs {
		prog.Methods = append(prog.Methods, methods[i])
		prog.MethodOf[mi] = methods[i]
		prog.Diags = append(prog.Diags, diags[i]...)
	}
	for _, m := range prog.Methods {
		m.Instrs(func(ins Instr) {
			ins.setID(prog.NumInstrs)
			prog.NumInstrs++
			prog.instrByID = append(prog.instrByID, ins)
		})
	}
	return prog
}

package ir

import (
	"fmt"

	"thinslice/internal/artifact"
	"thinslice/internal/lang/types"
)

// This file is the IR half of the session derivation graph (PR 9):
// per-method lowering units that can be cached, cloned, and reassembled
// into a whole program without re-lowering unchanged methods.
//
// A unit payload is exactly one encodeMethod stream (the same bytes the
// whole-program codec writes for that method), so the PR 6 round-trip
// proof carries over: decoding a unit against a new revision's
// types.Info yields a method byte-identical to re-lowering it, provided
// the unit's depgraph key is unchanged.

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
// (relinked against info), all others are lowered fresh over up to
// workers goroutines. The output is byte-identical to LowerWorkers on
// the same info as long as every reused payload was produced by
// lowering a method whose depgraph unit key is unchanged; a payload
// that fails to decode is an error (the caller falls back to a full
// lower).
func LowerUnits(info *types.Info, reuse map[string][]byte, workers int) (*Program, LowerUnitsStats, error) {
	var stats LowerUnitsStats
	jobs := collectJobs(info)

	methods := make([]*Method, len(jobs))
	diags := make([]Diagnostics, len(jobs))

	// Clone reused units first (cheap, sequential), then fan the
	// remaining fresh jobs over the pool.
	var freshJobs []*types.MethodInfo
	var freshIdx []int
	l := newLinker(info)
	for i, mi := range jobs {
		if data, ok := reuse[mi.QualifiedName()]; ok {
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
		freshJobs = append(freshJobs, mi)
		freshIdx = append(freshIdx, i)
	}
	if len(freshJobs) > 0 {
		fm := make([]*Method, len(freshJobs))
		fd := make([]Diagnostics, len(freshJobs))
		lowerAll(info, freshJobs, fm, fd, workers)
		for k, i := range freshIdx {
			methods[i], diags[i] = fm[k], fd[k]
		}
		stats.Lowered = len(freshJobs)
	}
	return assembleProgram(info, jobs, methods, diags), stats, nil
}

// LowerBatches lowers the named units fresh, batch by batch, and
// returns the encoded unit payload of every unit that lowered without
// diagnostics. The session uses it to re-derive a depgraph frontier in
// Kahn order (callees before callers, per depgraph.TopoBatches), with
// each batch fanned over up to workers goroutines; units that produce
// diagnostics are omitted from the result so the assembling LowerUnits
// call re-lowers them and surfaces the diagnostics. Names that match no
// lowering job are ignored (the caller's frontier may mention units of
// the other revision).
func LowerBatches(info *types.Info, batches [][]string, workers int) map[string][]byte {
	jobBy := make(map[string]*types.MethodInfo)
	for _, mi := range collectJobs(info) {
		jobBy[mi.QualifiedName()] = mi
	}
	out := make(map[string][]byte)
	for _, batch := range batches {
		var jobs []*types.MethodInfo
		for _, q := range batch {
			if mi := jobBy[q]; mi != nil {
				jobs = append(jobs, mi)
			}
		}
		if len(jobs) == 0 {
			continue
		}
		methods := make([]*Method, len(jobs))
		diags := make([]Diagnostics, len(jobs))
		lowerAll(info, jobs, methods, diags, workers)
		for i, mi := range jobs {
			if len(diags[i]) == 0 {
				out[mi.QualifiedName()] = EncodeUnit(methods[i])
			}
		}
	}
	return out
}

// collectJobs gathers the lowering jobs in the canonical declaration
// order shared by LowerWorkers, LowerUnits, and depgraph.Build.
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

// assembleProgram stitches per-job methods into a Program, for both
// LowerWorkers and LowerUnits: methods in job order, diagnostics merged
// in method order, dense program-unique instruction IDs in one
// deterministic pass.
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

// ProgramMap aligns the IR objects of unchanged methods across two
// lowerings of successive revisions. Only methods listed as unchanged
// are mapped; everything else maps to nil/zero. The downstream deltas
// (pointsto.SolveDelta, sdg.BuildDelta) use it to translate retained
// solver state keyed by old pointers into the new program's world.
type ProgramMap struct {
	// Method maps an old method to its new clone (unchanged units only).
	Method map[*Method]*Method
	// Instr maps old program-wide instruction IDs to new instructions
	// (nil for instructions of changed/removed methods).
	Instr []Instr
	// Reg maps old registers of unchanged methods to their new clones.
	Reg map[*Reg]*Reg
}

// MapPrograms builds the old→new correspondence for the unchanged
// qualified names. Both programs must contain every listed name and the
// paired methods must be structurally identical (they are byte-
// identical clones when the depgraph key is unchanged); any mismatch is
// an error.
func MapPrograms(old, new *Program, unchanged []string) (*ProgramMap, error) {
	oldBy := methodsByQName(old)
	newBy := methodsByQName(new)
	pm := &ProgramMap{
		Method: make(map[*Method]*Method, len(unchanged)),
		Instr:  make([]Instr, old.NumInstrs),
		Reg:    make(map[*Reg]*Reg),
	}
	for _, q := range unchanged {
		om, nm := oldBy[q], newBy[q]
		if om == nil || nm == nil {
			return nil, fmt.Errorf("ir: map: unit %s missing from %s program", q, side(om == nil))
		}
		pm.Method[om] = nm
		var oi, ni []Instr
		om.Instrs(func(ins Instr) { oi = append(oi, ins) })
		nm.Instrs(func(ins Instr) { ni = append(ni, ins) })
		if len(oi) != len(ni) {
			return nil, fmt.Errorf("ir: map: unit %s instruction count changed (%d vs %d)", q, len(oi), len(ni))
		}
		for k, ins := range oi {
			pm.Instr[ins.ID()] = ni[k]
		}
		or, nr := MethodRegs(om), MethodRegs(nm)
		if len(or) != len(nr) {
			return nil, fmt.Errorf("ir: map: unit %s register count changed (%d vs %d)", q, len(or), len(nr))
		}
		for k, r := range or {
			pm.Reg[r] = nr[k]
		}
	}
	return pm, nil
}

func methodsByQName(p *Program) map[string]*Method {
	m := make(map[string]*Method, len(p.Methods))
	for _, meth := range p.Methods {
		m[meth.Sig.QualifiedName()] = meth
	}
	return m
}

func side(oldMissing bool) string {
	if oldMissing {
		return "old"
	}
	return "new"
}

package dataflow

// Persistent encoding of Results (package artifact's "df" payload).
// Facts are stored over stable coordinates — defining-instruction IDs
// for registers, points-to object IDs and qualified field names for
// heap cells — and relinked against prog, pts, and the dependence
// graph at decode. The (node, fact) table is emitted in node order with
// each node's fact list in discovery order — the order of the results'
// compressed rows — so re-encoding a decoded result is byte-identical.
// Truncated results are refused at encode: a partial fact table must
// never masquerade as a complete artifact.

import (
	"fmt"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
)

// EncodeResults returns the persistent payload for r.
func EncodeResults(r *Results) ([]byte, error) {
	if r.Truncated {
		return nil, fmt.Errorf("dataflow: refusing to encode truncated results")
	}
	var w artifact.Writer
	w.String(r.Name)
	w.String(r.ConfigKey)

	// Fact descriptors, zero fact implied at index 0.
	w.Uvarint(uint64(r.facts.NumFacts() - 1))
	for i := 1; i < r.facts.NumFacts(); i++ {
		d := r.facts.Desc(Fact(i))
		w.Uvarint(uint64(d.Kind))
		switch d.Kind {
		case KindReg:
			w.Uvarint(uint64(d.Reg.Def.ID()))
		case KindObjField:
			w.Uvarint(uint64(d.Obj.ID))
			w.String(d.Field.QualifiedName())
		case KindObjElem, KindObjLen:
			w.Uvarint(uint64(d.Obj.ID))
		case KindObjState:
			w.Uvarint(uint64(d.Obj.ID))
			w.Uvarint(uint64(d.State))
		case KindStatic:
			w.String(d.Field.QualifiedName())
		default:
			return nil, fmt.Errorf("dataflow: encode: bad fact kind %d", d.Kind)
		}
	}

	// Per-node fact lists with their discovery parents, in node order.
	numNodes := 0
	for n := 0; n+1 < len(r.nodeOff); n++ {
		if r.nodeOff[n] < r.nodeOff[n+1] {
			numNodes++
		}
	}
	w.Uvarint(uint64(numNodes))
	for n := 0; n+1 < len(r.nodeOff); n++ {
		lo, hi := r.nodeOff[n], r.nodeOff[n+1]
		if lo == hi {
			continue
		}
		w.Uvarint(uint64(n))
		w.Uvarint(uint64(hi - lo))
		for i := lo; i < hi; i++ {
			w.Uvarint(uint64(r.nodeFacts[i]))
			w.Uvarint(r.nodeParents[i].prev)
			w.Uvarint(uint64(r.nodeParents[i].step))
		}
	}
	w.Int(r.PathEdges)
	w.Int(r.SummaryEdges)
	return w.Bytes(), nil
}

// DecodeResults rebuilds Results from data against prog, pts, and the
// dependence graph supplying the node space. Any structural fault in
// data is an error, including a parent chain that revisits a (node,
// fact) pair: Trace follows parents to a root and would never return.
func DecodeResults(data []byte, prog *ir.Program, pts *pointsto.Result, g *sdg.Graph) (*Results, error) {
	fields := make(map[string]*types.FieldInfo)
	for _, ci := range prog.Info.Classes {
		for _, fi := range ci.Fields {
			fields[fi.QualifiedName()] = fi
		}
	}
	objects := pts.Objects()

	r := artifact.NewReader(data)
	res := &Results{
		Name:      r.String(),
		ConfigKey: r.String(),
		graph:     g,
		facts:     NewFacts(),
		nodeOff:   make([]int32, g.NumNodes()+1),
	}
	fx := res.facts

	numFacts := r.Len()
	for i := 0; i < numFacts; i++ {
		rawKind := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if rawKind > uint64(KindStatic) {
			return nil, fmt.Errorf("dataflow: decode: bad fact kind %d", rawKind)
		}
		kind := FactKind(rawKind)
		var got Fact
		switch kind {
		case KindReg:
			id := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if id >= uint64(prog.NumInstrs) {
				return nil, fmt.Errorf("dataflow: decode: instr %d of %d", id, prog.NumInstrs)
			}
			ins := prog.InstrByID(int(id))
			if ins == nil || ins.Def() == nil {
				return nil, fmt.Errorf("dataflow: decode: instr %d does not define a register", id)
			}
			got = fx.Reg(ins.Def())
		case KindObjField:
			o, err := decodeObj(r, objects)
			if err != nil {
				return nil, err
			}
			fi, err := decodeField(r, fields)
			if err != nil {
				return nil, err
			}
			got = fx.ObjField(o, fi)
		case KindObjElem, KindObjLen, KindObjState:
			o, err := decodeObj(r, objects)
			if err != nil {
				return nil, err
			}
			switch kind {
			case KindObjElem:
				got = fx.ObjElem(o)
			case KindObjLen:
				got = fx.ObjLen(o)
			default:
				st := r.Uvarint()
				if st > 255 {
					return nil, fmt.Errorf("dataflow: decode: bad protocol state %d", st)
				}
				got = fx.ObjState(o, uint8(st))
			}
		case KindStatic:
			fi, err := decodeField(r, fields)
			if err != nil {
				return nil, err
			}
			got = fx.Static(fi)
		default:
			return nil, fmt.Errorf("dataflow: decode: bad fact kind %d", kind)
		}
		if got != Fact(i+1) {
			return nil, fmt.Errorf("dataflow: decode: fact %d re-interned as %d (duplicate descriptor)", i+1, got)
		}
	}

	// Node rows, strictly ascending and non-empty as EncodeResults
	// writes them. seenAt[d] is one more than the last node holding d, so
	// a repeat within a row is caught without clearing between rows.
	seenAt := make([]int32, fx.NumFacts())
	last := -1
	numNodes := r.Len()
	for i := 0; i < numNodes; i++ {
		nu := r.Uvarint()
		cnt := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if nu >= uint64(g.NumNodes()) {
			return nil, fmt.Errorf("dataflow: decode: node %d of %d", nu, g.NumNodes())
		}
		n := int(nu)
		if n <= last || cnt == 0 {
			return nil, fmt.Errorf("dataflow: decode: node %d out of order or empty", n)
		}
		last = n
		res.nodeOff[n+1] = int32(cnt)
		for j := 0; j < cnt; j++ {
			du := r.Uvarint()
			prev := r.Uvarint()
			step := r.Uvarint()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if du >= uint64(fx.NumFacts()) {
				return nil, fmt.Errorf("dataflow: decode: fact %d of %d", du, fx.NumFacts())
			}
			if step > uint64(StepSummary) {
				return nil, fmt.Errorf("dataflow: decode: bad step kind %d", step)
			}
			if seenAt[du] == int32(n+1) {
				return nil, fmt.Errorf("dataflow: decode: duplicate fact %d at node %d", du, n)
			}
			seenAt[du] = int32(n + 1)
			res.nodeFacts = append(res.nodeFacts, Fact(du))
			res.nodeParents = append(res.nodeParents, parentRec{prev: prev, step: StepKind(step)})
		}
	}
	for n := 1; n < len(res.nodeOff); n++ {
		res.nodeOff[n] += res.nodeOff[n-1]
	}
	res.PathEdges = r.Int()
	res.SummaryEdges = r.Int()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	up, err := parentPositions(res.nodeOff, res.nodeFacts, res.nodeParents, fx.NumFacts())
	if err != nil {
		return nil, fmt.Errorf("dataflow: decode: %w", err)
	}
	if err := checkAcyclic(up); err != nil {
		return nil, err
	}
	res.nodeUp = up
	return res, nil
}

// checkAcyclic verifies that every parent chain reaches a root, so
// Trace cannot loop: it walks each chain until a root or an entry
// already known to reach one, and meeting an entry of the current walk
// again is a cycle.
func checkAcyclic(up []int32) error {
	const (
		unseen = iota
		onWalk
		rooted
	)
	state := make([]uint8, len(up))
	for i := range up {
		j := int32(i)
		for j >= 0 && state[j] == unseen {
			state[j] = onWalk
			j = up[j]
		}
		if j >= 0 && state[j] == onWalk {
			return fmt.Errorf("dataflow: decode: parent chain cycles through entry %d", j)
		}
		for k := int32(i); k >= 0 && state[k] == onWalk; k = up[k] {
			state[k] = rooted
		}
	}
	return nil
}

func decodeObj(r *artifact.Reader, objects []*pointsto.Object) (*pointsto.Object, error) {
	id := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if id >= uint64(len(objects)) {
		return nil, fmt.Errorf("dataflow: decode: object ID %d of %d", id, len(objects))
	}
	return objects[id], nil
}

func decodeField(r *artifact.Reader, fields map[string]*types.FieldInfo) (*types.FieldInfo, error) {
	name := r.String()
	if r.Err() != nil {
		return nil, r.Err()
	}
	fi, ok := fields[name]
	if !ok {
		return nil, fmt.Errorf("dataflow: decode: unknown field %q", name)
	}
	return fi, nil
}

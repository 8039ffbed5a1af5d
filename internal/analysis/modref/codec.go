package modref

// Persistent encoding of a Result (package artifact's "modref"
// payload). Locations are stored over stable coordinates — object IDs
// from the points-to result and qualified field names — and relinked
// against prog and pts at decode.

import (
	"fmt"
	"sort"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
)

// EncodeResult returns the persistent payload for r.
func EncodeResult(r *Result) ([]byte, error) {
	// Method set: mod and ref are always populated together.
	var names []string
	byName := make(map[string]*ir.Method, len(r.mod))
	for m := range r.mod { //determinism:ok — sorted below
		n := m.Sig.QualifiedName()
		names = append(names, n)
		byName[n] = m
	}
	sort.Strings(names)

	var w artifact.Writer
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		m := byName[n]
		w.String(n)
		encodeLocs(&w, r.mod[m])
		encodeLocs(&w, r.ref[m])
	}
	return w.Bytes(), nil
}

func encodeLocs(w *artifact.Writer, set map[Loc]bool) {
	locs := sortLocs(set)
	w.Uvarint(uint64(len(locs)))
	for _, l := range locs {
		if l.Obj != nil {
			w.Uvarint(uint64(l.Obj.ID + 1))
		} else {
			w.Uvarint(0)
		}
		if l.Field != nil {
			w.String(l.Field.QualifiedName())
		} else {
			w.String("")
		}
		w.Bool(l.ArrayLen)
	}
}

// DecodeResult rebuilds a Result from data against prog and pts. Any
// structural fault in data is an error.
func DecodeResult(data []byte, prog *ir.Program, pts *pointsto.Result) (*Result, error) {
	byName := make(map[string]*ir.Method, len(prog.Methods))
	for _, m := range prog.Methods {
		byName[m.Sig.QualifiedName()] = m
	}
	fields := make(map[string]*types.FieldInfo)
	for _, ci := range prog.Info.Classes {
		for _, fi := range ci.Fields {
			fields[fi.QualifiedName()] = fi
		}
	}
	objects := pts.Objects()

	res := &Result{
		mod: make(map[*ir.Method]map[Loc]bool),
		ref: make(map[*ir.Method]map[Loc]bool),
	}
	r := artifact.NewReader(data)
	n := r.Len()
	for i := 0; i < n; i++ {
		qname := r.String()
		if r.Err() != nil {
			return nil, r.Err()
		}
		m, ok := byName[qname]
		if !ok {
			return nil, fmt.Errorf("modref: decode: unknown method %q", qname)
		}
		mod, err := decodeLocs(r, fields, objects)
		if err != nil {
			return nil, err
		}
		ref, err := decodeLocs(r, fields, objects)
		if err != nil {
			return nil, err
		}
		res.mod[m] = mod
		res.ref[m] = ref
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return res, nil
}

func decodeLocs(r *artifact.Reader, fields map[string]*types.FieldInfo, objects []*pointsto.Object) (map[Loc]bool, error) {
	n := r.Len()
	set := make(map[Loc]bool, n)
	for i := 0; i < n; i++ {
		objID := r.Uvarint()
		fname := r.String()
		arrayLen := r.Bool()
		if r.Err() != nil {
			return nil, r.Err()
		}
		var l Loc
		if objID > 0 {
			if objID > uint64(len(objects)) {
				return nil, fmt.Errorf("modref: decode: object ID %d of %d", objID-1, len(objects))
			}
			l.Obj = objects[objID-1]
		}
		if fname != "" {
			fi, ok := fields[fname]
			if !ok {
				return nil, fmt.Errorf("modref: decode: unknown field %q", fname)
			}
			l.Field = fi
		}
		l.ArrayLen = arrayLen
		if l.Obj == nil && l.Field == nil {
			return nil, fmt.Errorf("modref: decode: location with neither object nor field")
		}
		set[l] = true
	}
	return set, nil
}

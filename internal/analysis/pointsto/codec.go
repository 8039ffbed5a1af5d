package pointsto

// Persistent encoding of a Result (package artifact's "pts" payload).
// The solver graph is not persisted — only the fixpoint the query API
// reads: objects, method contexts, per-context points-to sets, call
// edges, and reachability. Everything is stored over stable
// coordinates (instruction IDs, object IDs, MCtx IDs, qualified method
// names, a canonical program-wide register numbering) and relinked
// against the decoded *ir.Program, so a decoded Result answers every
// query identically to the one the solver produced.

import (
	"fmt"
	"sort"

	"thinslice/internal/artifact"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
)

// progRegs returns the canonical program-wide register enumeration:
// methods in program order, ir.MethodRegs within each. Encoder and
// decoder derive identical tables from identical programs.
func progRegs(prog *ir.Program) ([]*ir.Reg, map[*ir.Reg]int) {
	var regs []*ir.Reg
	idx := make(map[*ir.Reg]int)
	for _, m := range prog.Methods {
		for _, r := range ir.MethodRegs(m) {
			idx[r] = len(regs)
			regs = append(regs, r)
		}
	}
	return regs, idx
}

func methodsByQName(prog *ir.Program) map[string]*ir.Method {
	byName := make(map[string]*ir.Method, len(prog.Methods))
	for _, m := range prog.Methods {
		byName[m.Sig.QualifiedName()] = m
	}
	return byName
}

// EncodeResult returns the persistent payload for r. Truncated results
// are incomplete fixpoints and are never cached, so encoding one is an
// error.
func EncodeResult(r *Result) ([]byte, error) {
	if r.Truncated || r.LimitErr != nil {
		return nil, fmt.Errorf("pointsto: refusing to encode a truncated result")
	}
	_, regIdx := progRegs(r.prog)

	var w artifact.Writer
	w.Bool(r.Downgraded)

	w.Uvarint(uint64(len(r.entries)))
	for _, m := range r.entries {
		w.String(m.Sig.QualifiedName())
	}

	// Objects in ID order. Canonical renumbering orders objects by their
	// own allocation site first, so a Ctx reference may point forwards as
	// well as backwards; the decoder wires them in a second pass.
	w.Uvarint(uint64(len(r.objects)))
	for _, o := range r.objects {
		w.Uvarint(uint64(o.Site.ID()))
		if o.Ctx != nil {
			w.Uvarint(uint64(o.Ctx.ID + 1))
		} else {
			w.Uvarint(0)
		}
		if o.Class != nil {
			w.String(o.Class.Name)
		} else {
			w.String("")
		}
		w.String(ir.TypeString(o.Elem))
		w.Int(o.depth)
	}

	// Method contexts in ID order.
	w.Uvarint(uint64(len(r.mctxs)))
	for _, mc := range r.mctxs {
		w.String(mc.Method.Sig.QualifiedName())
		if mc.Ctx != nil {
			w.Uvarint(uint64(mc.Ctx.ID + 1))
		} else {
			w.Uvarint(0)
		}
	}

	// Per-context points-to sets, sorted by (register, context). Empty
	// sets are omitted: the query API cannot distinguish an empty set
	// from an absent one.
	type varEntry struct {
		reg int
		ctx int // object ID + 1, 0 for nil
		pts []int
	}
	var vars []varEntry
	for k, n := range r.varNodes { //determinism:ok — sorted below
		if n.pts.empty() {
			continue
		}
		ri, ok := regIdx[k.reg]
		if !ok {
			return nil, fmt.Errorf("pointsto: register %v not in canonical enumeration", k.reg)
		}
		e := varEntry{reg: ri}
		if k.ctx != nil {
			e.ctx = k.ctx.ID + 1
		}
		n.pts.forEach(func(id int) { e.pts = append(e.pts, id) })
		vars = append(vars, e)
	}
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].reg != vars[j].reg {
			return vars[i].reg < vars[j].reg
		}
		return vars[i].ctx < vars[j].ctx
	})
	w.Uvarint(uint64(len(vars)))
	for _, e := range vars {
		w.Uvarint(uint64(e.reg))
		w.Uvarint(uint64(e.ctx))
		w.Uvarint(uint64(len(e.pts)))
		for _, id := range e.pts {
			w.Uvarint(uint64(id))
		}
	}

	// Call edges, sorted by (call site, caller context). The callee
	// list order is load-bearing: SDG construction iterates CalleesAt
	// and its fingerprint depends on edge order.
	type edgeEntry struct {
		call, caller int
		callees      []*MCtx
	}
	var edges []edgeEntry
	for k, v := range r.callEdges { //determinism:ok — sorted below
		edges = append(edges, edgeEntry{k.callID, k.callerID, v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].call != edges[j].call {
			return edges[i].call < edges[j].call
		}
		return edges[i].caller < edges[j].caller
	})
	w.Uvarint(uint64(len(edges)))
	for _, e := range edges {
		w.Uvarint(uint64(e.call))
		w.Uvarint(uint64(e.caller))
		w.Uvarint(uint64(len(e.callees)))
		for _, mc := range e.callees {
			w.Uvarint(uint64(mc.ID))
		}
	}

	// Context-insensitive callee sets, sorted by call site; the per-call
	// sets are sorted by name (they are consumed through Callees, which
	// sorts anyway).
	type ciEntry struct {
		call  int
		names []string
	}
	var cis []ciEntry
	for call, set := range r.calleesCI { //determinism:ok — sorted below
		e := ciEntry{call: call.ID()}
		for m := range set { //determinism:ok — names sorted below
			e.names = append(e.names, m.Sig.QualifiedName())
		}
		sort.Strings(e.names)
		cis = append(cis, e)
	}
	sort.Slice(cis, func(i, j int) bool { return cis[i].call < cis[j].call })
	w.Uvarint(uint64(len(cis)))
	for _, e := range cis {
		w.Uvarint(uint64(e.call))
		w.Uvarint(uint64(len(e.names)))
		for _, n := range e.names {
			w.String(n)
		}
	}

	// Reachable methods, sorted by name.
	var reach []string
	for m := range r.reachableM { //determinism:ok — sorted below
		reach = append(reach, m.Sig.QualifiedName())
	}
	sort.Strings(reach)
	w.Uvarint(uint64(len(reach)))
	for _, n := range reach {
		w.String(n)
	}

	return w.Bytes(), nil
}

// DecodeResult rebuilds a Result from data against prog (the decoded
// or freshly lowered program the record was encoded from). Any
// structural fault in data is an error; decode never panics on corrupt
// input.
func DecodeResult(data []byte, prog *ir.Program) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("pointsto: decode: malformed payload: %v", rec)
		}
	}()
	regs, _ := progRegs(prog)
	byName := methodsByQName(prog)
	method := func(qname string) (*ir.Method, error) {
		if m, ok := byName[qname]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("pointsto: decode: unknown method %q", qname)
	}

	r := artifact.NewReader(data)
	res = &Result{
		prog:       prog,
		mctxsOf:    make(map[*ir.Method][]*MCtx),
		regNodes:   make(map[*ir.Reg][]*node),
		varNodes:   make(map[varKey]*node),
		callEdges:  make(map[callSiteKey][]*MCtx),
		calleesCI:  make(map[*ir.Call]map[*ir.Method]bool),
		reachableM: make(map[*ir.Method]bool),
	}
	res.Downgraded = r.Bool()

	nEntries := r.Len()
	for i := 0; i < nEntries; i++ {
		m, err := method(r.String())
		if err != nil {
			return nil, firstErr(r.Err(), err)
		}
		res.entries = append(res.entries, m)
	}

	nObjs := r.Len()
	res.objects = make([]*Object, nObjs)
	ctxIDs := make([]uint64, nObjs)
	for i := range res.objects {
		siteID := r.Uvarint()
		ctxIDs[i] = r.Uvarint()
		className := r.String()
		elemStr := r.String()
		depth := r.Int()
		if r.Err() != nil {
			return nil, r.Err()
		}
		site := prog.InstrByID(int(siteID))
		if site == nil {
			return nil, fmt.Errorf("pointsto: decode: object %d has unknown site #%d", i, siteID)
		}
		var class *types.ClassInfo
		if className != "" {
			ci, ok := prog.Info.Classes[className]
			if !ok {
				return nil, fmt.Errorf("pointsto: decode: unknown class %q", className)
			}
			class = ci
		}
		elem, err := ir.ParseType(prog.Info, elemStr)
		if err != nil {
			return nil, err
		}
		res.objects[i] = &Object{ID: i, Site: site, Class: class, Elem: elem, depth: depth}
	}
	// Second pass: wire heap contexts now that every object exists. An
	// object's depth is its context's plus one, or 0 without one, which
	// also rules out a context cycle.
	object := func(idPlus1 uint64) (*Object, error) {
		if idPlus1 == 0 {
			return nil, nil
		}
		if idPlus1 > uint64(len(res.objects)) {
			return nil, fmt.Errorf("pointsto: decode: object ID %d of %d", idPlus1-1, len(res.objects))
		}
		return res.objects[idPlus1-1], nil
	}
	for i, o := range res.objects {
		ctx, err := object(ctxIDs[i])
		if err != nil {
			return nil, err
		}
		o.Ctx = ctx
		want := 0
		if ctx != nil {
			want = ctx.depth + 1
		}
		if o.depth != want {
			return nil, fmt.Errorf("pointsto: decode: object %d has depth %d, its context implies %d", i, o.depth, want)
		}
	}

	nMCtxs := r.Len()
	res.mctxs = make([]*MCtx, nMCtxs)
	for i := range res.mctxs {
		qname := r.String()
		ctxID := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		m, err := method(qname)
		if err != nil {
			return nil, err
		}
		ctx, err := object(ctxID)
		if err != nil {
			return nil, err
		}
		mc := &MCtx{ID: i, Method: m, Ctx: ctx}
		res.mctxs[i] = mc
		res.mctxsOf[m] = append(res.mctxsOf[m], mc)
	}
	mctx := func(id uint64) (*MCtx, error) {
		if id >= uint64(len(res.mctxs)) {
			return nil, fmt.Errorf("pointsto: decode: mctx ID %d of %d", id, len(res.mctxs))
		}
		return res.mctxs[id], nil
	}

	// Everything below is accepted only in the order and shape
	// EncodeResult writes it: keys strictly ascending, lists non-empty
	// and strictly ascending. Anything else would decode to a Result that
	// re-encodes differently, or whose queries disagree (a repeated
	// register entry leaves regNodes holding a node varNodes does not).
	var varOrder keyOrder
	nVars := r.Len()
	for i := 0; i < nVars; i++ {
		regI := r.Uvarint()
		ctxID := r.Uvarint()
		nPts := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if !varOrder.next(regI, ctxID) || nPts == 0 {
			return nil, fmt.Errorf("pointsto: decode: points-to entry %d is out of order or empty", i)
		}
		if regI >= uint64(len(regs)) {
			return nil, fmt.Errorf("pointsto: decode: register index %d of %d", regI, len(regs))
		}
		reg := regs[regI]
		ctx, err := object(ctxID)
		if err != nil {
			return nil, err
		}
		n := &node{}
		var idOrder keyOrder
		for j := 0; j < nPts; j++ {
			id := r.Uvarint()
			if id >= uint64(len(res.objects)) || !idOrder.next(id, 0) {
				return nil, firstErr(r.Err(), fmt.Errorf("pointsto: decode: points-to object ID %d of %d, or out of order", id, len(res.objects)))
			}
			n.pts.add(int(id))
		}
		res.varNodes[varKey{reg, ctx}] = n
		res.regNodes[reg] = append(res.regNodes[reg], n)
	}

	var edgeOrder keyOrder
	nEdges := r.Len()
	for i := 0; i < nEdges; i++ {
		callID := r.Uvarint()
		callerID := r.Uvarint()
		nCallees := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if !edgeOrder.next(callID, callerID) || nCallees == 0 {
			return nil, fmt.Errorf("pointsto: decode: call edge entry %d is out of order or empty", i)
		}
		if _, ok := prog.InstrByID(int(callID)).(*ir.Call); !ok {
			return nil, fmt.Errorf("pointsto: decode: call edge at instruction #%d, not a call", callID)
		}
		if _, err := mctx(callerID); err != nil {
			return nil, err
		}
		callees := make([]*MCtx, nCallees)
		var calleeOrder keyOrder
		for j := range callees {
			id := r.Uvarint()
			mc, err := mctx(id)
			if err == nil && !calleeOrder.next(id, 0) {
				err = fmt.Errorf("pointsto: decode: callee list of call edge entry %d out of order", i)
			}
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			callees[j] = mc
		}
		res.callEdges[callSiteKey{int(callID), int(callerID)}] = callees
	}

	var ciOrder keyOrder
	nCIs := r.Len()
	for i := 0; i < nCIs; i++ {
		callID := r.Uvarint()
		nNames := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if !ciOrder.next(callID, 0) || nNames == 0 {
			return nil, fmt.Errorf("pointsto: decode: callee set entry %d is out of order or empty", i)
		}
		call, ok := prog.InstrByID(int(callID)).(*ir.Call)
		if !ok {
			return nil, fmt.Errorf("pointsto: decode: instruction #%d is not a call", callID)
		}
		set := make(map[*ir.Method]bool, nNames)
		prev := ""
		for j := 0; j < nNames; j++ {
			name := r.String()
			m, err := method(name)
			if err == nil && j > 0 && name <= prev {
				err = fmt.Errorf("pointsto: decode: callee set entry %d out of order", i)
			}
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			set[m] = true
			prev = name
		}
		res.calleesCI[call] = set
	}

	nReach := r.Len()
	prev := ""
	for i := 0; i < nReach; i++ {
		name := r.String()
		m, err := method(name)
		if err == nil && i > 0 && name <= prev {
			err = fmt.Errorf("pointsto: decode: reachable methods out of order")
		}
		if err != nil {
			return nil, firstErr(r.Err(), err)
		}
		res.reachableM[m] = true
		prev = name
	}

	if err := r.Finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// keyOrder checks that a decoded sequence of (a, b) keys is strictly
// ascending. Single keys pass b = 0.
type keyOrder struct {
	a, b uint64
	seen bool
}

// next records (a, b) and reports whether it follows the previous key.
func (k *keyOrder) next(a, b uint64) bool {
	ok := !k.seen || a > k.a || a == k.a && b > k.b
	k.a, k.b, k.seen = a, b, true
	return ok
}

// firstErr prefers the reader's error (the structural fault) over the
// resolution error derived from its zero-value output.
func firstErr(readerErr, resolveErr error) error {
	if readerErr != nil {
		return readerErr
	}
	return resolveErr
}

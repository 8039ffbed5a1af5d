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
	"errors"
	"fmt"
	"slices"
	"sort"

	"thinslice/internal/artifact"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
)

// ctxRef is the payload's reference to a heap context: the object's ID
// plus one, or 0 for none.
func ctxRef(o *Object) int {
	if o == nil {
		return 0
	}
	return o.ID + 1
}

// EncodeResult returns the persistent payload for r. Truncated results
// are incomplete fixpoints and are never cached, so encoding one is an
// error.
func EncodeResult(r *Result) ([]byte, error) {
	if r.Truncated || r.LimitErr != nil {
		return nil, fmt.Errorf("pointsto: refusing to encode a truncated result")
	}
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
		w.Uvarint(uint64(ctxRef(o.Ctx)))
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
		w.Uvarint(uint64(ctxRef(mc.Ctx)))
	}

	// Per-context points-to sets, sorted by (register, context), where
	// registers take their place in the program-wide enumeration:
	// methods in program order, ir.MethodRegs within each. Empty sets
	// are omitted: the query API cannot distinguish an empty set from an
	// absent one.
	type varEntry struct {
		reg, ctx int
		pts      bitset
	}
	var vars []varEntry
	base := 0
	for _, m := range r.prog.Methods {
		regs := ir.MethodRegs(m)
		for _, mc := range r.mctxsOf[m] {
			for i, reg := range regs {
				if pts := r.setIn(reg, mc); !pts.empty() {
					vars = append(vars, varEntry{base + i, ctxRef(mc.Ctx), pts})
				}
			}
		}
		base += len(regs)
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
		w.Uvarint(uint64(e.pts.count()))
		e.pts.forEach(func(id int) { w.Uvarint(uint64(id)) })
	}

	// Call edges, sorted by (call site, caller context). The callee
	// list order is load-bearing: SDG construction iterates CalleesAt
	// and its fingerprint depends on edge order.
	type edgeEntry struct {
		call, caller int
		callees      []*MCtx
	}
	var edges []edgeEntry
	for _, mc := range r.mctxs {
		for i, sl := range mc.slots {
			if sl.calls != 0 {
				edges = append(edges, edgeEntry{mc.first + i, mc.ID, r.callees[sl.calls-1]})
			}
		}
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

	// Context-insensitive callee sets, one per call with edges, sorted by
	// call site: the names of the call's callee methods under every
	// caller, sorted (they are consumed through Callees, which sorts
	// anyway).
	var ciCalls []int
	var ciSets [][]string
	for i, e := range edges {
		if i == 0 || e.call != edges[i-1].call {
			ciCalls = append(ciCalls, e.call)
			ciSets = append(ciSets, nil)
		}
		set := &ciSets[len(ciSets)-1]
		for _, mc := range e.callees {
			*set = append(*set, mc.Method.Sig.QualifiedName())
		}
	}
	w.Uvarint(uint64(len(ciCalls)))
	for i, set := range ciSets {
		sort.Strings(set)
		set = slices.Compact(set)
		w.Uvarint(uint64(ciCalls[i]))
		w.Uvarint(uint64(len(set)))
		for _, n := range set {
			w.String(n)
		}
	}

	// Reachable methods, sorted by name.
	reach := r.ReachableMethods()
	w.Uvarint(uint64(len(reach)))
	for _, m := range reach {
		w.String(m.Sig.QualifiedName())
	}

	return w.Bytes(), nil
}

// errRecovered marks a payload rejected only because decoding it
// panicked. The decoder checks every fault it knows of before it could
// panic, so this error means a check is missing.
var errRecovered = errors.New("malformed payload")

// DecodeResult rebuilds a Result from data against prog (the decoded
// or freshly lowered program the record was encoded from). Any
// structural fault in data is an error; decode never panics on corrupt
// input.
func DecodeResult(data []byte, prog *ir.Program) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fmt.Errorf("pointsto: decode: %w: %v", errRecovered, rec)
		}
	}()
	byName := make(map[string]int, len(prog.Methods))
	for i, m := range prog.Methods {
		byName[m.Sig.QualifiedName()] = i
	}
	method := func(qname string) (int, error) {
		if i, ok := byName[qname]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("pointsto: decode: unknown method %q", qname)
	}
	instr := func(id uint64) ir.Instr {
		if id >= uint64(prog.NumInstrs) {
			return nil
		}
		return prog.InstrByID(int(id))
	}

	r := artifact.NewReader(data)
	res = &Result{prog: prog, mctxsOf: make(map[*ir.Method][]*MCtx, len(prog.Methods))}
	res.Downgraded = r.Bool()

	nEntries := r.Len()
	for i := 0; i < nEntries; i++ {
		m, err := method(r.String())
		if err != nil {
			return nil, firstErr(r.Err(), err)
		}
		res.entries = append(res.entries, prog.Methods[m])
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
		site := instr(siteID)
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
	object := func(ref uint64) (*Object, error) {
		if ref == 0 {
			return nil, nil
		}
		if ref > uint64(len(res.objects)) {
			return nil, fmt.Errorf("pointsto: decode: object ID %d of %d", ref-1, len(res.objects))
		}
		return res.objects[ref-1], nil
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

	// Method contexts, in the canonical order every solve leaves them
	// in: by method position, then by context object, nil first. So
	// each method's contexts are one run, sorted by context.
	var mctxOrder keyOrder
	var slots slotSlab
	reachable := 0 // methods with contexts
	nMCtxs := r.Len()
	res.mctxs = make([]*MCtx, nMCtxs)
	for i := range res.mctxs {
		qname := r.String()
		ref := r.Uvarint()
		if r.Err() != nil {
			return nil, r.Err()
		}
		mi, err := method(qname)
		if err != nil {
			return nil, err
		}
		ctx, err := object(ref)
		if err != nil {
			return nil, err
		}
		if !mctxOrder.next(uint64(mi), ref) {
			return nil, fmt.Errorf("pointsto: decode: method context %d is out of order", i)
		}
		m := prog.Methods[mi]
		mc := &MCtx{ID: i, Method: m, Ctx: ctx}
		if others := res.mctxsOf[m]; len(others) > 0 {
			mc.first, mc.slots = others[0].first, slots.take(len(others[0].slots))
		} else {
			first, n := span(m)
			mc.first, mc.slots = first, slots.take(n)
			reachable++
		}
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
	// and strictly ascending, and every entry one a solve writes. Anything
	// else would decode to a Result that re-encodes differently, or whose
	// queries disagree with each other or with every solve.
	//
	// Points-to entries arrive sorted by register, and registers are
	// numbered method by method, so one cursor walks the methods.
	var varOrder keyOrder
	var (
		mi      = -1
		regs    []*ir.Reg // registers of prog.Methods[mi]
		regBase int       // number of regs[0]
		ids     []int
		words   []uint64 // slab the sets' words are carved from
	)
	nVars := r.Len()
	res.sets = make([]bitset, 0, presize(nVars, r, varEntryBytes))
	for i := 0; i < nVars; i++ {
		regI := r.Uvarint()
		ref := r.Uvarint()
		nPts := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if !varOrder.next(regI, ref) || nPts == 0 {
			return nil, fmt.Errorf("pointsto: decode: points-to entry %d is out of order or empty", i)
		}
		for regI-uint64(regBase) >= uint64(len(regs)) {
			if mi+1 == len(prog.Methods) {
				return nil, fmt.Errorf("pointsto: decode: register index %d of %d", regI, regBase+len(regs))
			}
			mi++
			regBase += len(regs)
			regs = ir.MethodRegs(prog.Methods[mi])
		}
		reg := regs[regI-uint64(regBase)]
		mcs := res.mctxsOf[prog.Methods[mi]]
		j := sort.Search(len(mcs), func(j int) bool { return uint64(ctxRef(mcs[j].Ctx)) >= ref })
		if j == len(mcs) || uint64(ctxRef(mcs[j].Ctx)) != ref {
			return nil, fmt.Errorf("pointsto: decode: points-to entry %d: %s has no context for object reference %d", i, prog.Methods[mi].Name(), ref)
		}
		mc := mcs[j]
		ids = ids[:0]
		var idOrder keyOrder
		for k := 0; k < nPts; k++ {
			id := r.Uvarint()
			if id >= uint64(len(res.objects)) || !idOrder.next(id, 0) {
				return nil, firstErr(r.Err(), fmt.Errorf("pointsto: decode: points-to object ID %d of %d, or out of order", id, len(res.objects)))
			}
			ids = append(ids, int(id))
		}
		// The IDs ascend, so the set's span is known before its words
		// are carved out of the slab, already trimmed.
		lo := ids[0] >> 6
		n := ids[len(ids)-1]>>6 - lo + 1
		if n > len(words) {
			words = make([]uint64, max(n, wordSlabSize))
		}
		b := bitset{off: lo, words: words[:n:n]}
		words = words[n:]
		for _, id := range ids {
			b.words[id>>6-lo] |= 1 << (uint(id) & 63)
		}
		res.sets = append(res.sets, b)
		if k := res.slotOf(reg, mc); k >= 0 {
			mc.slots[k].v = int32(len(res.sets))
		} else {
			if res.extra == nil {
				res.extra = make(map[*ir.Reg][]extraVar)
			}
			res.extra[reg] = append(res.extra[reg], extraVar{mc, int32(len(res.sets) - 1)})
		}
	}

	// Call edges. Each call's entries are one run of res.callees, which
	// the context-insensitive callee sets below must restate.
	type callRun struct {
		call       uint64
		start, end int
	}
	var (
		edgeOrder keyOrder
		runs      []callRun
		callees   []*MCtx // slab the callee lists are carved from
	)
	nEdges := r.Len()
	res.callees = make([][]*MCtx, 0, presize(nEdges, r, edgeEntryBytes))
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
		if _, ok := instr(callID).(*ir.Call); !ok {
			return nil, fmt.Errorf("pointsto: decode: call edge at instruction #%d, not a call", callID)
		}
		caller, err := mctx(callerID)
		if err != nil {
			return nil, err
		}
		k := int(callID) - caller.first
		if uint(k) >= uint(len(caller.slots)) {
			return nil, fmt.Errorf("pointsto: decode: call edge entry %d: call #%d is outside its caller %s", i, callID, caller.Method.Name())
		}
		if nCallees > len(callees) {
			callees = make([]*MCtx, max(nCallees, calleeSlabSize))
		}
		list := callees[:nCallees:nCallees]
		callees = callees[nCallees:]
		var calleeOrder keyOrder
		for j := range list {
			id := r.Uvarint()
			mc, err := mctx(id)
			if err == nil && !calleeOrder.next(id, 0) {
				err = fmt.Errorf("pointsto: decode: callee list of call edge entry %d out of order", i)
			}
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			list[j] = mc
		}
		res.callees = append(res.callees, list)
		caller.slots[k].calls = int32(len(res.callees))
		if len(runs) == 0 || runs[len(runs)-1].call != callID {
			runs = append(runs, callRun{call: callID, start: len(res.callees) - 1})
		}
		runs[len(runs)-1].end = len(res.callees)
	}

	// Context-insensitive callee sets: exactly one per call with edges,
	// naming the methods of that call's callees, which is what Callees
	// answers from the edges.
	nCIs := r.Len()
	if nCIs != len(runs) {
		return nil, firstErr(r.Err(), fmt.Errorf("pointsto: decode: %d callee sets for %d calls with edges", nCIs, len(runs)))
	}
	var union []*ir.Method
	for i, run := range runs {
		callID := r.Uvarint()
		nNames := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		union = union[:0]
		for _, list := range res.callees[run.start:run.end] {
			for _, mc := range list {
				if !slices.Contains(union, mc.Method) {
					union = append(union, mc.Method)
				}
			}
		}
		if callID != run.call || nNames != len(union) {
			return nil, fmt.Errorf("pointsto: decode: callee set entry %d (#%d, %d names) does not restate call #%d's %d callee methods", i, callID, nNames, run.call, len(union))
		}
		prev := ""
		for j := 0; j < nNames; j++ {
			name := r.String()
			m, err := method(name)
			if err == nil && (j > 0 && name <= prev || !slices.Contains(union, prog.Methods[m])) {
				err = fmt.Errorf("pointsto: decode: callee set entry %d is out of order or names a method no edge calls", i)
			}
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			prev = name
		}
	}

	// Reachable methods: exactly the methods with contexts, by name.
	nReach := r.Len()
	if nReach != reachable {
		return nil, firstErr(r.Err(), fmt.Errorf("pointsto: decode: %d reachable methods, %d methods have contexts", nReach, reachable))
	}
	prev := ""
	for i := 0; i < nReach; i++ {
		name := r.String()
		m, err := method(name)
		if err == nil && (i > 0 && name <= prev || len(res.mctxsOf[prog.Methods[m]]) == 0) {
			err = fmt.Errorf("pointsto: decode: reachable methods out of order or without a context")
		}
		if err != nil {
			return nil, firstErr(r.Err(), err)
		}
		prev = name
	}

	if err := r.Finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// The fewest payload bytes one entry of each section can take, and the
// slab chunk sizes of decoded set words and callee lists.
const (
	varEntryBytes  = 4 // register, context, count, one object ID
	edgeEntryBytes = 4 // call, caller, count, one callee
	wordSlabSize   = 1024
	calleeSlabSize = 256
)

// presize returns how many of n entries, each at least minBytes long,
// the bytes r has left could hold: a map or slice sized by it grows
// with the input actually present, not with a count a corrupt header
// claims.
func presize(n int, r *artifact.Reader, minBytes int) int {
	return min(n, r.Remaining()/minBytes)
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

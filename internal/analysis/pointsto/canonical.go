package pointsto

import (
	"sort"

	"thinslice/internal/ir"
)

// Canonical renumbering. A solver run discovers objects and
// method-contexts in worklist order, an artifact of how the solver
// schedules its work (cycle elimination, sweep thresholds, worklist
// discipline) rather than of the program. EncodeResult payloads,
// Fingerprints, and the SDG built on top all read raw IDs, and the
// byte-identity oracles pin them, so every complete solve renumbers its
// objects and contexts into an order that is a pure function of the
// analyzed program:
//
//   - objects sort by their allocation-site chain: the site's dense
//     program instruction ID, then the heap context's chain,
//     lexicographically (nil context first). Site+context is an
//     object's identity, so the order is total.
//   - method-contexts sort by (method's index in prog.Methods, context
//     object's canonical ID, nil context first). Method+context is an
//     MCtx's identity.
//
// Truncated runs skip canonicalization: their frontiers may be
// undrained, and the codec refuses them anyway.

// objLess orders objects by site-ID chain, context-insensitive sites
// before cloned ones.
func objLess(a, b *Object) bool {
	for {
		if a.Site.ID() != b.Site.ID() {
			return a.Site.ID() < b.Site.ID()
		}
		a, b = a.Ctx, b.Ctx
		if a == nil || b == nil {
			return a == nil && b != nil
		}
	}
}

// remapBits rewrites a bitset through an object-ID permutation. It
// finds the permuted span first, so the result is allocated once and
// is trimmed.
func remapBits(b bitset, perm []int32) bitset {
	lo, hi := -1, -1
	b.forEach(func(id int) {
		p := int(perm[id])
		if lo < 0 || p < lo {
			lo = p
		}
		hi = max(hi, p)
	})
	if lo < 0 {
		return bitset{}
	}
	out := bitset{off: lo >> 6, words: make([]uint64, hi>>6-lo>>6+1)}
	b.forEach(func(id int) {
		p := int(perm[id])
		out.words[p>>6-out.off] |= 1 << (uint(p) & 63)
	})
	return out
}

// canonicalize renumbers s.res in place. Object and MCtx structs keep
// their addresses (solver maps keyed by pointer stay valid); only IDs,
// slice orders, the kept sets' bits and the callee lists' order change.
// s.rets stays indexed by pre-canonical context IDs, so nothing may
// consult it once the solve is over.
func (s *solver) canonicalize() {
	// Objects: sort, build the old→new permutation, then reassign.
	objs := s.res.objects
	sort.Slice(objs, func(i, j int) bool { return objLess(objs[i], objs[j]) })
	perm := make([]int32, len(objs))
	moved := false
	for newID, o := range objs {
		perm[o.ID] = int32(newID)
		moved = moved || o.ID != newID
	}
	for newID, o := range objs {
		o.ID = newID
	}

	// Rewrite the kept points-to sets through the permutation.
	if moved {
		for i, b := range s.res.sets {
			s.res.sets[i] = remapBits(b, perm)
		}
	}

	// Method-contexts: sort by (method position, canonical context ID).
	mIdx := make(map[*ir.Method]int, len(s.prog.Methods))
	for i, m := range s.prog.Methods {
		mIdx[m] = i
	}
	ctxKey := func(mc *MCtx) int {
		if mc.Ctx == nil {
			return -1
		}
		return mc.Ctx.ID
	}
	mcs := s.res.mctxs
	sort.Slice(mcs, func(i, j int) bool {
		mi, mj := mIdx[mcs[i].Method], mIdx[mcs[j].Method]
		if mi != mj {
			return mi < mj
		}
		return ctxKey(mcs[i]) < ctxKey(mcs[j])
	})
	for newID, mc := range mcs {
		mc.ID = newID
	}

	// mctxsOf lists contexts in res.mctxs order.
	s.res.mctxsOf = make(map[*ir.Method][]*MCtx, len(s.res.mctxsOf))
	for _, mc := range mcs {
		s.res.mctxsOf[mc.Method] = append(s.res.mctxsOf[mc.Method], mc)
	}

	// Order each callee list canonically. The per-site callee order is
	// load-bearing for SDG edge emission, so sorting here keeps the SDG
	// bytes a function of the program alone.
	for _, list := range s.res.callees {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	}
}

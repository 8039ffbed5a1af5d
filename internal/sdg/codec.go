package sdg

// Persistent encoding of a Graph (package artifact's "sdg" payload).
// Node numbering is fully determined by the program and the points-to
// result (methods × contexts, in MCtx ID order), so the payload stores
// only what Build computes on top of that scaffolding: each node's
// ordered dependence list and the per-context caller-node lists.
// DecodeGraph lays out the scaffolding with the builder's own helper and
// fills in the edges, so a decoded graph fingerprints identically to
// the one Build produced.

import (
	"fmt"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
)

// EncodeGraph returns the persistent payload for g. Truncated graphs
// are missing edges and are never cached, so encoding one is an error.
func EncodeGraph(g *Graph) ([]byte, error) {
	if g.Truncated || g.LimitErr != nil {
		return nil, fmt.Errorf("sdg: refusing to encode a truncated graph")
	}
	var w artifact.Writer
	w.Uvarint(uint64(len(g.nodeCtx)))
	for n := range g.nodeCtx {
		deps := g.Deps(Node(n))
		w.Uvarint(uint64(len(deps)))
		for _, d := range deps {
			w.Int64(int64(d.Src))
			w.Uvarint(uint64(d.Kind))
			w.Int64(int64(d.Via))
		}
	}
	// Caller-node lists in MCtx ID order; list order is load-bearing
	// (slicers and the fingerprint walk it as recorded).
	for _, mc := range g.mctxs {
		callers := g.callerNodes[mc]
		w.Uvarint(uint64(len(callers)))
		for _, c := range callers {
			w.Int64(int64(c))
		}
	}
	return w.Bytes(), nil
}

// DecodeGraph rebuilds a Graph from data against prog and pts (the
// artifacts the record was encoded over). Any structural fault in data
// is an error; decode never panics on corrupt input.
func DecodeGraph(data []byte, prog *ir.Program, pts *pointsto.Result) (g *Graph, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			g, err = nil, fmt.Errorf("sdg: decode: malformed payload: %v", rec)
		}
	}()
	g, _ = newGraph(prog, pts)
	total := len(g.nodeCtx)
	r := artifact.NewReader(data)
	if n := r.Uvarint(); r.Err() == nil && n != uint64(total) {
		return nil, fmt.Errorf("sdg: decode: record has %d nodes, program yields %d", n, total)
	}
	node := func() (Node, error) {
		v := r.Int64()
		if v < int64(NoNode) || v >= int64(total) {
			return NoNode, fmt.Errorf("sdg: decode: node %d out of range [-1, %d)", v, total)
		}
		return Node(v), nil
	}
	// Rows arrive in node order, so they go straight into the CSR arrays.
	// Every dependence takes at least three payload bytes and only fully
	// read ones are kept, which bounds the edge count by the input length.
	off := make([]int32, total+1)
	deps := make([]Dep, 0, len(data)/3)
	for i := 0; i < total; i++ {
		nDeps := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		for j := 0; j < nDeps; j++ {
			src, err := node()
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			kind := r.Uvarint()
			if kind > uint64(EdgeCallControl) {
				return nil, firstErr(r.Err(), fmt.Errorf("sdg: decode: unknown edge kind %d", kind))
			}
			via, err := node()
			if err := firstErr(r.Err(), err); err != nil {
				return nil, err // a dependence read past the end never lands
			}
			deps = append(deps, Dep{Src: src, Kind: EdgeKind(kind), Via: via})
		}
		off[i+1] = int32(len(deps))
	}
	for _, mc := range g.mctxs {
		nCallers := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		for j := 0; j < nCallers; j++ {
			c, err := node()
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			g.callerNodes[mc] = append(g.callerNodes[mc], c)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if cap(deps) > len(deps) {
		deps = append(make([]Dep, 0, len(deps)), deps...)
	}
	g.csrOff, g.csrDeps, g.numEdges = off, deps, len(deps)
	return g, nil
}

func firstErr(readerErr, resolveErr error) error {
	if readerErr != nil {
		return readerErr
	}
	return resolveErr
}

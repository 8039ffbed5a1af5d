package sdg

// Persistent encoding of a Graph (package artifact's "sdg" payload).
// Node numbering is fully determined by the program and the points-to
// result (methods × contexts, in MCtx ID order), so the payload stores
// only what Build computes on top of that scaffolding, in the graph's
// factored form: the per-context caller lists, each shared heap list
// once, and per node its list reference, its entry flag and its own
// edges. DecodeGraph lays out the scaffolding with the builder's own
// helper and fills in the rest, so a decoded graph fingerprints
// identically to the one Build produced.
//
// Layout (codec version 4; every integer a minimal varint, "zigzag"
// marking the signed ones):
//
//	nodes                  node count, checked against the scaffolding
//	own                    own-edge count
//	callers                caller count, summed over the contexts
//	lists                  heap-list count
//	listed                 source count, summed over the heap lists
//	per context, in MCtx ID order:
//	    callers            caller-node count, then each node (zigzag)
//	per heap list, in order of first reference:
//	    length             at least 1
//	    src                zigzag delta from the previous source, or
//	                       from 0 for the first
//	per node, in order:
//	    ref<<1 | entry     ref 0 for no heap list, k+1 for list k; entry
//	                       set when the node depends on its context's
//	                       callers, which must then be non-empty
//	    count              own-edge count, then per own edge
//	        src            zigzag delta from the previous edge's
//	                       source, or from the node itself for the first
//	        kind<<1 | hasVia   one varint for the kind and a has-via bit
//	        via            zigzag delta from src, present iff hasVia
//
// Own rows hold no heap or call-control edge, and no control edge is
// followed by another kind. Sources cluster around the node that
// depends on them (most own edges stay inside one method context), and
// only param edges carry a Via, so a typical own edge takes two bytes.
// javac@5's 1,225,042 logical edges take 19,252 own edges and 2,493
// shared heap sources, 84 KB where version 3 spent 2.5 MB.

import (
	"encoding/binary"
	"fmt"
	"math"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
)

// minEdgeBytes is the fewest payload bytes one own edge can take: a
// source delta and a kind.
const minEdgeBytes = 2

// EncodeGraph returns the persistent payload for g. Truncated graphs
// are missing edges and are never cached, so encoding one is an error.
func EncodeGraph(g *Graph) ([]byte, error) {
	if g.Truncated || g.LimitErr != nil {
		return nil, fmt.Errorf("sdg: refusing to encode a truncated graph")
	}
	numCtx := len(g.mctxs)
	// Number the heap lists in order of first reference.
	order := make([]int32, len(g.lists)-numCtx)
	for i := range order {
		order[i] = -1
	}
	var seq []int32
	listed := 0
	for _, ref := range g.refs {
		if ref.heap >= 0 && order[ref.heap-int32(numCtx)] < 0 {
			order[ref.heap-int32(numCtx)] = int32(len(seq))
			seq = append(seq, ref.heap)
			listed += int(g.lists[ref.heap].n)
		}
	}
	callers := 0
	for _, l := range g.lists[:numCtx] {
		callers += int(l.n)
	}
	var w artifact.Writer
	w.Uvarint(uint64(len(g.nodeCtx)))
	w.Uvarint(uint64(len(g.own)))
	w.Uvarint(uint64(callers))
	w.Uvarint(uint64(len(seq)))
	w.Uvarint(uint64(listed))
	// Caller-node lists in MCtx ID order; list order is load-bearing
	// (slicers and the fingerprint walk it as recorded).
	for i := range numCtx {
		list := g.list(int32(i))
		w.Uvarint(uint64(len(list)))
		for _, c := range list {
			w.Int64(int64(c))
		}
	}
	for _, i := range seq {
		list := g.list(i)
		w.Uvarint(uint64(len(list)))
		prev := int64(0)
		for _, src := range list {
			w.Int64(int64(src) - prev)
			prev = int64(src)
		}
	}
	for n, ref := range g.refs {
		rv := uint64(0)
		if ref.heap >= 0 {
			rv = uint64(order[ref.heap-int32(numCtx)]+1) << 1
		}
		if ref.calls >= 0 {
			rv |= 1
		}
		w.Uvarint(rv)
		own := g.own[g.ownOff[2*n]:g.ownOff[2*n+2]]
		w.Uvarint(uint64(len(own)))
		prev := int64(n)
		for _, d := range own {
			w.Int64(int64(d.Src) - prev)
			if d.Via == NoNode {
				w.Uvarint(uint64(d.Kind) << 1)
			} else {
				w.Uvarint(uint64(d.Kind)<<1 | 1)
				w.Int64(int64(d.Via) - int64(d.Src))
			}
			prev = int64(d.Src)
		}
	}
	return w.Bytes(), nil
}

// DecodeGraph rebuilds a Graph from data against prog and pts (the
// artifacts the record was encoded over). Any structural fault in data
// is an error; decode never panics on corrupt input. It accepts only
// the bytes EncodeGraph writes: a payload it accepts re-encodes to
// itself.
func DecodeGraph(data []byte, prog *ir.Program, pts *pointsto.Result) (g *Graph, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			g, err = nil, fmt.Errorf("sdg: decode: malformed payload: %v", rec)
		}
	}()
	c := cursor{data: data}
	nodes, own, callers, lists, listed := c.uvarint(), c.uvarint(), c.uvarint(), c.uvarint(), c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	// The arrays are allocated once, at the declared sizes, so the
	// declared sizes must first be ones the remaining bytes can hold: an
	// own edge takes at least two bytes, and a caller, a list's length
	// and a listed source at least one each.
	left := uint64(c.left())
	if own > left/minEdgeBytes || callers > left || lists > left || listed > left ||
		minEdgeBytes*own+callers+lists+listed > min(left, math.MaxInt32) {
		return nil, &countsError{own, callers, lists, listed, left}
	}
	g = newGraph(prog, pts, nil)
	total, numCtx := len(g.nodeCtx), len(g.mctxs)
	if nodes != uint64(total) {
		return nil, fmt.Errorf("sdg: decode: record has %d nodes, program yields %d", nodes, total)
	}
	g.srcs = make([]Node, callers+listed)
	g.lists = make([]span, numCtx+int(lists))
	at := 0
	node := func(v int64) (Node, error) {
		if v < 0 || v >= int64(total) {
			return NoNode, fmt.Errorf("sdg: decode: node %d out of range [0, %d)", v, total)
		}
		return Node(v), nil
	}
	for i := range numCtx {
		k := c.uvarint()
		if k > callers-uint64(at) {
			return nil, fmt.Errorf("sdg: decode: context %d's %d callers overrun the %d declared", i, k, callers)
		}
		g.lists[i] = span{int32(at), int32(k)}
		for end := at + int(k); at < end; at++ {
			if g.srcs[at], err = node(c.varint()); err != nil {
				return nil, err
			}
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if at != int(callers) {
		return nil, fmt.Errorf("sdg: decode: %d callers declared, contexts hold %d", callers, at)
	}
	for i := range int(lists) {
		k := c.uvarint()
		if k == 0 || k > uint64(len(g.srcs)-at) {
			return nil, fmt.Errorf("sdg: decode: heap list %d has %d sources, %d declared sources left", i, k, len(g.srcs)-at)
		}
		g.lists[numCtx+i] = span{int32(at), int32(k)}
		prev := int64(0)
		for end := at + int(k); at < end; at++ {
			if g.srcs[at], err = node(prev + c.varint()); err != nil {
				return nil, err
			}
			prev = int64(g.srcs[at])
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if at != len(g.srcs) {
		return nil, fmt.Errorf("sdg: decode: %d listed sources declared, lists hold %d", listed, at-int(callers))
	}
	g.refs = make([]refs, total)
	g.ownOff = make([]int32, 2*total+1)
	g.own = make([]Dep, own)
	deps := g.own
	e, shared, next := 0, 0, uint64(0)
	for n := 0; n < total; n++ {
		rv := c.uvarint()
		ref := refs{-1, -1}
		if k := rv >> 1; k > 0 {
			// Lists are numbered by first reference: a row names one
			// already referenced or the next one.
			if k-1 > next || k-1 >= lists {
				return nil, fmt.Errorf("sdg: decode: node %d names heap list %d, next unreferenced is %d of %d", n, k-1, next, lists)
			}
			if k-1 == next {
				next++
			}
			ref.heap = int32(numCtx) + int32(k-1)
			shared += int(g.lists[ref.heap].n)
		}
		if rv&1 != 0 {
			ctx := g.nodeCtx[n]
			if g.lists[ctx].n == 0 {
				return nil, fmt.Errorf("sdg: decode: node %d depends on the callers of context %d, which has none", n, ctx)
			}
			ref.calls = ctx
			shared += int(g.lists[ctx].n)
		}
		g.refs[n] = ref
		count := c.uvarint()
		if count > uint64(len(deps)-e) {
			return nil, fmt.Errorf("sdg: decode: node %d's %d own edges overrun the %d declared", n, count, own)
		}
		g.ownOff[2*n] = int32(e)
		ctrl := -1
		prev := int64(n)
		for end := e + int(count); e < end; e++ {
			// The common dependence is two one-byte varints, read here
			// without a call.
			var zsrc, kv uint64
			if i := c.off; i+1 < len(data) && data[i]|data[i+1] < 0x80 {
				zsrc, kv = uint64(data[i]), uint64(data[i+1])
				c.off = i + 2
			} else if zsrc, kv = c.uvarint(), c.uvarint(); c.err != nil {
				return nil, c.err
			}
			src, err := node(prev + unzigzag(zsrc))
			if err != nil {
				return nil, err
			}
			// The kind is range-checked before it is narrowed: 2^32+2
			// would otherwise read as EdgeHeap.
			switch kind := kv >> 1; {
			case kind > uint64(EdgeCallControl):
				return nil, fmt.Errorf("sdg: decode: unknown edge kind %d", kind)
			case EdgeKind(kind) == EdgeHeap || EdgeKind(kind) == EdgeCallControl:
				return nil, fmt.Errorf("sdg: decode: node %d has a %s edge in its own row", n, EdgeKind(kind))
			case EdgeKind(kind) == EdgeControl:
				if ctrl < 0 {
					ctrl = e
				}
			case ctrl >= 0:
				return nil, fmt.Errorf("sdg: decode: node %d has a %s edge after a control edge", n, EdgeKind(kind))
			}
			via := NoNode
			if kv&1 != 0 {
				if via, err = node(int64(src) + c.varint()); err != nil {
					return nil, err
				}
				if c.err != nil {
					return nil, c.err
				}
			}
			deps[e] = Dep{Src: src, Kind: EdgeKind(kv >> 1), Via: via}
			prev = int64(src)
		}
		if ctrl < 0 {
			ctrl = e
		}
		g.ownOff[2*n+1], g.ownOff[2*n+2] = int32(ctrl), int32(e)
	}
	if c.err != nil {
		return nil, c.err
	}
	if e != len(deps) {
		return nil, fmt.Errorf("sdg: decode: %d own edges declared, rows hold %d", own, e)
	}
	if next != lists {
		return nil, fmt.Errorf("sdg: decode: %d heap lists declared, rows reference %d", lists, next)
	}
	if c.left() != 0 {
		return nil, fmt.Errorf("sdg: decode: %d trailing byte(s) after payload", c.left())
	}
	g.numEdges = e + shared
	return g, nil
}

// countsError rejects a header whose counts the bytes after it cannot
// hold. It formats only when read, so rejecting a hostile header costs
// one allocation however large its counts.
type countsError struct{ own, callers, lists, listed, left uint64 }

func (e *countsError) Error() string {
	return fmt.Sprintf("sdg: decode: %d own edges, %d callers, %d lists of %d sources declared, %d bytes left",
		e.own, e.callers, e.lists, e.listed, e.left)
}

// cursor reads DecodeGraph's payload. uvarint returns a one-byte varint
// directly and leaves longer ones to uvarintSlow, which, like
// artifact.Reader, rejects a varint padded with a zero last byte. Its
// error is sticky: after the first fault every read returns 0.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) left() int { return len(c.data) - c.off }

func (c *cursor) uvarint() uint64 {
	if i := c.off; i < len(c.data) && c.data[i] < 0x80 {
		c.off = i + 1
		return uint64(c.data[i])
	}
	return c.uvarintSlow()
}

func (c *cursor) uvarintSlow() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 || n > 1 && c.data[c.off+n-1] == 0 {
		c.err = fmt.Errorf("sdg: decode: malformed varint at offset %d", c.off)
		c.off = len(c.data)
		return 0
	}
	c.off += n
	return x
}

// varint reads a zigzag varint, which is a uvarint of the zigzag value.
func (c *cursor) varint() int64 { return unzigzag(c.uvarint()) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

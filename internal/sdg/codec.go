package sdg

// Persistent encoding of a Graph (package artifact's "sdg" payload).
// Node numbering is fully determined by the program and the points-to
// result (methods × contexts, in MCtx ID order), so the payload stores
// only what Build computes on top of that scaffolding: each node's
// ordered dependence list and the per-context caller-node lists.
// DecodeGraph lays out the scaffolding with the builder's own helper and
// fills in the edges, so a decoded graph fingerprints identically to
// the one Build produced.
//
// Layout (codec version 3; every integer a minimal varint, "zigzag"
// marking the signed ones):
//
//	nodes                  node count, checked against the scaffolding
//	edges                  edge count, at most half the bytes left
//	per node, in order:    dependence count, then per dependence
//	    src                zigzag delta from the previous dependence's
//	                       source, or from the node itself for the first
//	    kind<<1 | hasVia   one varint for the kind and a has-via bit
//	    via                zigzag delta from src, present iff hasVia
//	per context, in MCtx ID order:
//	    callers            caller-node count, then each node (zigzag)
//
// Sources cluster around the node that depends on them (most edges stay
// inside one method context), and only param edges carry a Via, so a
// typical dependence takes two bytes: 97.7% of javac@5's 1,225,042 do.

import (
	"encoding/binary"
	"fmt"
	"math"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
)

// minEdgeBytes is the fewest payload bytes one dependence can take: a
// source delta and a kind.
const minEdgeBytes = 2

// EncodeGraph returns the persistent payload for g. Truncated graphs
// are missing edges and are never cached, so encoding one is an error.
func EncodeGraph(g *Graph) ([]byte, error) {
	if g.Truncated || g.LimitErr != nil {
		return nil, fmt.Errorf("sdg: refusing to encode a truncated graph")
	}
	var w artifact.Writer
	w.Uvarint(uint64(len(g.nodeCtx)))
	w.Uvarint(uint64(len(g.csrDeps)))
	for n := range g.nodeCtx {
		deps := g.Deps(Node(n))
		w.Uvarint(uint64(len(deps)))
		prev := int64(n)
		for _, d := range deps {
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
	nodes, edges := c.uvarint(), c.uvarint()
	if c.err != nil {
		return nil, c.err
	}
	// The edge array is allocated once, at the declared size, so the
	// declared size must first be one the remaining bytes can hold.
	if edges > uint64(c.left()/minEdgeBytes) || edges > math.MaxInt32 {
		return nil, fmt.Errorf("sdg: decode: %d edges declared, %d bytes left", edges, c.left())
	}
	g, _ = newGraph(prog, pts)
	total := len(g.nodeCtx)
	if nodes != uint64(total) {
		return nil, fmt.Errorf("sdg: decode: record has %d nodes, program yields %d", nodes, total)
	}
	off := make([]int32, total+1)
	deps := make([]Dep, edges)
	e := 0
	for n := 0; n < total; n++ {
		count := c.uvarint()
		if count > uint64(len(deps)-e) {
			return nil, fmt.Errorf("sdg: decode: node %d's %d dependences overrun the %d edges declared", n, count, edges)
		}
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
			src := prev + unzigzag(zsrc)
			if src < 0 || src >= int64(total) {
				return nil, fmt.Errorf("sdg: decode: node %d out of range [0, %d)", src, total)
			}
			// The kind is range-checked before it is narrowed: 2^32+2
			// would otherwise read as EdgeHeap.
			if kv>>1 > uint64(EdgeCallControl) {
				return nil, fmt.Errorf("sdg: decode: unknown edge kind %d", kv>>1)
			}
			via := NoNode
			if kv&1 != 0 {
				v := src + c.varint()
				if c.err != nil {
					return nil, c.err
				}
				if v < 0 || v >= int64(total) {
					return nil, fmt.Errorf("sdg: decode: via node %d out of range [0, %d)", v, total)
				}
				via = Node(v)
			}
			deps[e] = Dep{Src: Node(src), Kind: EdgeKind(kv >> 1), Via: via}
			prev = src
		}
		off[n+1] = int32(e)
	}
	if c.err != nil {
		return nil, c.err
	}
	if e != len(deps) {
		return nil, fmt.Errorf("sdg: decode: %d edges declared, rows hold %d", edges, e)
	}
	for _, mc := range g.mctxs {
		count := c.uvarint()
		if count > uint64(c.left()) {
			return nil, fmt.Errorf("sdg: decode: %d callers, %d bytes left", count, c.left())
		}
		if count == 0 {
			continue
		}
		callers := make([]Node, count)
		for j := range callers {
			v := c.varint()
			if c.err != nil {
				return nil, c.err
			}
			if v < 0 || v >= int64(total) {
				return nil, fmt.Errorf("sdg: decode: caller node %d out of range [0, %d)", v, total)
			}
			callers[j] = Node(v)
		}
		g.callerNodes[mc] = callers
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.left() != 0 {
		return nil, fmt.Errorf("sdg: decode: %d trailing byte(s) after payload", c.left())
	}
	g.csrOff, g.csrDeps, g.numEdges = off, deps, len(deps)
	return g, nil
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

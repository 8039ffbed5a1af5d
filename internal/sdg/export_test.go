package sdg

// CorruptForTest applies one named structural corruption to a
// finalized graph, for the VerifyGraph oracle test. Returns false for
// an unknown name or a graph too small to corrupt that way.
func CorruptForTest(g *Graph, name string) bool {
	switch name {
	case "offset-nonmonotone":
		if len(g.ownOff) < 2 {
			return false
		}
		g.ownOff[len(g.ownOff)-1] = g.ownOff[len(g.ownOff)-2] - 1
		return true
	case "dep-out-of-bounds":
		if len(g.own) == 0 {
			return false
		}
		g.own[0].Src = Node(g.NumNodes())
		return true
	case "shared-out-of-bounds":
		if len(g.srcs) == 0 {
			return false
		}
		g.srcs[len(g.srcs)-1] = Node(g.NumNodes())
		return true
	case "via-on-local":
		for i := range g.own {
			if g.own[i].Kind == EdgeLocal {
				g.own[i].Via = 0
				return true
			}
		}
		return false
	case "control-in-scan":
		for n := range g.refs {
			if s, c := g.ownOff[2*n+1], g.ownOff[2*n+2]; c > s {
				g.ownOff[2*n+1] = c // the control edges join the scan segment
				return true
			}
		}
		return false
	case "calls-of-other-context":
		for n, ref := range g.refs {
			if ref.calls >= 0 {
				for c := range g.mctxs {
					if int32(c) != ref.calls && g.lists[c].n > 0 {
						g.refs[n].calls = int32(c)
						return true
					}
				}
			}
		}
		return false
	case "context-dropped":
		if len(g.nodeCtx) == 0 {
			return false
		}
		g.nodeCtx[len(g.nodeCtx)-1] = -1
		return true
	}
	return false
}

package sdg

// CorruptForTest applies one named structural corruption to a
// finalized graph, for the VerifyGraph oracle test. Returns false for
// an unknown name or a graph too small to corrupt that way.
func CorruptForTest(g *Graph, name string) bool {
	switch name {
	case "offset-nonmonotone":
		if len(g.csrOff) < 2 {
			return false
		}
		g.csrOff[len(g.csrOff)-1] = g.csrOff[len(g.csrOff)-2] - 1
		return true
	case "dep-out-of-bounds":
		if len(g.csrDeps) == 0 {
			return false
		}
		g.csrDeps[0].Src = Node(g.NumNodes())
		return true
	case "via-on-local":
		for i := range g.csrDeps {
			if g.csrDeps[i].Kind == EdgeLocal {
				g.csrDeps[i].Via = 0
				return true
			}
		}
		return false
	case "context-dropped":
		if len(g.nodeCtx) == 0 {
			return false
		}
		g.nodeCtx[len(g.nodeCtx)-1] = nil
		return true
	}
	return false
}

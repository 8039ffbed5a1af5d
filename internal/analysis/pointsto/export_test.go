package pointsto

// SetSweepEveryForTest forces an SCC sweep after every n new copy
// edges (bypassing the proportional production threshold), so small
// test programs exercise the collapse path. Returns a restore func.
func SetSweepEveryForTest(n int) (restore func()) {
	old := sweepEveryOverride
	sweepEveryOverride = n
	return func() { sweepEveryOverride = old }
}

// SetWordsForTest returns the number of 64-bit words held by r's
// variable points-to sets, counting each node once.
func SetWordsForTest(r *Result) int {
	seen := make(map[*node]bool, len(r.varNodes))
	words := 0
	for _, n := range r.varNodes { //determinism:ok summed, order-free
		if !seen[n] {
			seen[n] = true
			words += len(n.pts.words)
		}
	}
	return words
}

// CorruptObjectForTest breaks the first object of r that has a heap
// context: "depth" adds one to its depth, "cycle" makes it its own
// context. It reports false when r has no such object.
func CorruptObjectForTest(r *Result, how string) bool {
	for _, o := range r.objects {
		if o.Ctx == nil {
			continue
		}
		switch how {
		case "depth":
			o.depth++
		case "cycle":
			o.Ctx = o
		default:
			return false
		}
		return true
	}
	return false
}

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
// variable points-to sets, counting each set once.
func SetWordsForTest(r *Result) int {
	words := 0
	for _, b := range r.sets {
		words += len(b.words)
	}
	return words
}

// ExtraVarsForTest returns the number of points-to sets r holds for
// registers without a definition in their method's body.
func ExtraVarsForTest(r *Result) int {
	n := 0
	for _, list := range r.extra { //determinism:ok summed, order-free
		n += len(list)
	}
	return n
}

// ErrRecoveredForTest marks a DecodeResult error that a recovered panic
// produced rather than a check.
var ErrRecoveredForTest = errRecovered

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

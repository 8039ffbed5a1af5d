package pointsto

import "math/bits"

// bitset is an offset bitset over object IDs: words[i] holds the IDs
// 64*(off+i) through 64*(off+i)+63, so a set stores only the words from
// its lowest to its highest set word. The zero value is the empty set.
//
// Every operation that adds bits keeps a set trimmed: a non-empty set's
// first and last words are non-zero. An untrimmed set still answers
// every query correctly; it only misses the SDG's single-word fast path
// (Set.OneWord).
type bitset struct {
	off   int
	words []uint64
}

// end returns the word index one past the set's last word.
func (b bitset) end() int { return b.off + len(b.words) }

// widen makes b cover the words [lo, hi), keeping its bits. Growing at
// the back reuses spare capacity; growing at the front reallocates once
// for the whole new span.
func (b *bitset) widen(lo, hi int) {
	if len(b.words) == 0 {
		b.off, b.words = lo, make([]uint64, hi-lo)
		return
	}
	if lo < b.off {
		w := make([]uint64, b.end()-lo, max(hi, b.end())-lo)
		copy(w[b.off-lo:], b.words)
		b.off, b.words = lo, w
	}
	if n := hi - b.off; n > len(b.words) {
		b.words = append(b.words, make([]uint64, n-len(b.words))...)
	}
}

func (b *bitset) add(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	switch {
	case len(b.words) == 0:
		b.off, b.words = w, []uint64{m}
		return true
	case w < b.off || w >= b.end():
		b.widen(min(w, b.off), max(w+1, b.end()))
	}
	x := &b.words[w-b.off]
	if *x&m != 0 {
		return false
	}
	*x |= m
	return true
}

func (b bitset) has(i int) bool {
	w := i>>6 - b.off
	return w >= 0 && w < len(b.words) && b.words[w]&(1<<(uint(i)&63)) != 0
}

// or merges src into b without tracking the difference. b never
// aliases src's words.
func (b *bitset) or(src bitset) {
	if len(src.words) == 0 {
		return
	}
	b.widen(src.off, src.end())
	dst := b.words[src.off-b.off:]
	for i, x := range src.words {
		dst[i] |= x
	}
}

// orDiff ors src into b and returns the newly-set bits as a trimmed
// set. The result aliases s.diffScratch and is valid only until the
// next call: callers copy it into a frontier with or and never keep it
// as a set of their own.
func (s *solver) orDiff(b *bitset, src bitset) bitset {
	if len(src.words) == 0 {
		return bitset{}
	}
	// b stays trimmed: where src's span reaches past b's, src's end
	// words are non-zero and their bits are new in b.
	b.widen(src.off, src.end())
	if cap(s.diffScratch.words) < len(src.words) {
		s.diffScratch.words = make([]uint64, len(src.words)+4)
	}
	diff := s.diffScratch.words[:len(src.words)]
	dst := b.words[src.off-b.off:]
	first, last := -1, -1
	for i, v := range src.words {
		d := v &^ dst[i]
		diff[i] = d
		if d != 0 {
			dst[i] |= d
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return bitset{}
	}
	return bitset{off: src.off + first, words: diff[first : last+1]}
}

// intersects reports whether b and o share a bit, touching only the
// words both spans cover.
func (b bitset) intersects(o bitset) bool {
	lo, hi := max(b.off, o.off), min(b.end(), o.end())
	for w := lo; w < hi; w++ {
		if b.words[w-b.off]&o.words[w-o.off] != 0 {
			return true
		}
	}
	return false
}

func (b bitset) forEach(f func(int)) {
	for i, word := range b.words {
		base := (b.off + i) * 64
		for word != 0 {
			f(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Set is a read-only view of one points-to set as the solver holds it.
// It aliases a Result that concurrent readers share, so nothing may
// write through it.
type Set struct{ b bitset }

// Intersects reports whether s and t share an object.
func (s Set) Intersects(t Set) bool { return s.b.intersects(t.b) }

// ForEach calls f with every object ID in s, in ascending order.
func (s Set) ForEach(f func(id int)) { s.b.forEach(f) }

// OneWord reports whether s lies within one 64-ID word and, if so,
// returns that word's index and bits. Two such sets with equal index
// and bits are equal, so callers can key caches on the pair.
func (s Set) OneWord() (idx int, w uint64, ok bool) {
	if len(s.b.words) != 1 {
		return 0, 0, false
	}
	return s.b.off, s.b.words[0], true
}

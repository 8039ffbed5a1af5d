package pointsto

// White-box property tests for the solver's bitset, the core data
// structure the points-to propagation relies on, checked against a
// map-based reference implementation with testing/quick.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// model mirrors a bitset as a set of ints.
type model map[int]bool

// idSpace spans 64 words, so offset sets start far from word 0.
const idSpace = 4096

// sample maps quick's raw values to object IDs in random order: even
// values cluster within two words above base, odd ones spread over the
// whole ID space, so sets grow at the front and at the back.
func sample(base uint16, raw []uint16) []int {
	out := make([]int, len(raw))
	for i, r := range raw {
		if r&1 == 0 {
			out[i] = (int(base) + int(r>>1)%128) % idSpace
		} else {
			out[i] = int(r>>1) % idSpace
		}
	}
	return out
}

// build adds ids to a fresh bitset and model, checking after every add
// that the set stays trimmed.
func build(t *testing.T, ids []int) (bitset, model) {
	var b bitset
	m := model{}
	for _, i := range ids {
		b.add(i)
		m[i] = true
		if !trimmed(b) {
			t.Fatalf("add(%d) left an untrimmed set: off %d, %d words", i, b.off, len(b.words))
		}
	}
	return b, m
}

// trimmed reports the invariant every set the solver builds keeps: a
// non-empty set's first and last words are non-zero.
func trimmed(b bitset) bool {
	return len(b.words) == 0 || b.words[0] != 0 && b.words[len(b.words)-1] != 0
}

// matches reports whether b holds exactly the IDs of m.
func matches(b bitset, m model) bool {
	for i := 0; i < idSpace; i++ {
		if b.has(i) != m[i] {
			return false
		}
	}
	n := 0
	b.forEach(func(int) { n++ })
	return n == len(m)
}

func TestBitsetAddHasAgainstModel(t *testing.T) {
	f := func(base uint16, raw []uint16) bool {
		var b bitset
		m := model{}
		for _, i := range sample(base, raw) {
			fresh := b.add(i)
			if fresh == m[i] || !trimmed(b) {
				// add must report true exactly when the bit was absent.
				return false
			}
			m[i] = true
		}
		return matches(b, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetOrDiffAgainstModel(t *testing.T) {
	f := func(baseA, baseB uint16, rawA, rawB []uint16) bool {
		a, ma := build(t, sample(baseA, rawA))
		b, mb := build(t, sample(baseB, rawB))
		var sv solver
		diff := sv.orDiff(&a, b)
		if !trimmed(a) || !trimmed(diff) {
			return false
		}
		// a must now be the union, and diff exactly b \ old-a.
		union, wantDiff := model{}, model{}
		for i := range ma {
			union[i] = true
		}
		for i := range mb {
			union[i] = true
			if !ma[i] {
				wantDiff[i] = true
			}
		}
		return matches(a, union) && matches(diff, wantDiff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetOrAgainstModel(t *testing.T) {
	f := func(baseA, baseB uint16, rawA, rawB []uint16) bool {
		a, ma := build(t, sample(baseA, rawA))
		b, mb := build(t, sample(baseB, rawB))
		a.or(b)
		for i := range mb {
			ma[i] = true
		}
		return trimmed(a) && matches(a, ma)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetIntersectsAgainstModel(t *testing.T) {
	f := func(baseA, baseB uint16, rawA, rawB []uint16) bool {
		a, ma := build(t, sample(baseA, rawA))
		b, mb := build(t, sample(baseB, rawB))
		want := false
		for i := range ma {
			want = want || mb[i]
		}
		return a.intersects(b) == want && b.intersects(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetForEachVisitsExactlySetBits(t *testing.T) {
	f := func(base uint16, raw []uint16) bool {
		b, m := build(t, sample(base, raw))
		seen := model{}
		last := -1
		ok := true
		b.forEach(func(i int) {
			// Ascending order is what the codec and the SDG rely on.
			ok = ok && i > last && m[i]
			last = i
			seen[i] = true
		})
		return ok && len(seen) == len(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapBitsAgainstModel(t *testing.T) {
	f := func(seed int64, base uint16, raw []uint16) bool {
		b, m := build(t, sample(base, raw))
		perm := make([]int32, idSpace)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(idSpace) {
			perm[i] = int32(p)
		}
		out := remapBits(b, perm)
		want := model{}
		for i := range m {
			want[int(perm[i])] = true
		}
		return trimmed(out) && matches(out, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetEmpty(t *testing.T) {
	var b bitset
	if !b.empty() {
		t.Error("zero bitset must be empty")
	}
	b.add(100)
	if b.empty() {
		t.Error("bitset with a bit must not be empty")
	}
	var c bitset
	c.words = append(c.words, 0, 0, 0) // explicit zero words
	if !c.empty() {
		t.Error("zero-word bitset must be empty")
	}
}

package session

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime/debug"
	"sync"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/csslice"
	"thinslice/internal/dataflow"
	"thinslice/internal/depgraph"
	"thinslice/internal/ir"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
)

// Key is a content hash identifying one artifact: the hash of the
// artifact's inputs (source bytes, upstream artifact keys, and the
// configuration that shaped it). Equal keys mean equal artifacts.
type Key string

// hashParts derives a Key from length-prefixed parts, so no two
// distinct part lists collide by concatenation.
func hashParts(parts ...string) Key {
	h := sha256.New()
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write([]byte(p))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// StoreLimits bounds a store for long-running processes. Zero fields
// mean unlimited. MaxCost is an approximate byte budget: each cached
// artifact is charged an estimated in-memory size (see estimateCost),
// so the cap tracks real memory pressure rather than entry counts
// alone.
type StoreLimits struct {
	MaxEntries int
	MaxCost    int64
}

// StoreStats is a snapshot of a store's cache behaviour, for
// observability endpoints and the eviction tests.
type StoreStats struct {
	Entries     int   // cached (completed) artifacts
	Cost        int64 // estimated bytes held by cached artifacts
	Hits        int64
	Misses      int64
	Evictions   int64
	CostEvicted int64 // cumulative estimated bytes evicted
}

// Store is a content-addressed artifact cache shared by any number of
// sessions. Artifacts are immutable once built (ASTs, typed programs,
// IR, points-to results, dependence graphs), so sharing them across
// sessions is safe; a build is single-flighted per key so concurrent
// sessions asking for the same artifact build it once.
//
// Failed builds and incomplete artifacts (budget-truncated results)
// are never retained: a later caller with a healthier budget gets a
// fresh build rather than a poisoned cache entry. A builder that
// panics is recovered here: the panic becomes a typed
// *budget.ErrInternal delivered to the claiming caller and to every
// goroutine already waiting on the key, and the in-flight slot is
// cleared so a later caller rebuilds from scratch.
//
// A store built with NewBoundedStore additionally evicts
// least-recently-used artifacts once its entry or cost cap is
// exceeded, keeping hot programs warm while a long-running process
// stays within a fixed memory budget.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*storeEntry
	lru     *list.List // completed cached entries; front = most recent
	cost    int64
	limits  StoreLimits
	stats   StoreStats
	phases  Stats // phase builds aggregated over every session in the store
}

// PhaseStats returns the pipeline-phase build counters aggregated over
// every session backed by this store — the serving layer's view of how
// much real analysis work the process has done (cache hits don't
// count; see Session.Stats for the per-session split).
func (st *Store) PhaseStats() Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.phases
}

// countPhase applies one session's counter bump to the aggregate.
func (st *Store) countPhase(f func(*Stats)) {
	st.mu.Lock()
	f(&st.phases)
	st.mu.Unlock()
}

type storeEntry struct {
	key  Key
	done chan struct{}
	val  any
	ok   bool // false: errored, uncacheable, or panicked — rebuild
	// panicErr, when non-nil, is the typed error a panicking builder
	// left behind; waiters receive it instead of rebuilding.
	panicErr error
	cost     int64
	elem     *list.Element // lru position; nil while in flight or evicted
}

// NewStore returns an empty, unbounded artifact store.
func NewStore() *Store {
	return NewBoundedStore(StoreLimits{})
}

// NewBoundedStore returns an empty store enforcing the given caps with
// LRU eviction.
func NewBoundedStore(l StoreLimits) *Store {
	return &Store{entries: make(map[Key]*storeEntry), lru: list.New(), limits: l}
}

// Len returns the number of cached artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats returns a snapshot of the store's cache counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Cost = s.cost
	return st
}

// Limits returns the caps the store enforces (zero fields unlimited).
func (s *Store) Limits() StoreLimits { return s.limits }

// get returns the artifact for k, building it with build on a miss.
// build reports via its second result whether the artifact may be
// cached (complete artifacts only); errors are never cached. If build
// panics, the panic is recovered into a *budget.ErrInternal tagged p
// (the phase requesting the artifact), returned to the caller and to
// every waiter of the same key, and the slot is vacated so later
// callers rebuild.
func (s *Store) get(k Key, p budget.Phase, build func() (any, bool, error)) (any, error) {
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok {
			if e.elem != nil {
				s.lru.MoveToFront(e.elem)
			}
			s.stats.Hits++
			s.mu.Unlock()
			<-e.done
			if e.ok {
				return e.val, nil
			}
			if e.panicErr != nil {
				// The winning builder panicked; don't re-run a build
				// that just proved itself broken — surface its typed
				// error. The slot is already vacated, so a *later*
				// call (e.g. after a fix) rebuilds.
				return nil, e.panicErr
			}
			// The winning builder failed or produced an uncacheable
			// artifact; loop to claim the (now vacated) slot ourselves.
			continue
		}
		s.stats.Misses++
		e := &storeEntry{key: k, done: make(chan struct{})}
		s.entries[k] = e
		s.mu.Unlock()
		return s.runBuild(e, p, build)
	}
}

// runBuild executes build for the in-flight entry e, handling the
// three outcomes: success (cache + evict over cap), failure or
// uncacheable (vacate, waiters rebuild), and panic (vacate, waiters
// and caller get the same typed error).
func (s *Store) runBuild(e *storeEntry, p budget.Phase, build func() (any, bool, error)) (val any, err error) {
	completed := false
	defer func() {
		if completed {
			return
		}
		// build panicked: convert, vacate the slot, release waiters.
		e.panicErr = &budget.ErrInternal{Phase: p, Value: recover(), Stack: debug.Stack()}
		s.mu.Lock()
		delete(s.entries, e.key)
		s.mu.Unlock()
		close(e.done)
		val, err = nil, e.panicErr
	}()
	val, cacheable, err := build()
	completed = true
	if err != nil || !cacheable {
		s.mu.Lock()
		delete(s.entries, e.key)
		s.mu.Unlock()
		close(e.done)
		return val, err
	}
	e.val, e.ok, e.cost = val, true, estimateCost(val)
	s.mu.Lock()
	e.elem = s.lru.PushFront(e)
	s.cost += e.cost
	s.evictOverCap()
	s.mu.Unlock()
	close(e.done)
	return val, nil
}

// evictOverCap drops least-recently-used cached artifacts until both
// caps hold. Called with s.mu held. In-flight builds are never on the
// lru list and so are never evicted; goroutines that already hold a
// pointer to an evicted artifact keep using it (artifacts are
// immutable), the store just stops retaining it.
func (s *Store) evictOverCap() {
	over := func() bool {
		return (s.limits.MaxEntries > 0 && s.lru.Len() > s.limits.MaxEntries) ||
			(s.limits.MaxCost > 0 && s.cost > s.limits.MaxCost)
	}
	for over() {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*storeEntry)
		s.lru.Remove(back)
		e.elem = nil
		delete(s.entries, e.key)
		s.cost -= e.cost
		s.stats.Evictions++
		s.stats.CostEvicted += e.cost
	}
}

// estimateCost approximates an artifact's resident size in bytes from
// cheap exported counts. The estimates are deliberately coarse — the
// cost cap bounds growth and ranks artifacts against each other; it is
// not an allocator audit.
func estimateCost(v any) int64 {
	const (
		perClass = 1 << 10
		perExpr  = 96
		perInstr = 160
		perNode  = 96
		perCtx   = 512
		base     = 1 << 10
	)
	switch v := v.(type) {
	case parseResult:
		return base + int64(len(v.classes))*perClass
	case *types.Info:
		return base + int64(len(v.Classes))*perClass + int64(v.NumTyped())*perExpr
	case *ir.Program:
		return base + int64(v.NumInstrs)*perInstr
	case *pointsto.Result:
		return base + int64(v.NumCGNodes())*perCtx + int64(len(v.Objects()))*perNode
	case *sdg.Graph:
		return base + int64(v.NumNodes())*perNode + int64(v.NumEdges())*32
	case *csslice.Graph:
		return base + int64(v.NumNodes())*perNode + int64(v.NumEdges())*32
	case *dataflow.Results:
		return base + int64(v.NumNodeFacts())*48
	case *depgraph.Graph:
		return base + int64(len(v.Units))*256
	case *cha.CallGraph:
		return 16 << 10
	case *modref.Result:
		return 16 << 10
	default:
		return base
	}
}

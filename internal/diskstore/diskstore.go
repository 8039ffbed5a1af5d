// Package diskstore is the crash-safe persistent tier under the
// session's bounded in-memory store: a content-addressed cache of
// encoded analysis artifacts (package artifact records) on local disk.
//
// Durability protocol: every publish is write-to-temp → fsync → rename
// into place → fsync the directory, all within one filesystem, so a
// kill -9 at any instant leaves either the old state or the new state —
// never a readable-but-wrong entry. The directory is the source of
// truth: Open rescans it, and the manifest is only an advisory
// access-order hint (corrupt or missing, it is ignored).
//
// Self-healing read path: every Get re-verifies the record container
// (magic, versions, kind, key, CRC-32C). Anything that fails — bit rot,
// truncation, version skew after an upgrade, a stray file — is moved to
// a quarantine directory, counted, logged with its kind and the reason
// to quarantine.log, and reported as a miss, so callers transparently
// rebuild. Corruption is never served and never surfaces
// as an error to a client.
package diskstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thinslice/internal/artifact"
)

const (
	objectsDir    = "objects"
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
	manifestName  = "manifest.json"
	quarantineLog = "quarantine.log"
	entryExt      = ".art"
)

// Op identifies a disk operation to the fault-injection hook.
type Op string

// Disk operations the IOHook observes.
const (
	OpRead  Op = "read"  // reading a published entry
	OpWrite Op = "write" // writing a temp file before publish
)

// IOHook intercepts disk I/O for fault injection: it may transform the
// data (bit-flips, short reads/torn writes) and/or return an error
// (EIO). Production caches run with no hook installed.
type IOHook func(op Op, path string, data []byte) ([]byte, error)

var ioHook atomic.Pointer[IOHook]

// SetIOHook installs h (nil clears) and returns a func restoring the
// previous hook. Test-only.
func SetIOHook(h IOHook) (restore func()) {
	var p *IOHook
	if h != nil {
		p = &h
	}
	old := ioHook.Swap(p)
	return func() { ioHook.Store(old) }
}

func applyHook(op Op, path string, data []byte) ([]byte, error) {
	if h := ioHook.Load(); h != nil {
		return (*h)(op, path, data)
	}
	return data, nil
}

// Stats are the disk tier's counters. Sizes and entry counts describe
// the current state; the rest are monotonic since Open.
type Stats struct {
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
	MaxBytes     int64 `json:"max_bytes"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Puts         int64 `json:"puts"`
	PutErrors    int64 `json:"put_errors"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	Quarantines  int64 `json:"quarantines"`
}

// entry is one published cache file.
type entry struct {
	key  string
	size int64
	seq  int64 // LRU clock: higher = more recently used
}

// Cache is a bounded, content-addressed, crash-safe disk cache. All
// methods are safe for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry
	bytes   int64
	seq     int64
	stats   Stats
}

// Open opens (creating if needed) a cache rooted at dir, bounded to
// maxBytes of published entries (0 means 256 MiB). Leftover temp files
// from a crashed writer are removed; the objects directory is scanned
// as the source of truth, with the manifest consulted only to restore
// the access order.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	for _, sub := range []string{objectsDir, tmpDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
	}
	// Temp files are, by protocol, unpublished — a crashed writer's
	// leftovers are garbage regardless of content.
	if tmps, err := os.ReadDir(filepath.Join(dir, tmpDir)); err == nil {
		for _, de := range tmps {
			os.Remove(filepath.Join(dir, tmpDir, de.Name()))
		}
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, entries: make(map[string]*entry)}

	des, err := os.ReadDir(filepath.Join(dir, objectsDir))
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	order := c.loadManifest()
	rank := make(map[string]int, len(order))
	for i, k := range order {
		rank[k] = i + 1
	}
	var scanned []*entry
	for _, de := range des {
		name := de.Name()
		if !strings.HasSuffix(name, entryExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		scanned = append(scanned, &entry{key: strings.TrimSuffix(name, entryExt), size: info.Size()})
	}
	// Restore access order: manifest rank first (oldest first), then
	// unknown entries by name for determinism.
	sort.Slice(scanned, func(i, j int) bool {
		ri, rj := rank[scanned[i].key], rank[scanned[j].key]
		if ri != rj {
			return ri < rj
		}
		return scanned[i].key < scanned[j].key
	})
	for _, e := range scanned {
		c.seq++
		e.seq = c.seq
		c.entries[e.key] = e
		c.bytes += e.size
	}
	c.evictLocked()
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) objectPath(key string) string {
	return filepath.Join(c.dir, objectsDir, key+entryExt)
}

// Get returns the verified payload stored under (kind, key), or
// ok=false on a miss. A file that exists but fails verification is
// quarantined and reported as a miss.
func (c *Cache) Get(kind, key string) ([]byte, bool) {
	path := c.objectPath(key)
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err == nil {
		data, err = applyHook(OpRead, path, data)
	}
	if err != nil {
		// Unreadable entries cannot be verified; treat as corrupt.
		c.quarantine(kind, key, fmt.Sprintf("read: %v", err))
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	payload, err := artifact.Decode(data, kind, key)
	if err != nil {
		c.quarantine(kind, key, err.Error())
		c.count(func(s *Stats) { s.Misses++ })
		return nil, false
	}
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.seq++
		e.seq = c.seq
	}
	c.stats.Hits++
	c.mu.Unlock()
	return payload, true
}

// Keys returns the keys of every published entry, sorted. The
// snapshot may be stale by the time it is used (entries evict
// concurrently); callers must tolerate a later miss.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// GetRecord returns the raw, verified container record stored under
// key along with its kind, for callers that inspect a cache by key
// without knowing each record's kind (the benchmark's restart probe,
// tests). Corrupt records are quarantined and reported as a miss, like
// Get. The read does not bump the LRU clock and is not counted as a
// hit: a sweep over every entry must not distort access stats.
func (c *Cache) GetRecord(key string) (data []byte, kind string, ok bool) {
	path := c.objectPath(key)
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return nil, "", false
	}
	data, err := os.ReadFile(path)
	if err == nil {
		data, err = applyHook(OpRead, path, data)
	}
	if err != nil {
		c.quarantine("", key, fmt.Sprintf("read: %v", err))
		return nil, "", false
	}
	kind, recKey, err := artifact.Inspect(data)
	if err != nil || recKey != key {
		if err == nil {
			err = fmt.Errorf("record keyed %q stored under %q", recKey, key)
		}
		c.quarantine(kind, key, err.Error())
		return nil, "", false
	}
	return data, kind, true
}

// Put publishes payload under (kind, key) with the atomic
// write-temp-fsync-rename protocol, then evicts least-recently-used
// entries if the cache exceeds its byte budget. Put failures are
// counted and swallowed into the returned error; the cache is never
// left with a partially written published entry.
func (c *Cache) Put(kind, key string, payload []byte) error {
	if err := c.put(kind, key, payload); err != nil {
		c.count(func(s *Stats) { s.PutErrors++ })
		return fmt.Errorf("diskstore: put %s/%s: %w", kind, key, err)
	}
	c.count(func(s *Stats) { s.Puts++ })
	return nil
}

func (c *Cache) put(kind, key string, payload []byte) error {
	rec := artifact.Encode(kind, key, payload)
	tmp, err := os.CreateTemp(filepath.Join(c.dir, tmpDir), key+".*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	// Any failure below must leave no temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	data, err := applyHook(OpWrite, tmpPath, rec)
	if err != nil {
		// A torn write leaves partial bytes in the temp file — exactly
		// what a real mid-write crash leaves — but never publishes.
		tmp.Write(data)
		return fail(err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	path := c.objectPath(key)
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	syncDir(filepath.Dir(path))

	size := int64(len(data))
	c.mu.Lock()
	if old := c.entries[key]; old != nil {
		c.bytes -= old.size
	}
	c.seq++
	c.entries[key] = &entry{key: key, size: size, seq: c.seq}
	c.bytes += size
	c.evictLocked()
	manifest := c.manifestLocked()
	c.mu.Unlock()
	c.writeManifest(manifest)
	return nil
}

// syncDir best-effort fsyncs a directory so the rename itself is
// durable. Filesystems that do not support directory fsync are fine:
// the entry either survives or is absent, never torn.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// evictLocked drops least-recently-used entries until within budget.
func (c *Cache) evictLocked() {
	if c.bytes <= c.maxBytes {
		return
	}
	var es []*entry
	for _, e := range c.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	for _, e := range es {
		if c.bytes <= c.maxBytes {
			break
		}
		os.Remove(c.objectPath(e.key))
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.stats.Evictions++
		c.stats.EvictedBytes += e.size
	}
}

// quarantine moves a corrupt entry out of the objects directory. The
// file is preserved under quarantine/ for postmortem inspection, and
// one line in quarantine.log names its kind ("-" where the caller does
// not know it), its key and why it was quarantined.
func (c *Cache) quarantine(kind, key, reason string) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.bytes -= e.size
		delete(c.entries, key)
	}
	c.stats.Quarantines++
	c.mu.Unlock()
	src := c.objectPath(key)
	dst := filepath.Join(c.dir, quarantineDir, key+entryExt)
	if err := os.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// Rename can fail on exotic setups; removal still protects the
		// read path from re-serving the corrupt bytes.
		os.Remove(src)
	}
	c.logQuarantine(kind, key, reason)
}

// logQuarantine appends one line to quarantine.log, best effort: a
// failed write loses the line, never the quarantine. Each line is one
// O_APPEND write, so concurrent quarantines do not interleave within a
// line.
func (c *Cache) logQuarantine(kind, key, reason string) {
	if kind == "" {
		kind = "-"
	}
	line := fmt.Sprintf("%s kind=%s key=%s reason=%s\n", time.Now().UTC().Format(time.RFC3339),
		kind, key, strings.ReplaceAll(reason, "\n", " "))
	f, err := os.OpenFile(filepath.Join(c.dir, quarantineLog), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return
	}
	f.WriteString(line)
	f.Close()
}

// Quarantine removes the entry stored under key as corrupt, logging
// kind and reason like every quarantine. The session layer calls this
// when a record's *payload* fails structural decoding — the container
// was intact but the content was not usable.
func (c *Cache) Quarantine(kind, key, reason string) {
	c.quarantine(kind, key, reason)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	s.MaxBytes = c.maxBytes
	return s
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// --- manifest (advisory access-order hint) ---

type manifest struct {
	// Keys in access order, oldest first.
	Order []string `json:"order"`
}

func (c *Cache) manifestLocked() manifest {
	var es []*entry
	for _, e := range c.entries {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].seq < es[j].seq })
	m := manifest{Order: make([]string, len(es))}
	for i, e := range es {
		m.Order[i] = e.key
	}
	return m
}

// writeManifest atomically replaces the manifest. Failures are ignored:
// the manifest is purely advisory.
func (c *Cache) writeManifest(m manifest) {
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Join(c.dir, tmpDir), "manifest.*")
	if err != nil {
		return
	}
	tmpPath := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	tmp.Close()
	if err := os.Rename(tmpPath, filepath.Join(c.dir, manifestName)); err != nil {
		os.Remove(tmpPath)
	}
}

func (c *Cache) loadManifest() []string {
	data, err := os.ReadFile(filepath.Join(c.dir, manifestName))
	if err != nil {
		return nil
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil // corrupt manifest: directory scan order stands
	}
	return m.Order
}

// --- maintenance (thinslice cache fsck / gc) ---

// FsckEntry describes one verified cache entry.
type FsckEntry struct {
	Key  string
	Kind string
	Size int64
	Err  error // nil when the record verified cleanly
}

// Fsck verifies the container of every published entry. With repair
// set, corrupt entries are quarantined; otherwise they are only
// reported. The returned slice is sorted by key.
func (c *Cache) Fsck(repair bool) []FsckEntry {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	out := make([]FsckEntry, 0, len(keys))
	for _, key := range keys {
		fe := FsckEntry{Key: key}
		data, err := os.ReadFile(c.objectPath(key))
		if err == nil {
			fe.Size = int64(len(data))
			var kind, recKey string
			kind, recKey, err = artifact.Inspect(data)
			if err == nil && recKey != key {
				err = fmt.Errorf("record keyed %q stored under %q", recKey, key)
			}
			fe.Kind = kind
		}
		if err != nil {
			fe.Err = err
			if repair {
				c.quarantine(fe.Kind, key, err.Error())
			}
		}
		out = append(out, fe)
	}
	return out
}

// GC removes quarantined files and stray temp files, empties
// quarantine.log, and re-applies the byte budget. It returns the number
// of files removed.
func (c *Cache) GC() int {
	removed := 0
	for _, sub := range []string{quarantineDir, tmpDir} {
		dir := filepath.Join(c.dir, sub)
		des, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, de := range des {
			if os.Remove(filepath.Join(dir, de.Name())) == nil {
				removed++
			}
		}
	}
	os.Truncate(filepath.Join(c.dir, quarantineLog), 0)
	c.mu.Lock()
	before := len(c.entries)
	c.evictLocked()
	removed += before - len(c.entries)
	manifest := c.manifestLocked()
	c.mu.Unlock()
	c.writeManifest(manifest)
	return removed
}

package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thinslice/internal/artifact"
)

func testKey(i int) string {
	return fmt.Sprintf("%064x", i)
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("artifact bytes")
	if err := c.Put("ir", testKey(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("ir", testKey(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get("ir", testKey(2)); ok {
		t.Fatal("Get of absent key succeeded")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWarmReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Put("pts", testKey(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh process over the same directory sees every entry.
	c2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, ok := c2.Get("pts", testKey(i))
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("entry %d: %q, %v", i, got, ok)
		}
	}
	if s := c2.Stats(); s.Entries != 5 || s.Hits != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Records have container overhead; size the budget so roughly three
	// 1 KiB payloads fit.
	c, err := Open(dir, 3500)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 3; i++ {
		if err := c.Put("ir", testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 so entry 1 is now the LRU.
	if _, ok := c.Get("ir", testKey(0)); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if err := c.Put("ir", testKey(3), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("ir", testKey(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, i := range []int{0, 3} {
		if _, ok := c.Get("ir", testKey(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if s := c.Stats(); s.Evictions == 0 || s.EvictedBytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEvictionOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("y"), 1024)
	for i := 0; i < 3; i++ {
		if err := c.Put("ir", testKey(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen with a budget that only fits two entries: the manifest's
	// access order makes entry 0 (oldest) the one to go.
	c2, err := Open(dir, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("ir", testKey(0)); ok {
		t.Fatal("oldest entry survived reopen under a smaller budget")
	}
	for _, i := range []int{1, 2} {
		if _, ok := c2.Get("ir", testKey(i)); !ok {
			t.Fatalf("entry %d lost on reopen", i)
		}
	}
}

func TestCorruptionQuarantinedNotServed(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("sdg", testKey(7), []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip one bit of the published file, as bit rot would.
	path := filepath.Join(dir, objectsDir, testKey(7)+entryExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("sdg", testKey(7)); ok {
		t.Fatal("corrupt entry served")
	}
	s := c.Stats()
	if s.Quarantines != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// The corrupt file was preserved under quarantine/.
	qs, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(qs) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(qs), err)
	}
	// Subsequent gets are plain misses, not repeated quarantines.
	if _, ok := c.Get("sdg", testKey(7)); ok {
		t.Fatal("entry resurrected")
	}
	if s := c.Stats(); s.Quarantines != 1 {
		t.Fatalf("repeat get re-quarantined: %+v", s)
	}
}

func TestVersionSkewQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-craft a valid record of a future codec version: bump the
	// codec byte and re-checksum, as a newer build would have written.
	rec := artifact.Encode("ir", testKey(9), []byte("future payload"))
	rec = rec[:len(rec)-4]
	rec[len("TSART\x00")+1]++ // codec version byte
	sum := crc32Castagnoli(rec)
	rec = append(rec, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	path := filepath.Join(dir, objectsDir, testKey(9)+entryExt)
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	// The scan-based index only sees the file on reopen.
	c2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("ir", testKey(9)); ok {
		t.Fatal("version-skewed entry served")
	}
	if s := c2.Stats(); s.Quarantines != 1 {
		t.Fatalf("stats = %+v", s)
	}
	_ = c
}

// TestPastCodecVersionQuarantined: a record an older build wrote, one
// codec version back, is version skew too. Its payload would misparse
// under the current codecs, so it must miss and leave the cache.
func TestPastCodecVersionQuarantined(t *testing.T) {
	dir := t.TempDir()
	rec := artifact.Encode("sdg", testKey(9), []byte("older payload"))
	rec = rec[:len(rec)-4]
	rec[len("TSART\x00")+1]-- // codec version byte
	sum := crc32Castagnoli(rec)
	rec = append(rec, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
	if _, err := Open(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, objectsDir, testKey(9)+entryExt), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("sdg", testKey(9)); ok {
		t.Fatal("record of the previous codec version served")
	}
	if s := c.Stats(); s.Quarantines != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
	log, _ := os.ReadFile(filepath.Join(dir, quarantineLog))
	if want := fmt.Sprintf("codec v%d, this build reads v%d", artifact.CodecVersion-1, artifact.CodecVersion); !strings.Contains(string(log), want) {
		t.Fatalf("quarantine.log = %q, want the codec-version skew %q", log, want)
	}
}

func TestCrashedTempFilesCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer killed mid-write: partial bytes in tmp/.
	torn := filepath.Join(dir, tmpDir, "deadbeef.12345")
	if err := os.WriteFile(torn, []byte("partial rec"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("torn temp file survived reopen")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("torn write became an entry: %+v", s)
	}
}

func TestCorruptManifestIgnored(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("ir", testKey(1), []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("ir", testKey(1)); !ok {
		t.Fatal("entry lost to a corrupt manifest")
	}
}

func TestIOHookFaults(t *testing.T) {
	t.Run("eio-on-write", func(t *testing.T) {
		c, err := Open(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		restore := SetIOHook(func(op Op, path string, data []byte) ([]byte, error) {
			if op == OpWrite {
				return nil, errors.New("injected EIO")
			}
			return data, nil
		})
		defer restore()
		if err := c.Put("ir", testKey(1), []byte("p")); err == nil {
			t.Fatal("Put succeeded under injected EIO")
		}
		restore()
		if _, ok := c.Get("ir", testKey(1)); ok {
			t.Fatal("failed Put left a readable entry")
		}
		if s := c.Stats(); s.PutErrors != 1 || s.Entries != 0 {
			t.Fatalf("stats = %+v", s)
		}
	})
	t.Run("bit-flip-on-write", func(t *testing.T) {
		c, err := Open(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		restore := SetIOHook(func(op Op, path string, data []byte) ([]byte, error) {
			if op == OpWrite {
				flipped := append([]byte(nil), data...)
				flipped[len(flipped)/3] ^= 0x40
				return flipped, nil
			}
			return data, nil
		})
		// The flipped record publishes "successfully"...
		if err := c.Put("ir", testKey(2), []byte("payload")); err != nil {
			t.Fatal(err)
		}
		restore()
		// ...but the read path detects and quarantines it.
		if _, ok := c.Get("ir", testKey(2)); ok {
			t.Fatal("bit-flipped record served")
		}
		if s := c.Stats(); s.Quarantines != 1 {
			t.Fatalf("stats = %+v", s)
		}
	})
	t.Run("short-read", func(t *testing.T) {
		c, err := Open(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put("ir", testKey(3), []byte("payload")); err != nil {
			t.Fatal(err)
		}
		restore := SetIOHook(func(op Op, path string, data []byte) ([]byte, error) {
			if op == OpRead {
				return data[:len(data)/2], nil
			}
			return data, nil
		})
		defer restore()
		if _, ok := c.Get("ir", testKey(3)); ok {
			t.Fatal("short read served")
		}
		if s := c.Stats(); s.Quarantines != 1 {
			t.Fatalf("stats = %+v", s)
		}
	})
}

func TestFsck(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put("ir", testKey(i), []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one entry on disk.
	path := filepath.Join(dir, objectsDir, testKey(1)+entryExt)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	report := c.Fsck(false)
	bad := 0
	for _, fe := range report {
		if fe.Err != nil {
			bad++
			if fe.Key != testKey(1) {
				t.Fatalf("wrong entry flagged: %s", fe.Key)
			}
		} else if fe.Kind != "ir" {
			t.Fatalf("entry %s kind = %q", fe.Key, fe.Kind)
		}
	}
	if bad != 1 {
		t.Fatalf("fsck found %d corrupt entries, want 1", bad)
	}
	// Without repair the entry is still indexed; with repair it is
	// quarantined.
	if s := c.Stats(); s.Entries != 3 {
		t.Fatalf("fsck without repair changed the index: %+v", s)
	}
	c.Fsck(true)
	if s := c.Stats(); s.Entries != 2 || s.Quarantines != 1 {
		t.Fatalf("fsck repair: %+v", s)
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("ir", testKey(1), []byte("p")); err != nil {
		t.Fatal(err)
	}
	// Force a quarantined file and a stray temp file.
	path := filepath.Join(dir, objectsDir, testKey(1)+entryExt)
	os.WriteFile(path, []byte("bad"), 0o644)
	c.Get("ir", testKey(1))
	os.WriteFile(filepath.Join(dir, tmpDir, "stray.tmp"), []byte("x"), 0o644)
	if n := c.GC(); n != 2 {
		t.Fatalf("GC removed %d files, want 2", n)
	}
	qs, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
	ts, _ := os.ReadDir(filepath.Join(dir, tmpDir))
	if len(qs) != 0 || len(ts) != 0 {
		t.Fatalf("GC left %d quarantined, %d temp files", len(qs), len(ts))
	}
}

// TestQuarantineLog: every quarantine appends a line naming the
// record's kind, key and reason, and GC empties the log without
// counting it among the removed files.
func TestQuarantineLog(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("pts", testKey(1), []byte("p")); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, objectsDir, testKey(1)+entryExt), []byte("bad"), 0o644)
	c.Get("pts", testKey(1))
	if err := c.Put("sdg", testKey(2), []byte("q")); err != nil {
		t.Fatal(err)
	}
	c.Quarantine("sdg", testKey(2), "sdg: decode: bad row\nsecond line")
	data, err := os.ReadFile(filepath.Join(dir, quarantineLog))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("log has %d lines, want 2:\n%s", len(lines), data)
	}
	for i, want := range []string{
		" kind=pts key=" + testKey(1) + " reason=artifact: corrupt record (truncated)",
		" kind=sdg key=" + testKey(2) + " reason=sdg: decode: bad row second line",
	} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("log line %d = %q, want it to contain %q", i, lines[i], want)
		}
	}
	if n := c.GC(); n != 2 {
		t.Fatalf("GC removed %d files, want the 2 quarantined ones", n)
	}
	if data, err := os.ReadFile(filepath.Join(dir, quarantineLog)); err != nil || len(data) != 0 {
		t.Fatalf("GC left the log holding %q (err %v)", data, err)
	}
}

func TestStrayFilesIgnoredOnScan(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, 1<<20); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, objectsDir, "README.txt"), []byte("hello"), 0o644)
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("stray file indexed: %+v", s)
	}
}

// crc32Castagnoli mirrors the artifact container's checksum for the
// version-skew test.
func crc32Castagnoli(b []byte) uint32 {
	return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli))
}

func TestKeysSnapshot(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Keys(); len(got) != 0 {
		t.Fatalf("empty cache Keys = %v", got)
	}
	for i := 0; i < 4; i++ {
		if err := c.Put("ir", testKey(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Keys()
	if len(got) != 4 {
		t.Fatalf("Keys = %v, want 4 sorted keys", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Keys not sorted: %v", got)
		}
	}
}

func TestGetRecordRoundTripsContainer(t *testing.T) {
	c, err := Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("sdg payload bytes")
	if err := c.Put("sdg", testKey(7), payload); err != nil {
		t.Fatal(err)
	}
	rec, kind, ok := c.GetRecord(testKey(7))
	if !ok || kind != "sdg" {
		t.Fatalf("GetRecord ok=%v kind=%q", ok, kind)
	}
	// The record is the full verified container: Decode recovers the
	// payload byte-for-byte.
	got, err := artifact.Decode(rec, "sdg", testKey(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	// Missing keys are a plain miss.
	if _, _, ok := c.GetRecord(testKey(8)); ok {
		t.Fatal("GetRecord of absent key succeeded")
	}
	// GetRecord must not distort access stats: no hits counted.
	if s := c.Stats(); s.Hits != 0 {
		t.Fatalf("GetRecord counted hits: %+v", s)
	}
}

func TestGetRecordQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("ir", testKey(3), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the published file.
	path := filepath.Join(dir, "objects", testKey(3)+".art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.GetRecord(testKey(3)); ok {
		t.Fatal("corrupt record served")
	}
	if s := c.Stats(); s.Quarantines != 1 || s.Entries != 0 {
		t.Fatalf("stats after corrupt GetRecord = %+v", s)
	}
	// The corrupt file is out of the objects directory.
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still published: %v", err)
	}
}

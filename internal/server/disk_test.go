package server

// Tests for the persistent artifact cache behind the server: warm
// restarts serve byte-identical responses from disk, and every
// injected corruption — bit-flips, torn writes, short reads, EIO — is
// detected, quarantined, and transparently rebuilt. A corrupt cache
// never changes a response and never produces a 5xx.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"thinslice/internal/diskstore"
	"thinslice/internal/faults"
)

// diskConfig is testConfig plus a persistent cache in a fresh temp dir.
func diskConfig(t *testing.T) Config {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	return cfg
}

// rawPost returns the exact response bytes — the oracle for
// byte-identical restarts.
func rawPost(t *testing.T, base, path string, req Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, data
}

func sliceReq() Request {
	return Request{Sources: firstNames(), Seed: seedAt("// SEED")}
}

// populate runs one server against cfg, records the canonical response
// bytes, and shuts it down with the disk cache warm.
func populate(t *testing.T, cfg Config) []byte {
	t.Helper()
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, body := rawPost(t, ts.URL, "/slice", sliceReq())
	if code != http.StatusOK {
		t.Fatalf("populate: code %d body %s", code, body)
	}
	if puts := srv.Stats().Disk.Puts; puts == 0 {
		t.Fatal("populate wrote nothing to disk")
	}
	return body
}

func TestDiskWarmRestartByteIdentical(t *testing.T) {
	cfg := diskConfig(t)
	want := populate(t, cfg)

	// A fresh server over the same cache dir — a cold process, a warm
	// disk — must answer byte-identically without rebuilding.
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, got := rawPost(t, ts.URL, "/slice", sliceReq())
	if code != http.StatusOK {
		t.Fatalf("warm restart: code %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm restart response differs:\n got: %s\nwant: %s", got, want)
	}
	st := srv.Stats()
	if st.Disk == nil || st.Disk.Hits == 0 {
		t.Fatalf("warm restart served without disk hits: %+v", st.Disk)
	}
	if st.Disk.Quarantines != 0 {
		t.Fatalf("clean cache produced %d quarantines", st.Disk.Quarantines)
	}
}

func TestDiskCorruptionQuarantinedNeverServed(t *testing.T) {
	cfg := diskConfig(t)
	want := populate(t, cfg)

	// Flip a byte in the middle of every published artifact.
	objects := filepath.Join(cfg.CacheDir, "objects")
	des, err := os.ReadDir(objects)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, de := range des {
		path := filepath.Join(objects, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no artifacts on disk to corrupt")
	}

	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, got := rawPost(t, ts.URL, "/slice", sliceReq())
	if code != http.StatusOK {
		t.Fatalf("corrupt cache surfaced as code %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("corrupt cache changed the response:\n got: %s\nwant: %s", got, want)
	}
	st := srv.Stats()
	if st.Disk.Quarantines == 0 {
		t.Fatal("corrupt entries were not quarantined")
	}
	if qs, err := os.ReadDir(filepath.Join(cfg.CacheDir, "quarantine")); err != nil || len(qs) == 0 {
		t.Fatalf("quarantine dir empty (err %v)", err)
	}
	// The rebuild re-published clean artifacts: a third server serves
	// them from disk again.
	srv2 := mustNew(t, cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if code, got := rawPost(t, ts2.URL, "/slice", sliceReq()); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("rebuilt cache: code %d, identical %v", code, bytes.Equal(got, want))
	}
	if st := srv2.Stats(); st.Disk.Hits == 0 || st.Disk.Quarantines != 0 {
		t.Fatalf("rebuilt cache not warm/clean: %+v", st.Disk)
	}
}

// TestDiskFaultInjection drives each faults.DiskMode through a live
// server: reads that fail or lie are quarantined and rebuilt, writes
// that fail or tear publish nothing — and no mode ever surfaces as an
// error response.
func TestDiskFaultInjection(t *testing.T) {
	t.Run("torn write publishes nothing", func(t *testing.T) {
		cfg := diskConfig(t)
		reg := faults.NewDiskRegistry()
		h := reg.Add(faults.DiskRule{Op: diskstore.OpWrite, Mode: faults.TornWrite})
		defer reg.Install()()

		srv := mustNew(t, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, _ := rawPost(t, ts.URL, "/slice", sliceReq())
		if code != http.StatusOK {
			t.Fatalf("torn writes surfaced as code %d", code)
		}
		if h.Fired() == 0 {
			t.Fatal("torn-write rule never fired")
		}
		st := srv.Stats()
		if st.Disk.PutErrors == 0 || st.Disk.Entries != 0 {
			t.Fatalf("torn writes published entries: %+v", st.Disk)
		}
	})

	t.Run("EIO on read rebuilds", func(t *testing.T) {
		cfg := diskConfig(t)
		want := populate(t, cfg)
		reg := faults.NewDiskRegistry()
		h := reg.Add(faults.DiskRule{Op: diskstore.OpRead, Mode: faults.EIO, Times: 1})
		defer reg.Install()()

		srv := mustNew(t, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, got := rawPost(t, ts.URL, "/slice", sliceReq())
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("EIO: code %d, identical %v", code, bytes.Equal(got, want))
		}
		if h.Fired() != 1 {
			t.Fatalf("EIO rule fired %d times, want 1", h.Fired())
		}
		if st := srv.Stats(); st.Disk.Quarantines == 0 {
			t.Fatalf("unreadable entry not quarantined: %+v", st.Disk)
		}
	})

	t.Run("short read rebuilds", func(t *testing.T) {
		cfg := diskConfig(t)
		want := populate(t, cfg)
		reg := faults.NewDiskRegistry()
		reg.Add(faults.DiskRule{Op: diskstore.OpRead, Mode: faults.ShortRead, Times: 2})
		defer reg.Install()()

		srv := mustNew(t, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, got := rawPost(t, ts.URL, "/slice", sliceReq())
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("short read: code %d, identical %v", code, bytes.Equal(got, want))
		}
		if st := srv.Stats(); st.Disk.Quarantines == 0 {
			t.Fatalf("truncated entry not quarantined: %+v", st.Disk)
		}
	})

	t.Run("bit flip on write caught on read", func(t *testing.T) {
		cfg := diskConfig(t)
		reg := faults.NewDiskRegistry()
		h := reg.Add(faults.DiskRule{Op: diskstore.OpWrite, Mode: faults.BitFlip})
		uninstall := reg.Install()
		want := populate(t, cfg) // every publish is silently corrupted
		uninstall()
		if h.Fired() == 0 {
			t.Fatal("bit-flip rule never fired")
		}

		srv := mustNew(t, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		code, got := rawPost(t, ts.URL, "/slice", sliceReq())
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("bit flip: code %d, identical %v", code, bytes.Equal(got, want))
		}
		if st := srv.Stats(); st.Disk.Quarantines == 0 {
			t.Fatalf("flipped entries not quarantined: %+v", st.Disk)
		}
	})
}

// TestPprofAbsentByDefault pins that the profiler is opt-in: without
// EnablePprof the mux has no /debug/pprof routes at all.
func TestPprofAbsentByDefault(t *testing.T) {
	srv := mustNew(t, testConfig())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without -pprof: code %d, want 404", res.StatusCode)
	}

	cfg := testConfig()
	cfg.EnablePprof = true
	srv2 := mustNew(t, cfg)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	res, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -pprof: code %d, want 200", res.StatusCode)
	}
}

// jsonKeys flattens a decoded JSON object into sorted dotted key paths
// — the schema, independent of values.
func jsonKeys(prefix string, v any) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return []string{prefix}
	}
	var out []string
	for k, sub := range obj {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		out = append(out, jsonKeys(p, sub)...)
	}
	sort.Strings(out)
	return out
}

// TestStatszSchemaGolden pins the exact /statsz key set with the disk
// tier enabled. Monitoring dashboards key on these names; a rename or
// removal must be a conscious, test-visible decision.
func TestStatszSchemaGolden(t *testing.T) {
	cfg := diskConfig(t)
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, _ := rawPost(t, ts.URL, "/slice", sliceReq()); code != http.StatusOK {
		t.Fatalf("warmup: code %d", code)
	}
	res, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatalf("statsz is not JSON: %v", err)
	}
	want := []string{
		"breaker.closed",
		"breaker.half_open",
		"breaker.open",
		"breaker.open_circuits",
		"breaker.tracked_programs",
		"disk.bytes",
		"disk.entries",
		"disk.evicted_bytes",
		"disk.evictions",
		"disk.hits",
		"disk.max_bytes",
		"disk.misses",
		"disk.put_errors",
		"disk.puts",
		"disk.quarantines",
		"draining",
		"phases.CHAs",
		"phases.CSGraphs",
		"phases.Checks",
		"phases.Dataflows",
		"phases.DeltaSolves",
		"phases.Depgraphs",
		"phases.Lowers",
		"phases.ModRefs",
		"phases.Parses",
		"phases.PointsTos",
		"phases.PreludeParses",
		"phases.SDGs",
		"phases.UnitLowers",
		"phases.UnitReuses",
		"queued",
		"requests.bad_request",
		"requests.breaker_open",
		"requests.deadline",
		"requests.draining",
		"requests.exhausted",
		"requests.internal",
		"requests.ok",
		"requests.partial",
		"requests.program_error",
		"requests.saturated",
		"requests.total",
		"running",
		"store.Cost",
		"store.CostEvicted",
		"store.Entries",
		"store.Evictions",
		"store.Hits",
		"store.Misses",
	}
	got := jsonKeys("", stats)
	if len(got) != len(want) {
		t.Fatalf("statsz schema changed:\n got  %v\n want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("statsz schema changed at %q (want %q):\n got  %v", got[i], want[i], got)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// serveBenchRow records end-to-end request performance at one client
// concurrency level, against a warm artifact store (the steady state a
// long-lived service converges to).
type serveBenchRow struct {
	Clients int `json:"clients"`
	// Requests issued across all clients for the throughput sample.
	Requests int `json:"requests"`
	// MeanLatencyUS and P99LatencyUS are per-request wall times.
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	// ThroughputRPS is requests / wall-clock for the whole sample.
	ThroughputRPS float64 `json:"throughput_rps"`
}

// coldStartRow records the first-request latency of a freshly started
// server — the restart cost the persistent disk cache exists to cut.
type coldStartRow struct {
	// Scenario is "empty_cache" (full rebuild) or "disk_warm" (every
	// artifact decoded from the persistent cache).
	Scenario string `json:"scenario"`
	// Trials first requests, each on a brand-new server.
	Trials int `json:"trials"`
	// MeanFirstRequestUS is the mean first-request wall time.
	MeanFirstRequestUS float64 `json:"mean_first_request_us"`
}

type serveBenchReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	Workers    int             `json:"workers"`
	Note       string          `json:"note"`
	Rows       []serveBenchRow `json:"rows"`
	ColdStart  []coldStartRow  `json:"cold_start"`
}

// TestRecordServeBenchmarks measures warm-cache request latency and
// throughput of the hardened server at 1, 4, and 16 concurrent
// clients. With THINSLICE_RECORD=1 it records them in BENCH_serve.json
// at the repository root, mirroring BENCH_session.json; run it alone
// (go test -p 1) so no other test binary shares the CPUs. Skipped
// under -short.
func TestRecordServeBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark recording skipped in -short mode")
	}
	workers := max(runtime.GOMAXPROCS(0), 2)
	srv := mustNew(t, Config{Workers: workers, QueueDepth: 64, QueueWait: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(Request{Sources: firstNames(), Seed: seedAt("// SEED")})
	if err != nil {
		t.Fatal(err)
	}
	do := func(client *http.Client) time.Duration {
		start := time.Now()
		res, err := client.Post(ts.URL+"/slice", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("benchmark request failed: HTTP %d", res.StatusCode)
		}
		return time.Since(start)
	}

	// Warm the store so every measured request is the steady state.
	do(http.DefaultClient)

	report := serveBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Note: "warm-cache /slice requests over HTTP loopback; every phase is served " +
			"from the bounded artifact store, so latency is admission + JSON + the " +
			"backward closure; on a single-CPU host higher concurrency measures " +
			"queueing rather than speedup",
	}
	for _, clients := range []int{1, 4, 16} {
		perClient := 100 / clients
		if perClient < 5 {
			perClient = 5
		}
		total := clients * perClient
		latencies := make([]time.Duration, total)
		var wg sync.WaitGroup
		wallStart := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := &http.Client{Timeout: 30 * time.Second}
				for j := 0; j < perClient; j++ {
					latencies[c*perClient+j] = do(client)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(wallStart)

		var sum time.Duration
		for _, d := range latencies {
			sum += d
		}
		sorted := append([]time.Duration(nil), latencies...)
		for i := 1; i < len(sorted); i++ { // insertion sort; n ≤ 100
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		p99 := sorted[len(sorted)*99/100]
		report.Rows = append(report.Rows, serveBenchRow{
			Clients:       clients,
			Requests:      total,
			MeanLatencyUS: float64(sum) / float64(total) / float64(time.Microsecond),
			P99LatencyUS:  float64(p99) / float64(time.Microsecond),
			ThroughputRPS: float64(total) / wall.Seconds(),
		})
	}

	if st := srv.store.Stats(); st.Hits == 0 {
		t.Error("benchmark never hit the warm store; the numbers measure cold builds")
	}

	// Cold-start-after-restart: the first request on a fresh server
	// (empty in-memory store), against an empty cache dir vs one left
	// warm by a previous server over the same sources.
	warmDir := t.TempDir()
	firstRequest := func(cfg Config) time.Duration {
		srv := mustNew(t, cfg)
		fresh := httptest.NewServer(srv.Handler())
		defer fresh.Close()
		start := time.Now()
		res, err := http.Post(fresh.URL+"/slice", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("cold-start request failed: HTTP %d", res.StatusCode)
		}
		return time.Since(start)
	}
	firstRequest(Config{Workers: workers, CacheDir: warmDir}) // populate the disk tier
	const trials = 5
	var emptySum, warmSum time.Duration
	for i := 0; i < trials; i++ {
		emptySum += firstRequest(Config{Workers: workers, CacheDir: t.TempDir()})
		warmSum += firstRequest(Config{Workers: workers, CacheDir: warmDir})
	}
	report.ColdStart = []coldStartRow{
		{Scenario: "empty_cache", Trials: trials, MeanFirstRequestUS: float64(emptySum) / trials / float64(time.Microsecond)},
		{Scenario: "disk_warm", Trials: trials, MeanFirstRequestUS: float64(warmSum) / trials / float64(time.Microsecond)},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("THINSLICE_RECORD") == "1" {
		if err := os.WriteFile("../../BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range report.Rows {
		fmt.Printf("serve bench: %2d clients  mean %7.0fus  p99 %7.0fus  %7.1f req/s\n",
			r.Clients, r.MeanLatencyUS, r.P99LatencyUS, r.ThroughputRPS)
	}
	for _, r := range report.ColdStart {
		fmt.Printf("serve bench: cold start %-11s  first request %7.0fus\n", r.Scenario, r.MeanFirstRequestUS)
	}
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"thinslice/internal/faults"
	"thinslice/internal/server"
)

// soakProg is one program in the soak's working set, pinned to its
// canonical response bytes.
type soakProg struct {
	req  server.Request
	want []byte
}

// soakPrograms builds one program per replica (so every node owns part
// of the working set) and records each one's canonical bytes from a
// forced-local computation.
func soakPrograms(t *testing.T, tc *testCluster, owners []string) []soakProg {
	t.Helper()
	progs := make([]soakProg, 0, len(owners))
	for _, owner := range owners {
		sources, seed := programOwnedBy(t, tc.nodes[owners[0]].ring, tc.topo.Replication, owner, "")
		req := server.Request{Sources: sources, Seed: seed}
		code, want, _ := postRaw(t, tc.addrs[owner], "/slice", req, true)
		if code != http.StatusOK {
			t.Fatalf("canonical compute on %s: code %d body %s", owner, code, want)
		}
		progs = append(progs, soakProg{req: req, want: want})
	}
	return progs
}

// typedKinds is the closed set of error classifications a client may
// ever see — anything else (or an unparseable body) fails the soak.
var typedKinds = map[string]bool{
	"bad_request": true, "program_error": true, "deadline": true,
	"canceled": true, "exhausted": true, "internal": true,
	"saturated": true, "breaker_open": true, "draining": true,
}

// soakCheck asserts the cluster's client-visible contract on one
// response: a 200 is byte-identical to the canonical answer, anything
// else is a typed error — never a bare 5xx, never divergent bytes.
func soakCheck(t *testing.T, code int, body []byte, want []byte) bool {
	t.Helper()
	if code == http.StatusOK {
		if !bytes.Equal(body, want) {
			t.Errorf("response diverged from canonical:\n got:  %s\n want: %s", body, want)
		}
		return true
	}
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil || !typedKinds[resp.Kind] {
		t.Errorf("untyped failure: code %d body %s", code, body)
	}
	return false
}

func p99(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

func p50(lat []time.Duration) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// soakLoad drives workers×perWorker requests round-robin over targets
// and programs, checking every response, and returns the latencies of
// the successful ones.
func soakLoad(t *testing.T, tc *testCluster, targets []string, progs []soakProg, workers, perWorker int, midLoad func()) []time.Duration {
	t.Helper()
	var mu sync.Mutex
	var latencies []time.Duration
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				target := targets[(w+i)%len(targets)]
				prog := progs[(w*perWorker+i)%len(progs)]
				start := time.Now()
				code, body, _ := postRaw(t, tc.addrs[target], "/slice", prog.req, false)
				elapsed := time.Since(start)
				if soakCheck(t, code, body, prog.want) {
					mu.Lock()
					latencies = append(latencies, elapsed)
					mu.Unlock()
				}
			}
		}(w)
	}
	if midLoad != nil {
		midLoad()
	}
	wg.Wait()
	return latencies
}

// TestClusterKillSoak is the acceptance drill: three replicas under
// mixed load with corrupt faults on the peer artifact path, one
// replica killed abruptly mid-load. Every response the survivors
// produce must be byte-identical to the canonical answer or a typed
// error; post-kill warm p99 must stay within 5x the no-failure
// baseline; the dead peer must be marked Down by passive observation.
func TestClusterKillSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	names := []string{"a", "b", "c"}
	reg := faults.NewNetRegistry()
	tc := startCluster(t, names, reg, nil)
	progs := soakPrograms(t, tc, names)

	// A byzantine streak: the next several peer artifact fetches are
	// corrupted in flight. Receivers must quarantine, rebuild, and
	// still answer canonically.
	reg.Add(faults.NetRule{Path: "/internal/artifact", Mode: faults.NetCorrupt, Times: 6})

	// Force every replica to serve every program locally once while
	// the corruption window is open: off-owner replicas peer-fetch warm
	// records, get poisoned bytes, and must reject them.
	for _, name := range names {
		for _, p := range progs {
			code, body, _ := postRaw(t, tc.addrs[name], "/slice", p.req, true)
			soakCheck(t, code, body, p.want)
		}
	}
	corrupt := tc.nodes["a"].stats.fetchCorrupt.Load() +
		tc.nodes["b"].stats.fetchCorrupt.Load() +
		tc.nodes["c"].stats.fetchCorrupt.Load()
	if corrupt == 0 {
		t.Errorf("byzantine window fired no corrupt-fetch detections")
	}

	// Warm every replica through normal routing.
	for _, name := range names {
		for _, p := range progs {
			code, body, _ := postRaw(t, tc.addrs[name], "/slice", p.req, false)
			soakCheck(t, code, body, p.want)
		}
	}

	// No-failure baseline.
	base := soakLoad(t, tc, names, progs, 4, 15, nil)
	basep99 := p99(base)

	// Kill b abruptly ~mid-load; clients keep hammering the survivors
	// (a real balancer drops the dead backend; the cluster's promise is
	// about what the survivors answer).
	survivors := []string{"a", "c"}
	killed := soakLoad(t, tc, survivors, progs, 4, 25, func() {
		time.Sleep(20 * time.Millisecond)
		tc.nodes["b"].Kill()
	})
	if len(killed) == 0 {
		t.Fatalf("no successful responses after the kill")
	}
	killp99 := p99(killed)

	// The p99 bound: 5x the healthy baseline, with a floor generous
	// enough for -race CI noise on tiny absolute latencies.
	bound := 5 * basep99
	if floor := 2 * time.Second; bound < floor {
		bound = floor
	}
	if killp99 > bound {
		t.Errorf("post-kill p99 %v exceeds bound %v (baseline %v)", killp99, bound, basep99)
	}

	// Passive health: the survivors observed the corpse.
	deadline := time.Now().Add(5 * time.Second)
	for {
		aDown := tc.nodes["a"].health.State("b") == Down
		cDown := tc.nodes["c"].health.State("b") == Down
		if aDown && cDown {
			break
		}
		if time.Now().After(deadline) {
			// Drive a few more b-owned requests to accumulate failures.
			for _, name := range survivors {
				for _, p := range progs {
					postRaw(t, tc.addrs[name], "/slice", p.req, false)
				}
			}
			if tc.nodes["a"].health.State("b") != Down || tc.nodes["c"].health.State("b") != Down {
				t.Fatalf("survivors never marked the killed peer Down (a: %v, c: %v)",
					tc.nodes["a"].health.State("b"), tc.nodes["c"].health.State("b"))
			}
			break
		}
		for _, p := range progs {
			postRaw(t, tc.addrs["a"], "/slice", p.req, false)
			postRaw(t, tc.addrs["c"], "/slice", p.req, false)
		}
	}

	// Post-Down steady state: everything is served without touching
	// the corpse, still byte-identical.
	steady := soakLoad(t, tc, survivors, progs, 2, 10, nil)
	if len(steady) != 2*10 {
		t.Errorf("steady state had failures: %d/20 successes", len(steady))
	}
	t.Logf("soak: baseline p99 %v, post-kill p99 %v, corrupt fetches detected %d",
		basep99, killp99,
		tc.nodes["a"].stats.fetchCorrupt.Load()+tc.nodes["b"].stats.fetchCorrupt.Load()+tc.nodes["c"].stats.fetchCorrupt.Load())
}

// --- benchmark recording ---

type clusterBenchRow struct {
	Replicas      int     `json:"replicas"`
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	WarmP50US     float64 `json:"warm_p50_us"`
	WarmP99US     float64 `json:"warm_p99_us"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

type clusterBenchReport struct {
	Note    string            `json:"note"`
	Rows    []clusterBenchRow `json:"rows"`
	KillOne struct {
		Replicas   int     `json:"replicas"`
		RecoveryMS float64 `json:"recovery_ms"`
	} `json:"kill_one"`
}

// TestRecordClusterBenchmarks measures warm-path latency at 1 and 3
// replicas (the 3-replica numbers include the forwarding hop for the
// ~2/3 of requests that land off-owner) plus the recovery time after
// an abrupt replica kill. With THINSLICE_RECORD=1 it merges a
// "cluster" section into BENCH_serve.json; run it alone (go test -p 1)
// so no other test binary shares the CPUs. Skipped under -short.
func TestRecordClusterBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark recording skipped in -short mode")
	}
	report := clusterBenchReport{
		Note: "warm /slice over loopback; 1-replica rows are all-local, 3-replica rows " +
			"include one forwarding hop for off-owner requests; kill_one is the time from " +
			"an abrupt replica kill to 10 consecutive good responses from the survivors",
	}

	measure := func(names []string) (int, []time.Duration, time.Duration) {
		tc := startCluster(t, names, nil, nil)
		progs := soakPrograms(t, tc, names)
		for _, name := range names { // warm every replica
			for _, p := range progs {
				postRaw(t, tc.addrs[name], "/slice", p.req, false)
			}
		}
		wall := time.Now()
		lat := soakLoad(t, tc, names, progs, 4, 25, nil)
		return 4 * 25, lat, time.Since(wall)
	}
	for _, names := range [][]string{{"a"}, {"a", "b", "c"}} {
		total, lat, wall := measure(names)
		report.Rows = append(report.Rows, clusterBenchRow{
			Replicas:      len(names),
			Clients:       4,
			Requests:      total,
			WarmP50US:     float64(p50(lat)) / float64(time.Microsecond),
			WarmP99US:     float64(p99(lat)) / float64(time.Microsecond),
			ThroughputRPS: float64(total) / wall.Seconds(),
		})
	}

	// Kill-one recovery: time from the kill until 10 consecutive good
	// responses (including the dead node's programs) from survivors.
	names := []string{"a", "b", "c"}
	tc := startCluster(t, names, nil, nil)
	progs := soakPrograms(t, tc, names)
	for _, name := range names {
		for _, p := range progs {
			postRaw(t, tc.addrs[name], "/slice", p.req, false)
		}
	}
	tc.nodes["b"].Kill()
	killAt := time.Now()
	consecutive, recovered := 0, time.Duration(0)
	for i := 0; consecutive < 10 && i < 200; i++ {
		prog := progs[i%len(progs)]
		target := []string{"a", "c"}[i%2]
		code, body, _ := postRaw(t, tc.addrs[target], "/slice", prog.req, false)
		if code == http.StatusOK && bytes.Equal(body, prog.want) {
			consecutive++
			if consecutive == 10 {
				recovered = time.Since(killAt)
			}
		} else {
			consecutive = 0
		}
	}
	if consecutive < 10 {
		t.Fatalf("cluster never recovered after kill")
	}
	report.KillOne.Replicas = 3
	report.KillOne.RecoveryMS = float64(recovered) / float64(time.Millisecond)

	// Merge into BENCH_serve.json without disturbing the serve rows.
	const path = "../../BENCH_serve.json"
	doc := map[string]json.RawMessage{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &doc); err != nil {
			t.Fatalf("existing %s is unparseable: %v", path, err)
		}
	}
	section, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	doc["cluster"] = section
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("THINSLICE_RECORD") == "1" {
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range report.Rows {
		fmt.Printf("cluster bench: %d replicas  p50 %7.0fus  p99 %7.0fus  %7.1f req/s\n",
			r.Replicas, r.WarmP50US, r.WarmP99US, r.ThroughputRPS)
	}
	fmt.Printf("cluster bench: kill-one recovery %.1fms\n", report.KillOne.RecoveryMS)
}

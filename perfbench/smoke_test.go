package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload for a few ops, end to end and traced,
// with every answer check, and asserts that each metric BENCHMARK.json
// names is printed with its unit, and nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		for trace, want := range [][]namedUnit{bm.EndToEnd, bm.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: w.Name, seed: 7, seconds: 1, trace: trace == 1, out: t.TempDir(), maxOps: 4}
				if code := runWorkload(cfg, &out, os.Stderr); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted != 4 {
					t.Errorf("correct=%v attempted=%d failed=%d, want true 4 0", got.Correct, got.Attempted, got.Failed)
				}
				for _, m := range want {
					if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got.Metrics), len(want))
				}
			})
		}
	}
}

// TestSeedPicksNoPrograms pins that the workload seed only picks nonces,
// edit literals and cycle starts: every seed edits the same lines and
// every nonce variant has the same size, so per-op work does not depend
// on the seed.
func TestSeedPicksNoPrograms(t *testing.T) {
	p := generate(editSpec)
	var lines []int
	for seed := uint64(1); seed <= 3; seed++ {
		ed, err := newEditor(p, &rng{s: seed})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, s := range ed.sites {
			for _, l := range s.lits {
				got = append(got, l.line)
			}
		}
		if lines == nil {
			lines = got
		} else if !slices.Equal(lines, got) {
			t.Errorf("seed %d edits lines %v, seed 1 edits %v", seed, got, lines)
		}
		src, err := ed.next()
		if err != nil {
			t.Fatal(err)
		}
		if len(src) != len(p.src) || strings.Count(src, "\n") != strings.Count(p.src, "\n") {
			t.Errorf("seed %d: an edit moved positions in the file", seed)
		}
	}
	if len(p.variant(1)) != len(p.variant(^uint64(0))) {
		t.Error("nonce variants differ in size")
	}
}

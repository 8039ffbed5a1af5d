package main

import "fmt"

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names, and the smoke test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a -trace 0 run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of a -trace 1 run. Every run prints all of
// them; a layer the workload's ops never reach reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, name := range layerSpans {
		out = append(out, metricDef{name + "_ms", "ms"})
	}
	return append(out, []metricDef{
		{"diskstore.put_ms", "ms"},
		{"server.request_kb", "KB"},
		{"session.store_hit_ratio", "ratio"},
		{"session.evictions_per_op", "count"},
		{"session.cost_to_heap", "ratio"},
		{"depgraph.dirty_units", "count"},
		{"ir.unit_reuse_ratio", "ratio"},
		{"pointsto.delta_to_full", "ratio"},
		{"pointsto.delta_share", "ratio"},
		{"sdg.nodes", "count"},
		{"sdg.edges", "count"},
		{"core.slice_stmts", "count"},
		{"core.slice_share", "ratio"},
		{"dataflow.taint_facts", "count"},
		{"dataflow.close_facts", "count"},
		{"dataflow.init_facts", "count"},
		{"checkers.findings", "count"},
		{"diskstore.read_mb", "MB"},
		{"diskstore.hit_ratio", "ratio"},
		{"diskstore.quarantines", "count"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"trace.overhead_pct", "%"},
	}...)
}()

// complete fills in every listed metric the run did not set with 0, and
// reports a metric set under another unit than its definition.
func (r *result) complete(defs []metricDef) error {
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			r.set(d.name, 0, d.unit)
		} else if m.Unit != d.unit {
			return fmt.Errorf("metric %s reported in %s, defined in %s", d.name, m.Unit, d.unit)
		}
	}
	return nil
}

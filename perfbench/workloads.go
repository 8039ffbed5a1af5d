package main

// workload pairs a workload's end-to-end load with its traced replay.
type workload struct {
	e2e    func(*env) load
	replay func(*env) replayer
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json gives the
// reason for each.
var workloads = map[string]workload{
	"cold":    {newCold, newColdReplay},
	"edit":    {newEdit, newEditReplay},
	"check":   {newCheck, newCheckReplay},
	"restart": {newRestart, newRestartReplay},
}

package main

import (
	"fmt"
	"time"

	"repro/internal/spec"
)

// workload is one experiment the benchmark runs. The seed argument picks
// the traffic pattern's seed; the topology, scenario and duration are
// fixed, so every seed drives the same layers.
type workload struct {
	// name is the workload's name in BENCHMARK.json, which also records
	// why it exists.
	name string
	// defaultSeed is the seed the pinned reference fingerprint was taken
	// at (the traffic spec's own default).
	defaultSeed int64
	// run builds the spec for a seed.
	run func(seed int64) spec.Run
	// flowsEnd marks workloads whose flows finish inside the run, so a
	// flow may end "done" instead of "active".
	flowsEnd bool
	// pathLatencyJitters marks workloads whose per-flow path latencies
	// are not bit-identical across executions (the multi-AS BGP WAN);
	// their output check ignores path latency and reports the full
	// fingerprint's divergence share instead.
	pathLatencyJitters bool
}

// dur is a spec.Duration literal.
func dur(d time.Duration) spec.Duration { return spec.Duration(d) }

// workloads is the benchmark's workload set, in BENCHMARK.json order.
// Every run is paper-faithful pacing 1.
var workloads = []*workload{
	{
		name:        "sdn-boot",
		defaultSeed: 42,
		run: func(seed int64) spec.Run {
			return spec.Run{Topo: "fattree:8", Scenario: "ecmp5", Traffic: fmt.Sprintf("permutation:%d", seed), Dur: dur(10 * time.Second), Pacing: 1}
		},
	},
	{
		name:        "dataplane-churn",
		defaultSeed: 7,
		run: func(seed int64) spec.Run {
			return spec.Run{Topo: "fattree:4", Scenario: "ecmp5", Traffic: fmt.Sprintf("pareto:%d:60000", seed), Dur: dur(120 * time.Second), Pacing: 1}
		},
		flowsEnd: true,
	},
	{
		name:        "bgp-fulltable",
		defaultSeed: 42,
		run: func(seed int64) spec.Run {
			return spec.Run{Topo: "wan:multi:7:3:6:20000", Scenario: "bgp-rr", Traffic: fmt.Sprintf("permutation:%d", seed), Dur: dur(10 * time.Second), Pacing: 1}
		},
		pathLatencyJitters: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric; BENCHMARK.json mirrors these
// tables (the self-tests hold the two in lockstep).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of a whole experiment sees, measured
// with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of a traced run, in report
// order. cpu.<entry>_pct is each ledger entry's share of the traced
// run's CPU profile samples.
func perLayer() []metricDef {
	defs := []metricDef{
		{"spec.build_s", "s", "lower"},
		{"topo.build_s", "s", "lower"},
		{"traffic.gen_s", "s", "lower"},
		{"spec.outcome_s", "s", "lower"},
		{"cm.wire_s", "s", "lower"},
		{"cm.teardown_s", "s", "lower"},
		{"sim.fti_wall_s", "s", "lower"},
		{"sim.fti_virtual_share", "ratio", "lower"},
		{"sim.fti_lag", "ratio", "lower"},
		{"sim.des_wall_s", "s", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.des_us_per_event", "us", "lower"},
		{"sim.transitions", "count", "lower"},
		{"sim.control_posts", "count", "lower"},
		{"sim.peak_queue", "count", "lower"},
		{"sim.late_events", "count", "lower"},
		{"fluid.solves", "count", "lower"},
		{"fluid.dirty_flows", "count", "lower"},
		{"fluid.dirty_links", "count", "lower"},
		{"fluid.rounds", "count", "lower"},
		{"fluid.components", "count", "lower"},
		{"fluid.parallel_solves", "count", "lower"},
		{"cm.flow_mods", "count", "lower"},
		{"cm.packet_ins", "count", "lower"},
		{"cm.control_bytes", "bytes", "lower"},
		{"cm.control_writes", "count", "lower"},
		{"cm.route_installs", "count", "lower"},
		{"cm.route_withdraws", "count", "lower"},
		{"go.mallocs", "count", "lower"},
		{"go.gc_cycles", "count", "lower"},
		{"go.gc_pause_s", "s", "lower"},
		{"cpu.profiled_s", "s", "lower"},
	}
	for _, e := range ledgerNames() {
		defs = append(defs, metricDef{"cpu." + e + "_pct", "%", "lower"})
	}
	return append(defs,
		metricDef{"bgp.path_divergence", "ratio", "lower"},
		metricDef{"trace.overhead_s", "s", "lower"},
	)
}

// e2eMetrics reports the end-to-end metrics: the lower quartile of the
// setup samples, and the median of the rest over the experiments.
//
// Setup is reported at its lower quartile because its samples are
// skewed: wiring starts the emulated control plane, whose goroutines then
// share the CPUs with the rest of the wiring. Wiring a fattree:6 SDN
// experiment takes 0.7 ms in most samples and 3-4 ms in a third to a half
// of them, so a run's median flips between the two from run to run while
// the lower quartile stays with the fast one.
func e2eMetrics(setups []float64, its []iteration) map[string]metric {
	return withUnits(endToEnd, map[string]float64{
		"setup_s":  quantile(setups, 0.25),
		"wall_s":   medianOf(its, func(it *iteration) float64 { return it.wall().Seconds() }),
		"cpu_s":    medianOf(its, func(it *iteration) float64 { return it.cpu.Seconds() }),
		"alloc_mb": medianOf(its, func(it *iteration) float64 { return float64(it.mem.TotalAlloc) / 1e6 }),
	})
}

// layerInputs is what a traced run measured.
type layerInputs struct {
	// plain and traced are the experiments of the untraced and the
	// traced pass.
	plain, traced []iteration
	// topoS and trafficS time the standalone topology and traffic
	// builders.
	topoS, trafficS float64
	// ledger is the traced pass's CPU profile time per ledger entry.
	ledger map[string]int64
	// divergence is the checker's full-fingerprint divergence share.
	divergence float64
	pacing     float64
}

// layerMetrics reports the per-layer ledger: medians over the traced
// pass, the CPU profile shares, and the tracing overhead.
func layerMetrics(in layerInputs) map[string]metric {
	f := func(get func(*iteration) float64) float64 { return medianOf(in.traced, get) }
	count := func(get func(*iteration) uint64) float64 {
		return f(func(it *iteration) float64 { return float64(get(it)) })
	}
	vals := map[string]float64{
		"spec.build_s":   f(func(it *iteration) float64 { return it.built.Sub(it.start).Seconds() }),
		"topo.build_s":   in.topoS,
		"traffic.gen_s":  in.trafficS,
		"spec.outcome_s": f(func(it *iteration) float64 { return it.done.Sub(it.ran).Seconds() }),
		"cm.wire_s":      f(func(it *iteration) float64 { return it.res.SetupWall.Seconds() }),
		"cm.teardown_s":  f(func(it *iteration) float64 { return it.teardown().Seconds() }),
		"sim.fti_wall_s": f(func(it *iteration) float64 { return it.res.Sim.WallFTI.Seconds() }),
		"sim.fti_virtual_share": f(func(it *iteration) float64 {
			return ratio(float64(it.res.Sim.VirtualFTI), float64(it.res.Sim.VirtualEnd))
		}),
		"sim.fti_lag": f(func(it *iteration) float64 {
			return ratio(it.res.Sim.WallFTI.Seconds()*in.pacing, it.res.Sim.VirtualFTI.Seconds())
		}),
		"sim.des_wall_s": f(func(it *iteration) float64 { return it.res.Sim.WallDES.Seconds() }),
		"sim.events":     count(func(it *iteration) uint64 { return it.res.Sim.Events }),
		"sim.des_us_per_event": f(func(it *iteration) float64 {
			return ratio(1e6*it.res.Sim.WallDES.Seconds(), float64(it.res.Sim.Events))
		}),
		"sim.transitions":       f(func(it *iteration) float64 { return float64(it.res.Sim.Transitions) }),
		"sim.control_posts":     count(func(it *iteration) uint64 { return it.res.Sim.ControlPosts }),
		"sim.peak_queue":        f(func(it *iteration) float64 { return float64(it.res.Sim.PeakQueueDepth) }),
		"sim.late_events":       count(func(it *iteration) uint64 { return it.res.Sim.LateEvents }),
		"fluid.solves":          f(func(it *iteration) float64 { return float64(it.res.Solver.Solves) }),
		"fluid.dirty_flows":     f(func(it *iteration) float64 { return float64(it.res.Solver.Flows) }),
		"fluid.dirty_links":     f(func(it *iteration) float64 { return float64(it.res.Solver.Links) }),
		"fluid.rounds":          f(func(it *iteration) float64 { return float64(it.res.Solver.Rounds) }),
		"fluid.components":      f(func(it *iteration) float64 { return float64(it.res.Solver.Components) }),
		"fluid.parallel_solves": f(func(it *iteration) float64 { return float64(it.res.Solver.ParallelSolves) }),
		"cm.flow_mods":          count(func(it *iteration) uint64 { return it.res.FlowModsApplied }),
		"cm.packet_ins":         count(func(it *iteration) uint64 { return it.res.PacketIns }),
		"cm.control_bytes":      count(func(it *iteration) uint64 { return it.res.ControlBytes }),
		"cm.control_writes":     count(func(it *iteration) uint64 { return it.res.ControlWrites }),
		"cm.route_installs":     count(func(it *iteration) uint64 { return it.res.RouteInstalls }),
		"cm.route_withdraws":    count(func(it *iteration) uint64 { return it.res.RouteWithdraws }),
		"go.mallocs":            count(func(it *iteration) uint64 { return it.mem.Mallocs }),
		"go.gc_cycles":          f(func(it *iteration) float64 { return float64(it.mem.NumGC) }),
		"go.gc_pause_s":         f(func(it *iteration) float64 { return float64(it.mem.PauseTotalNs) / 1e9 }),
		"cpu.profiled_s":        f(func(it *iteration) float64 { return it.cpu.Seconds() }),
		"bgp.path_divergence":   in.divergence,
		"trace.overhead_s": f(func(it *iteration) float64 { return it.wall().Seconds() }) -
			medianOf(in.plain, func(it *iteration) float64 { return it.wall().Seconds() }),
	}
	var total int64
	for _, ns := range in.ledger {
		total += ns
	}
	for _, e := range ledgerNames() {
		vals["cpu."+e+"_pct"] = 100 * ratio(float64(in.ledger[e]), float64(total))
	}
	return withUnits(perLayer(), vals)
}

// withUnits attaches each declared metric's unit. A value without a
// declaration gets no unit, which the self-tests catch.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metric {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	ms := make(map[string]metric, len(vals))
	for n, v := range vals {
		ms[n] = metric{v, units[n]}
	}
	return ms
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median of xs; xs must not be empty. It sorts xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile q of xs, interpolating linearly between order statistics; xs
// must not be empty. It sorts xs.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// medianOf is the median of f over the iterations.
func medianOf(its []iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, len(its))
	for i := range its {
		xs[i] = f(&its[i])
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite reports whether every value is a finite number.
func finite(ms map[string]metric) bool {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

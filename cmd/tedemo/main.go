// Command tedemo runs one of the paper's three traffic-engineering
// demonstrations on a fat-tree and prints the aggregate receive-rate time
// series (the graph the demo shows "of the aggregated rate of all flows
// arriving at the hosts"), followed by a summary.
//
// With -fail, an agg-core link dies one third into the run and is
// repaired at two thirds: the series shows the throughput collapse and
// the control plane's repair — BGP withdraws and reroutes, or the SDN
// controller reacts to PORT_STATUS — followed by full restoration at
// link-up. A dip/recovery summary quantifies both.
//
// The workload defaults to the paper's permutation but any -traffic
// spec form works (matrix:FILE[:SCALE], pareto, incast, alltoall, …),
// and -capacity adds time-varying link capacity (seeded random walk or
// trace replay); both print a workload summary — goodput tracking and
// the min-host-rx floor distribution — alongside the aggregate series.
//
// Usage:
//
//	tedemo -te bgp|hedera|ecmp5 [-k 4] [-dur 20s] [-pacing 1.0] [-seed 42] [-tsv] [-fail] [-solver-workers N]
//	tedemo -traffic matrix:demands.csv:2 -capacity walk:7:250ms
//	tedemo -traffic incast:42:8 -dur 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	horse "repro"
	"repro/internal/spec"
	"repro/internal/stats"
)

// orNone renders an empty capacity spec as "none" in the summary.
func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// scenarioFor maps the demo's TE names onto the shared spec scenarios:
// the demo's "bgp" is BGP with ECMP path selection.
var scenarioFor = map[string]string{
	"bgp":    "bgp-ecmp",
	"hedera": "hedera",
	"ecmp5":  "ecmp5",
}

func main() {
	var (
		te       = flag.String("te", "ecmp5", "TE approach: bgp, hedera or ecmp5")
		k        = flag.Int("k", 4, "fat-tree arity (4, 6 or 8 in the demo)")
		dur      = flag.Duration("dur", 20*time.Second, "virtual experiment duration")
		pacing   = flag.Float64("pacing", 1.0, "FTI pacing (1.0 = real time)")
		seed     = flag.Int64("seed", 42, "permutation seed")
		tsv      = flag.Bool("tsv", false, "print the full time series as TSV")
		fail     = flag.Bool("fail", false, "inject an agg-core link failure at dur/3, repair at 2*dur/3")
		workers  = flag.Int("solver-workers", 0, "rate solver worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		pcapDir  = flag.String("pcap", "", "record control plane traffic as pcapng traces in DIR")
		trafficS = flag.String("traffic", "", "workload spec (matrix:FILE[:SCALE], pareto[:SEED[:N]], incast[:SEED[:FANIN]], alltoall[:PHASES], ring[:STEPS], …); empty = permutation:<seed>")
		capacity = flag.String("capacity", "", "time-varying link capacity: walk[:SEED[:PERIOD]] or trace:FILE")
	)
	flag.Parse()

	scenario, ok := scenarioFor[*te]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown TE approach %q\n", *te)
		os.Exit(2)
	}
	workload := fmt.Sprintf("permutation:%d", *seed)
	if *trafficS != "" {
		workload = *trafficS
	}
	run := spec.Run{
		Topo:          fmt.Sprintf("fattree:%d", *k),
		Scenario:      scenario,
		Traffic:       workload,
		Capacity:      *capacity,
		Dur:           spec.Duration(*dur),
		Pacing:        *pacing,
		SolverWorkers: *workers,
		CaptureDir:    *pcapDir,
	}
	if *fail || *capacity != "" || *trafficS != "" {
		// Sample finely enough to resolve dips: control plane repair and
		// incast bursts take milliseconds of (FTI-paced) virtual time.
		run.SampleInterval = spec.Duration(10 * time.Millisecond)
	}
	exp, err := run.Experiment()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	end := run.Until()
	failAt, healAt := end/3, 2*end/3
	if *fail {
		// The same victim exists in both the SDN and the BGP fat-tree.
		if err := exp.At(failAt).LinkDown("agg-0-0", "core-0-0"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := exp.At(healAt).LinkUp("agg-0-0", "core-0-0"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	res, err := exp.Run(end)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *tsv {
		fmt.Print(res.AggregateRx.TSV())
	}
	hosts := res.Topology.Hosts
	fmt.Printf("# te=%s k=%d hosts=%d offered=%dGbps\n", *te, *k, hosts, hosts)
	fmt.Printf("steady aggregate rx : %v (%.1f%% of offered)\n",
		res.SteadyAggregateRx(), 100*float64(res.SteadyAggregateRx())/float64(horse.Gbps)/float64(hosts))
	fmt.Printf("peak aggregate rx   : %v\n", horse.Rate(res.AggregateRx.Max()))
	fmt.Printf("execution wall time : %v (setup %v)\n",
		res.Sim.WallTotal.Round(time.Millisecond), res.SetupWall.Round(time.Millisecond))
	fmt.Printf("clock               : FTI %v / DES %v virtual, %d transitions\n",
		res.Sim.VirtualFTI, res.Sim.VirtualDES, res.Sim.Transitions)
	fmt.Printf("control plane       : %d bytes, %d writes, %d flowmods, %d routes, %d packet-ins, %d stats\n",
		res.ControlBytes, res.ControlWrites, res.FlowModsApplied,
		res.RouteInstalls, res.PacketIns, res.StatsQueries)
	fmt.Printf("rate solver         : %d solves, %d components (largest %d flows), %d parallel, workers=%d\n",
		res.Solves, res.Solver.Components, res.Solver.MaxComponentFlows,
		res.Solver.ParallelSolves, res.SolverWorkers)
	mem := res.Solver.Mem
	fmt.Printf("solver memory       : %d flow slots (%d live, %d free), %d links, arenas %d B paths + %d B members, %d B scratch\n",
		mem.FlowSlots, mem.LiveFlows, mem.FreeFlows, mem.LinkSlots,
		mem.PathArenaBytes, mem.MemberArenaBytes, mem.ScratchBytes)
	if res.MeanPathLatency > 0 {
		fmt.Printf("path latency        : %v rate-weighted mean one-way\n", res.MeanPathLatency)
	}
	if len(res.CaptureFiles) > 0 {
		fmt.Printf("capture             : %d pcapng traces in %s\n", len(res.CaptureFiles), *pcapDir)
	}
	if *trafficS != "" || *capacity != "" {
		// Workload summary over the second half of the run (the same
		// steady window SteadyAggregateRx uses): goodput tracking under
		// capacity churn, and the min-host-rx floor distribution that
		// incast bursts carve out.
		half := end / 2
		rx := res.AggregateRx
		fmt.Printf("workload            : traffic=%s capacity=%s (%d injections)\n",
			run.Traffic, orNone(run.Capacity), res.Injections)
		fmt.Printf("  goodput (2nd half): mean %v", horse.Rate(rx.MeanBetween(half, end)))
		if min, ok := rx.MinBetween(half, end); ok {
			fmt.Printf(", min %v at %v", horse.Rate(min.Value), min.At)
		}
		fmt.Println()
		if min, ok := res.MinHostRx.MinBetween(half, end); ok {
			p5, _ := res.MinHostRx.PercentileBetween(half, end, 0.05)
			med, _ := res.MinHostRx.PercentileBetween(half, end, 0.50)
			fmt.Printf("  min host rx floor : %v at %v (p5 %v, median %v)\n",
				horse.Rate(min.Value), min.At, horse.Rate(p5), horse.Rate(med))
		}
	}
	if *fail {
		rx := res.AggregateRx
		pre := rx.MeanBetween(failAt-horse.Second, failAt)
		post := rx.MeanBetween(end-horse.Second, end)
		fmt.Printf("failure injection   : agg-0-0 <-> core-0-0 down @%v, up @%v (%d injections)\n",
			failAt, healAt, res.Injections)
		rep, ok := rx.RepairAfter(failAt, healAt, stats.DefaultRepairFrac)
		if pre <= 0 || !ok {
			fmt.Printf("  no pre-failure baseline: the control plane had not converged by %v; use a longer -dur\n", failAt)
			return
		}
		fmt.Printf("  pre-failure rate  : %v\n", horse.Rate(pre))
		fmt.Printf("  dip               : %v at %v (-%.1f%%)\n",
			horse.Rate(rep.Dip.Value), rep.Dip.At, 100*(pre-rep.Dip.Value)/pre)
		if rep.Recovered {
			fmt.Printf("  repaired          : %v at %v (%v after failure, before link-up)\n",
				horse.Rate(rep.Rec.Value), rep.Rec.At, rep.Latency)
		}
		fmt.Printf("  degraded steady   : %v (%.1f%% of pre-failure)\n", horse.Rate(rep.Degraded), 100*rep.Degraded/pre)
		fmt.Printf("  post-repair rate  : %v (%.1f%% of pre-failure)\n", horse.Rate(post), 100*post/pre)
	}
}

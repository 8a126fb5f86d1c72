// Command horse is the general experiment runner: pick a topology, a
// control plane scenario and a workload, run it under the hybrid clock,
// and print the results. All spec parsing lives in internal/spec,
// shared with cmd/tedemo, cmd/fig3 and the horsed campaign daemon — a
// flag invocation here is the same experiment as the equivalent
// submitted campaign run.
//
// Usage examples:
//
//	horse -topo fattree:4 -scenario ecmp5 -traffic permutation:42 -dur 20s
//	horse -topo ring:8:2 -scenario bgp -traffic stride:1 -dur 30s
//	horse -topo two-routers -scenario bgp -dur 10s
//	horse -traffic matrix:demands.csv:2 -capacity walk:7:250ms -dur 10s
//	horse -traffic incast:42:8 -scenario hedera -dur 10s
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/spec"
)

func main() {
	var (
		topoSpec    = flag.String("topo", "fattree:4", "topology: fattree:K, linear:N, star:N, ring:N[:CHORD], two-routers, wan:NAME (abilene, tier1), wan:mesh:SEED[:POPS], wan:multi:SEED[:ASES[:POPS[:PREFIXES]]]")
		scenario    = flag.String("scenario", "ecmp5", "control plane: bgp, bgp-ecmp, bgp-rr, ecmp5, hedera, reactive")
		trafficSpec = flag.String("traffic", spec.DefaultTraffic, "workload: permutation:SEED, stride:N, matrix:FILE[:SCALE], pareto[:SEED[:N]], lognormal[:SEED[:N]], incast[:SEED[:FANIN]], alltoall[:PHASES], ring[:STEPS], none")
		capacity    = flag.String("capacity", "", "time-varying link capacity: walk[:SEED[:PERIOD]], trace:FILE, none")
		rate        = flag.Float64("rate", spec.DefaultRate, "per-flow rate in Gbps")
		dur         = flag.Duration("dur", spec.DefaultDur.Duration(), "virtual duration")
		pacing      = flag.Float64("pacing", spec.DefaultPacing, "FTI pacing")
		verbose     = flag.Bool("v", false, "log subsystem activity")
		tsv         = flag.Bool("tsv", false, "dump aggregate rx series as TSV")
		workers     = flag.Int("solver-workers", 0, "rate solver worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		delayScale  = flag.Float64("delay-scale", 1.0, "scale WAN geographic link delays (0 = zero-latency ablation)")
		dampening   = flag.Bool("dampening", false, "enable BGP route flap dampening")
		advDelay    = flag.Duration("advertise-delay", 0, "BGP MRAI-style batching window (0 = speaker default 2ms)")
		pcapDir     = flag.String("pcap", "", "record control plane traffic as pcapng traces in DIR (one file per speaker pair; open them in Wireshark)")
	)
	flag.Parse()

	run := spec.Run{
		Topo:           *topoSpec,
		Scenario:       *scenario,
		Traffic:        *trafficSpec,
		Capacity:       *capacity,
		RateGbps:       *rate,
		Dur:            spec.Duration(*dur),
		Pacing:         *pacing,
		SolverWorkers:  *workers,
		DelayScale:     delayScale,
		Dampening:      *dampening,
		AdvertiseDelay: spec.Duration(*advDelay),
		CaptureDir:     *pcapDir,
	}
	// Parse errors are usage errors (exit 2); runtime failures exit 1.
	ts, err := spec.ParseTopo(run.Topo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc, err := spec.ParseScenario(run.Scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ts.WAN() && sc.Name != "bgp-rr" {
		fmt.Fprintln(os.Stderr, "note: single-AS WAN without -scenario bgp-rr runs plain iBGP (no reflection); expect partial convergence")
	}

	exp, err := run.Experiment()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verbose {
		exp.SetLogf(func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) })
	}

	res, err := exp.Run(run.Until())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *tsv {
		fmt.Print(res.AggregateRx.TSV())
	}
	fmt.Println(res)
	fmt.Printf("rate solver: %d solves, %d components (largest %d flows), %d parallel, workers=%d\n",
		res.Solves, res.Solver.Components, res.Solver.MaxComponentFlows,
		res.Solver.ParallelSolves, res.SolverWorkers)
	mem := res.Solver.Mem
	fmt.Printf("solver memory: %d flow slots (%d live, %d free), %d links, arenas %d B paths + %d B members, %d B scratch\n",
		mem.FlowSlots, mem.LiveFlows, mem.FreeFlows, mem.LinkSlots,
		mem.PathArenaBytes, mem.MemberArenaBytes, mem.ScratchBytes)
	if res.MeanPathLatency > 0 {
		fmt.Printf("path latency: %v rate-weighted mean one-way\n", res.MeanPathLatency)
	}
	if conv, ok := res.ConvergedAt(0.95); ok {
		fmt.Printf("converged: aggregate rx reached 95%% of steady at t=%v\n", conv)
	}
	if len(res.CaptureFiles) > 0 {
		fmt.Printf("capture: %d pcapng traces in %s (inspect with Wireshark or cmd/pcapcheck)\n",
			len(res.CaptureFiles), *pcapDir)
	}
}

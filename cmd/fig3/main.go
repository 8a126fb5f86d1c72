// Command fig3 regenerates Figure 3 of the paper: wall-clock execution
// time of the three-TE demonstration suite on Horse versus a packet-level
// real-time emulation baseline (the paper's Mininet), for fat-tree sizes
// k in {4, 6, 8}.
//
// Usage:
//
//	fig3 [-k 4,6,8] [-dur 10s] [-pacing 1.0] [-skip-baseline] [-fail]
//
// With -pacing 1.0 (default) Horse's FTI mode is paper-faithful real
// time; larger values compress control plane wall time proportionally on
// BOTH systems, preserving the ratio.
//
// With -fail, every run (on both systems) takes an agg-core link failure
// at dur/3 repaired at 2*dur/3, and two extra columns report each
// system's repair latency — the time from the post-failure throughput dip
// until delivery returns to the degraded steady rate, in virtual time —
// plus their ratio. Repair-latency speedup is the stronger headline than
// steady-state speedup: Horse measures the control plane's actual repair
// conversation, while the baseline pays its calibrated reconvergence
// delay in real time.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// failFrom and failTo name the victim cable of -fail runs; the same
// agg-core cable exists in the BGP, SDN and baseline fat-trees.
const (
	failFrom = "agg-0-0"
	failTo   = "core-0-0"
)

func main() {
	var (
		kList        = flag.String("k", "4,6,8", "comma-separated fat-tree arities")
		dur          = flag.Duration("dur", 10*time.Second, "virtual duration per TE experiment")
		pacing       = flag.Float64("pacing", 1.0, "FTI pacing (1.0 = paper-faithful real time)")
		skipBaseline = flag.Bool("skip-baseline", false, "run only Horse")
		seed         = flag.Int64("seed", 42, "traffic permutation seed")
		workers      = flag.Int("solver-workers", 0, "rate solver worker goroutines (0 = GOMAXPROCS, 1 = sequential)")
		fail         = flag.Bool("fail", false, "inject an agg-core link failure at dur/3 (repair at 2*dur/3) into every run and report repair latency")
		pcapDir      = flag.String("pcap", "", "record each Horse run's control plane as pcapng traces under DIR/k<K>-<te>/")
	)
	flag.Parse()

	fmt.Printf("# Figure 3: execution time of the demonstration (3 TE approaches, %v virtual each, pacing %.1f, fail=%v)\n", *dur, *pacing, *fail)
	header := fmt.Sprintf("%-4s %-14s %-14s", "k", "horse-setup", "horse-exec")
	if *fail {
		header += fmt.Sprintf(" %-13s", "horse-repair")
	}
	if !*skipBaseline {
		header += fmt.Sprintf(" %-14s", "baseline-exec")
		if *fail {
			header += fmt.Sprintf(" %-13s", "base-repair")
		}
		header += fmt.Sprintf(" %-8s", "ratio")
		if *fail {
			header += fmt.Sprintf(" %-12s", "repair-ratio")
		}
	}
	fmt.Println(header)

	for _, ks := range strings.Split(*kList, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(ks))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad k %q: %v\n", ks, err)
			os.Exit(1)
		}
		horseSetup, horseExec, horseRepair := runHorseSuite(k, *dur, *pacing, *seed, *workers, *fail, *pcapDir)
		line := fmt.Sprintf("%-4d %-14v %-14v", k, horseSetup.Round(time.Millisecond), horseExec.Round(time.Millisecond))
		if *fail {
			line += fmt.Sprintf(" %-13v", horseRepair.Round(time.Millisecond))
		}
		if *skipBaseline {
			fmt.Println(line)
			continue
		}
		baseExec, baseRepair := runBaselineSuite(k, *dur, *pacing, *seed, *fail)
		line += fmt.Sprintf(" %-14v", baseExec.Round(time.Millisecond))
		if *fail {
			line += fmt.Sprintf(" %-13v", baseRepair.Round(time.Millisecond))
		}
		// The denominators can legitimately be zero (no repair observed,
		// a degenerate run); the shared stats.Ratio guard keeps NaN/Inf
		// out of the table.
		if r, ok := stats.Ratio(float64(baseExec), float64(horseExec)); ok {
			line += fmt.Sprintf(" %-8.2f", r)
		} else {
			line += fmt.Sprintf(" %-8s", "n/a")
		}
		if *fail {
			if r, ok := stats.Ratio(float64(baseRepair), float64(horseRepair)); ok && baseRepair > 0 {
				line += fmt.Sprintf(" %-12.2f", r)
			} else {
				line += fmt.Sprintf(" %-12s", "n/a")
			}
		}
		fmt.Println(line)
	}
}

// runHorseSuite executes the three TE experiments on Horse and returns
// (topology setup, execution) wall times plus — under -fail — the mean
// repair latency in virtual time.
func runHorseSuite(k int, dur time.Duration, pacing float64, seed int64, workers int, fail bool, pcapDir string) (setup, exec, repair time.Duration) {
	until := core.FromDuration(dur)
	failAt, healAt := until/3, 2*until/3
	var repairs, repaired int
	var repairSum core.Time
	for _, te := range []string{"bgp-ecmp", "hedera", "ecmp5"} {
		// The three TE runs are ordinary spec.Runs — the same ones a
		// horsed campaign over topos=[fattree:k] × scenarios=[...]
		// would expand to.
		run := spec.Run{
			Topo:          fmt.Sprintf("fattree:%d", k),
			Scenario:      te,
			Traffic:       fmt.Sprintf("permutation:%d", seed),
			Dur:           spec.Duration(dur),
			Pacing:        pacing,
			SolverWorkers: workers,
		}
		if fail {
			// Sample finely enough to resolve the dip and repair.
			run.SampleInterval = spec.Duration(10 * time.Millisecond)
		}
		if pcapDir != "" {
			run.CaptureDir = filepath.Join(pcapDir, fmt.Sprintf("k%d-%s", k, te))
		}
		exp, err := run.Experiment()
		if err != nil {
			fmt.Fprintf(os.Stderr, "k=%d %s: %v\n", k, te, err)
			os.Exit(1)
		}
		if fail {
			if err := exp.At(failAt).LinkDown(failFrom, failTo); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := exp.At(healAt).LinkUp(failFrom, failTo); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		res, err := exp.Run(until)
		if err != nil {
			fmt.Fprintf(os.Stderr, "k=%d %s: %v\n", k, te, err)
			os.Exit(1)
		}
		setup += res.SetupWall
		exec += res.Sim.WallTotal
		repairNote := ""
		if fail {
			repairs++
			if rep, ok := res.AggregateRx.RepairAfter(failAt, healAt, stats.DefaultRepairFrac); ok && rep.Recovered {
				repaired++
				repairSum += rep.Latency
				repairNote = fmt.Sprintf(" repair=%v", rep.Latency)
			} else {
				repairNote = " repair=n/a"
			}
		}
		fmt.Fprintf(os.Stderr, "  horse k=%d %-9s wall=%-10v steady-rx=%v%s\n",
			k, te, res.Sim.WallTotal.Round(time.Millisecond), res.SteadyAggregateRx(), repairNote)
	}
	if repaired > 0 {
		repair = (repairSum / core.Time(repaired)).Duration()
	}
	return setup, exec, repair
}

// runBaselineSuite executes the equivalent three runs on the real-time
// emulator: each pays topology setup plus the experiment duration 1:1
// with the wall clock (scaled by the same pacing factor). Under -fail the
// same agg-core cable dies at dur/3 and heals at 2*dur/3, and the mean
// repair latency (converted to virtual time via the pacing factor, so it
// compares directly with Horse's) is returned alongside.
func runBaselineSuite(k int, dur time.Duration, pacing float64, seed int64, fail bool) (exec, repair time.Duration) {
	var repairSum time.Duration
	repaired := 0
	for te := 0; te < 3; te++ {
		g, err := topo.FatTree(topo.FatTreeOpts{K: k})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		em, err := baseline.New(g, baseline.Config{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		wallDur := time.Duration(float64(dur) / pacing)
		var injs []baseline.Injection
		var failAt, healAt time.Duration
		if fail {
			cable := failCable(g)
			failAt, healAt = wallDur/3, 2*wallDur/3
			injs = append(injs,
				baseline.Injection{At: failAt, Link: cable, Down: true},
				baseline.Injection{At: healAt, Link: cable, Down: false})
		}
		st := em.Run(flowsFor(g, seed), wallDur, injs...)
		em.Close()
		exec += em.SetupTime + st.Wall
		repairNote := ""
		if fail {
			if lat, ok := st.RepairLatency(failAt, healAt, stats.DefaultRepairFrac); ok {
				repaired++
				lat = time.Duration(float64(lat) * pacing) // wall -> virtual
				repairSum += lat
				repairNote = fmt.Sprintf(" repair=%v", lat.Round(time.Millisecond))
			} else {
				repairNote = " repair=n/a"
			}
		}
		fmt.Fprintf(os.Stderr, "  baseline k=%d run %d setup=%v %v%s\n", k, te+1,
			em.SetupTime.Round(time.Millisecond), st, repairNote)
	}
	if repaired > 0 {
		repair = repairSum / time.Duration(repaired)
	}
	return exec, repair
}

// failCable resolves the victim cable in the baseline's topology.
func failCable(g *topo.Graph) core.LinkID {
	a, ok := g.NodeByName(failFrom)
	if !ok {
		fmt.Fprintf(os.Stderr, "no node %q in the baseline fat-tree\n", failFrom)
		os.Exit(1)
	}
	b, ok := g.NodeByName(failTo)
	if !ok {
		fmt.Fprintf(os.Stderr, "no node %q in the baseline fat-tree\n", failTo)
		os.Exit(1)
	}
	l := g.CableBetween(a.ID, b.ID)
	if l == nil {
		fmt.Fprintf(os.Stderr, "no cable between %q and %q\n", failFrom, failTo)
		os.Exit(1)
	}
	return l.ID
}

func flowsFor(g *topo.Graph, seed int64) []baseline.FlowSpec {
	hosts := g.Hosts()
	specs := traffic.Permutation(seed, 1*core.Gbps, 0, 0)(len(hosts))
	out := make([]baseline.FlowSpec, 0, len(specs))
	for _, s := range specs {
		src := hosts[s.SrcHost]
		dst := hosts[s.DstHost]
		out = append(out, baseline.FlowSpec{
			Tuple: core.FiveTuple{Src: src.IP, Dst: dst.IP, Proto: s.Proto,
				SrcPort: s.SrcPort, DstPort: s.DstPort},
			Src: src.ID, Dst: dst.ID, Rate: s.Rate,
		})
	}
	return out
}

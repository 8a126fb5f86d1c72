// Command horsebench is the repository's end-to-end benchmark. It runs
// whole Horse experiments through the public path the CLIs use —
// spec.Run.Experiment, (*horse.Experiment).Run, spec.NewOutcome — one at
// a time at paper-faithful pacing 1, checks every run's converged
// fingerprint, and prints the metrics as one JSON line.
//
// Build and run it through run.sh from the repository root:
//
//	bash horsebench/run.sh --workload sdn-boot --seed 42 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (setup_s, wall_s,
// cpu_s, alloc_mb); with --trace 1 it runs an untraced and a traced pass
// and reports the per-layer ledger. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	horse "repro"
	"repro/internal/spec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// deadline is how long a run may take before it reports itself failed;
// one experiment that hangs must not hold the benchmark past its limit.
const deadline = 160 * time.Second

// A run of the end-to-end metrics makes full experiments for the first
// 1-probeShare of its time, at least minExperiments of them. It then adds
// setup-only experiments to its setup_s sample until its time is up, for
// at least probeShare of it, and between minProbes and maxProbes of them.
const (
	minExperiments = 3
	minProbes      = 3
	maxProbes      = 20
	probeShare     = 0.15
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("horsebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 0, "traffic seed (default: the workload's pinned seed)")
	secs := fs.Int("seconds", 25, "how long to measure")
	trace := fs.Int("trace", 0, "1 for the traced run that reports the per-layer ledger")
	out := fs.String("out", filepath.Join(".bench_build", "horsebench"), "directory for the traced run's spans and CPU profile")
	pin := fs.Bool("pin", false, "print the reference fingerprint summary for the seed instead of benchmarking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "horsebench:", err)
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = w.defaultSeed
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "horsebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "horsebench:", err)
		return 1
	}
	b := &bench{
		w:    w,
		seed: *seed,
		spec: w.run(*seed).WithDefaults(),
		chk:  newChecker(w, *seed, refs),
		log:  stderr,
		out:  stdout,
	}
	if *pin {
		b.chk = newChecker(w, *seed, nil)
		return b.pin(3)
	}
	timer := time.AfterFunc(deadline, func() {
		b.report(nil, fmt.Sprintf("timed out after %v", deadline))
		os.Exit(1)
	})
	defer timer.Stop()

	budget := time.Duration(*secs) * time.Second
	var metrics map[string]metric
	if *trace == 0 {
		metrics = b.endToEnd(budget)
	} else {
		metrics, err = b.traced(budget, *out)
		if err != nil {
			b.fail("%v", err)
		}
	}
	if !b.report(metrics, "") {
		return 1
	}
	return 0
}

// bench runs one workload at one seed.
type bench struct {
	w    *workload
	seed int64
	spec spec.Run
	chk  *checker
	log  io.Writer
	out  io.Writer

	mu        sync.Mutex // guards the fields below against the deadline timer
	attempted int
	failed    int
	done      bool
}

// iteration is one experiment's measurements.
type iteration struct {
	// start → built is Experiment(); built → ran is Run; ran → done is
	// NewOutcome.
	start, built, ran, done time.Time
	cpu                     time.Duration
	mem                     runtime.MemStats // delta over start → ran
	// res is the Result without its per-flow and time-series payload.
	res horse.Result
}

func (it *iteration) setup() time.Duration { return it.built.Sub(it.start) + it.res.SetupWall }
func (it *iteration) wall() time.Duration  { return it.ran.Sub(it.start) }
func (it *iteration) teardown() time.Duration {
	return it.ran.Sub(it.built) - it.res.SetupWall - it.res.Sim.WallTotal
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// experiment builds and runs one experiment until the virtual time
// until, measuring it. It counts the attempt; the caller counts a
// failure.
func (b *bench) experiment(until horse.Time) (*iteration, *horse.Result, error) {
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	it := &iteration{}
	c0 := cpuTime()
	it.start = time.Now()
	exp, err := b.spec.Experiment()
	it.built = time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("building experiment: %w", err)
	}
	res, err := exp.Run(until)
	it.ran = time.Now()
	it.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, fmt.Errorf("running experiment: %w", err)
	}
	it.mem = runtime.MemStats{
		TotalAlloc:   m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:      m1.Mallocs - m0.Mallocs,
		NumGC:        m1.NumGC - m0.NumGC,
		PauseTotalNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	it.res = *res
	it.res.Flows, it.res.AggregateRx, it.res.MinHostRx, it.res.PerHostRxBytes = nil, nil, nil, nil
	return it, res, nil
}

// iterate runs one full experiment and checks its outputs.
func (b *bench) iterate() (*iteration, bool) {
	it, res, err := b.experiment(b.spec.Until())
	if err != nil {
		b.fail("%v", err)
		return nil, false
	}
	fp := spec.NewOutcome(b.spec, res).Fingerprint
	it.done = time.Now()
	if d := b.chk.check(fp); len(d) > 0 {
		b.fail("output check failed:\n  %s", strings.Join(d, "\n  "))
		return nil, false
	}
	return it, true
}

// probeSetup runs an experiment for 1ns of virtual time: its setup is
// exactly a full run's, so it adds a setup_s sample at a fraction of
// the cost.
func (b *bench) probeSetup() (time.Duration, bool) {
	it, _, err := b.experiment(1)
	if err != nil {
		b.fail("setup probe: %v", err)
		return 0, false
	}
	return it.setup(), true
}

// repeat runs checked experiments until budget is spent, and at least
// atLeast of them. It returns the ones that passed.
func (b *bench) repeat(budget time.Duration, atLeast int, onEach func(*iteration)) []iteration {
	start := time.Now()
	var its []iteration
	var last time.Duration
	for n := 0; n < atLeast || time.Since(start)+last/2 < budget; n++ {
		t := time.Now()
		it, ok := b.iterate()
		last = time.Since(t)
		if ok {
			fmt.Fprintf(b.log, "horsebench: %s seed %d: wall %.3fs setup %.4fs cpu %.3fs alloc %.0fMB fti %.3fs des %.3fs transitions %d\n",
				b.w.name, b.seed, it.wall().Seconds(), it.setup().Seconds(), it.cpu.Seconds(), float64(it.mem.TotalAlloc)/1e6,
				it.res.Sim.WallFTI.Seconds(), it.res.Sim.WallDES.Seconds(), it.res.Sim.Transitions)
			if onEach != nil {
				onEach(it)
			}
			its = append(its, *it)
		}
	}
	return its
}

// endToEnd measures the end-to-end metrics with tracing off: full
// experiments first, then setup-only probes. The probes run after the experiments have grown the heap, so that, like
// the experiments' own setups after the first, they time the program
// rather than the Go runtime's first-touch of fresh memory.
func (b *bench) endToEnd(budget time.Duration) map[string]metric {
	start := time.Now()
	its := b.repeat(time.Duration((1-probeShare)*float64(budget)), minExperiments, nil)
	if len(its) == 0 {
		return nil
	}
	var setups []float64
	for i := range its {
		setups = append(setups, its[i].setup().Seconds())
	}
	probeEnd := time.Now().Add(time.Duration(probeShare * float64(budget)))
	if end := start.Add(budget); end.After(probeEnd) {
		probeEnd = end
	}
	for n := 0; n < maxProbes && (n < minProbes || time.Now().Before(probeEnd)); n++ {
		if s, ok := b.probeSetup(); ok {
			setups = append(setups, s.Seconds())
		}
	}
	ms := e2eMetrics(setups, its)
	fmt.Fprintf(b.out, "%s seed %d: %d experiments, %d setup samples\n", b.w.name, b.seed, len(its), len(setups))
	return ms
}

// traced runs an untraced pass and a traced pass of half the budget each,
// and reports the per-layer ledger of the traced pass. The traced pass
// records spans and a CPU profile, and writes both to outDir.
func (b *bench) traced(budget time.Duration, outDir string) (map[string]metric, error) {
	plain := b.repeat(budget/2, 1, nil)
	if len(plain) == 0 {
		return nil, nil
	}
	topoS, trafficS, err := b.timeBuilders()
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	traces := 0
	its := b.repeat(budget/2, 1, func(it *iteration) {
		traces++
		tr.record(traces, it)
	})
	pprof.StopCPUProfile()
	if len(its) == 0 {
		return nil, nil
	}
	stacks, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	ledger := attribute(stacks)
	if err := b.writeTrace(outDir, tr.finish(), prof.Bytes()); err != nil {
		return nil, err
	}

	ms := layerMetrics(layerInputs{
		plain: plain, traced: its, topoS: topoS, trafficS: trafficS,
		ledger: ledger, divergence: b.chk.divergence(), pacing: b.spec.Pacing,
	})
	fmt.Fprintf(b.out, "%s seed %d: %d untraced and %d traced experiments, %d profile samples\n",
		b.w.name, b.seed, len(plain), len(its), len(stacks))
	return ms, nil
}

// timeBuilders times the topology and traffic builders the spec layer
// calls inside Experiment(), standalone and outside the profile: the
// median of five calls each.
func (b *bench) timeBuilders() (topoS, trafficS float64, err error) {
	ts, err := spec.ParseTopo(b.spec.Topo)
	if err != nil {
		return 0, 0, err
	}
	sc, err := spec.ParseScenario(b.spec.Scenario)
	if err != nil {
		return 0, 0, err
	}
	tf, err := spec.ParseTraffic(b.spec.Traffic)
	if err != nil {
		return 0, 0, err
	}
	var tt, ft []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := ts.Build(sc.BGP(), *b.spec.DelayScale); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := tf.Pattern(horse.Rate(b.spec.RateGbps)*horse.Gbps, b.spec.Until()); err != nil {
			return 0, 0, err
		}
		tt = append(tt, t1.Sub(t0).Seconds())
		ft = append(ft, time.Since(t1).Seconds())
	}
	return median(tt), median(ft), nil
}

// writeTrace writes the spans and the CPU profile of a traced run.
func (b *bench) writeTrace(dir string, spans []span, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	js, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.w.name, b.seed, spans}, "", "  ")
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(base+".spans.json", js, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(b.log, "horsebench: spans and CPU profile in %s.{spans.json,cpu.pprof}\n", base)
	return nil
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	fmt.Fprintf(b.log, "horsebench: %s seed %d: "+format+"\n", append([]any{b.w.name, b.seed}, args...)...)
}

// report prints the metrics and the result line, once. A non-empty
// abort counts one more failed attempt. It reports whether the run was
// correct.
func (b *bench) report(ms map[string]metric, abort string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return false
	}
	b.done = true
	if abort != "" {
		b.attempted++
		b.failed++
		fmt.Fprintf(b.log, "horsebench: %s seed %d: %s\n", b.w.name, b.seed, abort)
	}
	if ms == nil {
		ms = map[string]metric{}
	}
	correct := b.failed == 0 && len(ms) > 0 && finite(ms)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "  %-24s %14.6f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Fprintf(b.out, "  %-24s %d/%d\n", "failed/attempted", b.failed, b.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, ms})
	if err != nil {
		fmt.Fprintln(b.log, "horsebench:", err)
		return false
	}
	fmt.Fprintln(b.out, string(line))
	return correct
}

// pin runs the workload n times at its seed and prints the reference
// entry for testdata/refs.json. The runs must agree on the checked
// projection; the full digest pinned is the most common one.
func (b *bench) pin(n int) int {
	var ref reference
	for i := 0; i < n; i++ {
		_, res, err := b.experiment(b.spec.Until())
		if err != nil {
			fmt.Fprintln(b.log, "horsebench:", err)
			return 1
		}
		fp := spec.NewOutcome(b.spec, res).Fingerprint
		if d := b.chk.check(fp); len(d) > 0 {
			fmt.Fprintf(b.log, "horsebench: runs disagree:\n  %s\n", strings.Join(d, "\n  "))
			return 1
		}
		ref.Summary = summarize(b.chk.project(fp))
	}
	best := 0
	for digest, k := range b.chk.full {
		if k > best {
			best, ref.FullDigest = k, digest
		}
	}
	ref.Seed = b.seed
	js, err := json.MarshalIndent(map[string]reference{b.w.name: ref}, "", "  ")
	if err != nil {
		fmt.Fprintln(b.log, "horsebench:", err)
		return 1
	}
	fmt.Fprintln(b.out, string(js))
	return 0
}

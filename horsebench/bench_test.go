package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

// sampleFingerprint is a small converged fingerprint with path
// latencies, as a WAN run produces.
func sampleFingerprint() spec.Fingerprint {
	fp := spec.Fingerprint{
		Hosts: 3, Switches: 2, Routers: 1, MeanPathLatencyNs: 12_000_000,
		SteadyRxBits: math.Float64bits(2.5e9), SteadyRx: "2.5Gbps",
	}
	for i, bps := range []float64{1e9, 5e8, 1e9} {
		fp.Flows = append(fp.Flows, spec.FlowPrint{
			Tuple: fmt.Sprintf("10.0.0.%d:1->10.0.1.1:80/6", i+1), State: "active",
			RateBits: math.Float64bits(bps), Rate: fmt.Sprint(bps), PathLatencyNs: int64(10_000_000 + i),
		})
	}
	return fp
}

func TestCheckerRejectsFlippedRateBit(t *testing.T) {
	w := &workload{name: "sdn-boot"}
	fp := sampleFingerprint()
	flipped := sampleFingerprint()
	flipped.Flows[1].RateBits ^= 1

	refs := map[string]reference{"sdn-boot": {Seed: 42, FullDigest: fp.Digest(), Summary: summarize(fp)}}
	pinned := newChecker(w, 42, refs)
	if d := pinned.check(fp); len(d) > 0 {
		t.Fatalf("reference fingerprint rejected: %v", d)
	}
	d := pinned.check(flipped)
	if len(d) == 0 {
		t.Fatal("a flipped rate bit passed the pinned check")
	}
	if !strings.Contains(strings.Join(d, "\n"), "flows[0:64] digest") {
		t.Errorf("mismatch report does not name the flow range: %v", d)
	}

	// An unpinned seed: runs must agree with the first.
	free := newChecker(w, 5, refs)
	if d := free.check(fp); len(d) > 0 {
		t.Fatalf("first run rejected: %v", d)
	}
	d = free.check(flipped)
	if !strings.Contains(strings.Join(d, "\n"), "flow 1 10.0.0.2:1->10.0.1.1:80/6 rate_bits") {
		t.Errorf("disagreement report does not name the flow's rate: %v", d)
	}
}

func TestInvariants(t *testing.T) {
	w := &workload{name: "x"}
	fp := sampleFingerprint()
	if d := invariants(w, fp); len(d) > 0 {
		t.Fatalf("valid fingerprint rejected: %v", d)
	}
	for name, mutate := range map[string]func(*spec.Fingerprint){
		"zero steady rx": func(fp *spec.Fingerprint) { fp.SteadyRxBits = 0 },
		"pending flow":   func(fp *spec.Fingerprint) { fp.Flows[0].State = "pending" },
		"done flow":      func(fp *spec.Fingerprint) { fp.Flows[0].State = "done" },
		"zero rate":      func(fp *spec.Fingerprint) { fp.Flows[0].RateBits = 0 },
		"over demand":    func(fp *spec.Fingerprint) { fp.Flows[0].RateBits = math.Float64bits(1.5e9) },
	} {
		bad := sampleFingerprint()
		mutate(&bad)
		if d := invariants(w, bad); len(d) == 0 {
			t.Errorf("%s passed the invariants", name)
		}
	}
	done := sampleFingerprint()
	done.Flows[0].State = "done"
	if d := invariants(&workload{flowsEnd: true}, done); len(d) > 0 {
		t.Errorf("finished flow rejected where flows end: %v", d)
	}
}

// mutate changes one scalar field in place.
func mutate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() ^ 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("unhandled kind " + v.Kind().String())
	}
}

// TestPathFreeIgnoresOnlyPathLatency changes every fingerprint field in
// turn: the bgp projection's digest must move for each one except the
// two path latencies.
func TestPathFreeIgnoresOnlyPathLatency(t *testing.T) {
	base := pathFree(sampleFingerprint()).Digest()
	ignored := map[string]bool{"MeanPathLatencyNs": true, "PathLatencyNs": true}
	check := func(field string, fp spec.Fingerprint) {
		t.Helper()
		moved := pathFree(fp).Digest() != base
		if moved == ignored[field] {
			t.Errorf("changing %s: projection digest moved = %v, want %v", field, moved, !ignored[field])
		}
	}
	ft := reflect.TypeOf(spec.Fingerprint{})
	for i := 0; i < ft.NumField(); i++ {
		if ft.Field(i).Name == "Flows" {
			continue
		}
		fp := sampleFingerprint()
		mutate(reflect.ValueOf(&fp).Elem().Field(i))
		check(ft.Field(i).Name, fp)
	}
	flt := reflect.TypeOf(spec.FlowPrint{})
	for i := 0; i < flt.NumField(); i++ {
		fp := sampleFingerprint()
		mutate(reflect.ValueOf(&fp.Flows[2]).Elem().Field(i))
		check(flt.Field(i).Name, fp)
	}
	fp := sampleFingerprint()
	fp.Flows = fp.Flows[:2]
	check("Flows", fp)
}

func TestProfileAttribution(t *testing.T) {
	stacks := []stack{
		{[]string{"repro/internal/topo.AllShortestPaths", "repro/internal/controller.(*ECMPApp).install", "repro/internal/cm.(*Manager).run"}, 10},
		{[]string{"runtime.memmove", "repro/internal/core.Rate.String", "repro/internal/fluid.(*Set).solve.func1"}, 20},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 40},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/bgp.(*trie).insert"}, 80},
		{[]string{"repro/internal/fib.(*Table).Insert[...]", "repro/internal/bgp.(*Speaker).decide"}, 160},
		{[]string{"repro.(*Experiment).Run.func3", "main.(*bench).experiment"}, 320},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}, 640},
		{[]string{"main.(*bench).iterate", "main.main"}, 1280},
		{[]string{"repro/internal/flowtable.(*Table).Lookup", "repro/internal/netmodel.(*Network).route"}, 2560},
	}
	want := map[string]int64{
		"topo": 10, "fluid": 20, "gc": 40 + 80, "fib": 160, "horse": 320,
		"other": 640 + 1280, "flowtable": 2560,
	}
	if got := attribute(stacks); !reflect.DeepEqual(got, want) {
		t.Errorf("attribute = %v, want %v", got, want)
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeProfile decodes a real CPU profile of a busy loop.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.ns
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total <= 0 || inSpin < total/2 {
		t.Errorf("decoded %d samples, %v total, %v in spin; want most of it in spin", len(stacks), time.Duration(total), time.Duration(inSpin))
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{1, 2}, 0.25, 1.25},
		{[]float64{7}, 0.25, 7},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{t0: t0}
	root := tr.add(1, 0, "run", at(0), at(100))
	tr.add(1, root, "spec.build", at(0), at(10))
	tr.add(1, root, "experiment.run", at(10), at(90))
	spans := tr.finish()
	if got := spans[0].Self; math.Abs(got-0.010) > 1e-9 {
		t.Errorf("run self time = %v, want 0.010", got)
	}
	if got := spans[2].Self; math.Abs(got-0.080) > 1e-9 {
		t.Errorf("leaf self time = %v, want its duration 0.080", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesDeclared holds the metrics the harness emits, and its
// workloads, in lockstep with BENCHMARK.json.
func TestNamesDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range bj.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if loop := "for w in " + strings.Join(names, " ") + "; do"; !strings.Contains(string(script), loop) {
		t.Errorf("run.sh does not loop over the workloads with %q", loop)
	}

	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", endToEnd, e2e)
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", perLayer(), layer)
	}

	// What the harness emits, from synthetic experiments.
	its := []iteration{{mem: testMem()}, {mem: testMem()}}
	emitted := map[string]map[string]metric{
		"end_to_end": e2eMetrics([]float64{0.1}, its),
		"per_layer": layerMetrics(layerInputs{
			plain: its, traced: its, ledger: map[string]int64{"fluid": 1, "gc": 1}, pacing: 1,
		}),
	}
	for kind, defs := range map[string][]metricDef{"end_to_end": e2e, "per_layer": layer} {
		ms := emitted[kind]
		if len(ms) != len(defs) {
			t.Errorf("%s: emitted %d metrics, declared %d", kind, len(ms), len(defs))
		}
		for _, d := range defs {
			m, ok := ms[d.name]
			if !ok {
				t.Errorf("%s: declared %s is not emitted", kind, d.name)
			} else if m.Unit != d.unit {
				t.Errorf("%s: %s emitted in %q, declared %q", kind, d.name, m.Unit, d.unit)
			}
		}
		for name := range ms {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: emitted name %q is not a valid metric name", kind, name)
			}
		}
	}
}

func testMem() runtime.MemStats { return runtime.MemStats{TotalAlloc: 1e6} }

// TestReferencesPinned: every workload has a pinned reference at its
// default seed.
func TestReferencesPinned(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		ref, ok := refs[w.name]
		if !ok || ref.Seed != w.defaultSeed || ref.Summary.Digest == "" || ref.FullDigest == "" {
			t.Errorf("%s: no reference pinned at seed %d: %+v", w.name, w.defaultSeed, ref)
		}
		if !w.pathLatencyJitters && ref.FullDigest != ref.Summary.Digest {
			t.Errorf("%s is checked exactly, but its full digest %s differs from the checked %s", w.name, ref.FullDigest, ref.Summary.Digest)
		}
	}
}

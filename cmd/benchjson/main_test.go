package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchOutput is a realistic `go test -bench -benchmem` transcript.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkSolveScale/flows=1000-8         	     100	   1804695 ns/op	       3 B/op	       0 allocs/op
BenchmarkSolveScale/flows=10000-8        	      10	  18046950 ns/op	      30 B/op	       1 allocs/op
BenchmarkSolveIncremental-8              	    5000	    240000 ns/op	12000 solved-flows/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	4.2s
`

// TestParse covers the happy path: headers, -benchmem metrics, extra
// ReportMetric units, and GOMAXPROCS suffix stripping.
func TestParse(t *testing.T) {
	e, err := parse(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if e.CPU != "AMD EPYC 7B13" {
		t.Errorf("CPU = %q", e.CPU)
	}
	if e.Package != "repro" {
		t.Errorf("Package = %q", e.Package)
	}
	if len(e.Benchmarks) != 3 {
		t.Fatalf("%d benchmarks, want 3", len(e.Benchmarks))
	}

	first := e.Benchmarks[0]
	// The -8 GOMAXPROCS suffix is stripped; the =1000 parameter is not.
	if first.Name != "BenchmarkSolveScale/flows=1000" {
		t.Errorf("name = %q, want the -8 suffix stripped", first.Name)
	}
	if first.Iterations != 100 {
		t.Errorf("iterations = %d", first.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 1804695, "B/op": 3, "allocs/op": 0,
	} {
		if got := first.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}

	// Custom ReportMetric units ride along.
	third := e.Benchmarks[2]
	if third.Name != "BenchmarkSolveIncremental" {
		t.Errorf("name = %q", third.Name)
	}
	if got := third.Metrics["solved-flows/op"]; got != 12000 {
		t.Errorf("solved-flows/op = %v, want 12000", got)
	}
}

// TestParseKeepsGOMAXPROCS pins that the core count survives the name
// stripping: the -N suffix becomes the gomaxprocs field, a missing
// suffix (go test omits it at one core) reads as 1, and a trailing
// parameter value is left in the name.
func TestParseKeepsGOMAXPROCS(t *testing.T) {
	in := `BenchmarkSolveScale/workers=8-2   	 3	 9300000 ns/op
BenchmarkSolveScale/workers=8-16  	 3	 9800000 ns/op
BenchmarkSolveScale/flows=100000  	 3	 9700000 ns/op
`
	e, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name  string
		procs int
	}{
		{"BenchmarkSolveScale/workers=8", 2},
		{"BenchmarkSolveScale/workers=8", 16},
		{"BenchmarkSolveScale/flows=100000", 1},
	}
	if len(e.Benchmarks) != len(want) {
		t.Fatalf("%d benchmarks, want %d", len(e.Benchmarks), len(want))
	}
	for i, w := range want {
		if got := e.Benchmarks[i]; got.Name != w.name || got.GOMAXPROCS != w.procs {
			t.Errorf("benchmark %d = %q gomaxprocs %d, want %q gomaxprocs %d", i, got.Name, got.GOMAXPROCS, w.name, w.procs)
		}
	}

	// The field is written on new entries and absent from legacy ones.
	buf, err := json.Marshal([]Benchmark{e.Benchmarks[0], {Name: "legacy"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf); !strings.Contains(got, `"gomaxprocs":2`) || strings.Count(got, "gomaxprocs") != 1 {
		t.Errorf("marshalled = %s, want gomaxprocs on the new entry only", got)
	}
}

// TestParseRejectsEmpty pins the error when no result lines appear (the
// piped `go test` run failed or matched no benchmarks).
func TestParseRejectsEmpty(t *testing.T) {
	for _, in := range []string{
		"",
		"goos: linux\nPASS\nok  \trepro\t0.1s\n",
		// A Benchmark line with a malformed iteration count is skipped,
		// leaving nothing.
		"BenchmarkBroken-8 xyz 123 ns/op\n",
		// Odd field count (torn line) is skipped too.
		"BenchmarkTorn-8 100 1804695\n",
	} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse(%q) succeeded, want error", in)
		}
	}
}

// TestMerge pins replace-by-label semantics.
func TestMerge(t *testing.T) {
	a := Entry{Label: "before", Benchmarks: []Benchmark{{Name: "X", Iterations: 1}}}
	b := Entry{Label: "after"}
	entries := merge(nil, a)
	entries = merge(entries, b)
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}

	a2 := Entry{Label: "before", Benchmarks: []Benchmark{{Name: "X", Iterations: 99}}}
	entries = merge(entries, a2)
	if len(entries) != 2 {
		t.Fatalf("merge duplicated the label: %d entries", len(entries))
	}
	if entries[0].Benchmarks[0].Iterations != 99 {
		t.Error("merge did not replace the matching entry in place")
	}
	if entries[0].Label != "before" || entries[1].Label != "after" {
		t.Error("merge reordered entries")
	}
}

// TestMergeSeqMonotonic pins the run-ordering key: every recording
// takes the next seq — including a re-run of an existing label, which
// keeps its array slot but moves to the end of the seq order. Without
// this, a commit re-run on the same day is unsortable (same label,
// same date, same commit).
func TestMergeSeqMonotonic(t *testing.T) {
	entries := merge(nil, Entry{Label: "before"})
	entries = merge(entries, Entry{Label: "after"})
	if entries[0].Seq != 1 || entries[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d, want 1, 2", entries[0].Seq, entries[1].Seq)
	}

	entries = merge(entries, Entry{Label: "before", Commit: "abc123"})
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}
	if entries[0].Seq != 3 {
		t.Errorf("re-run label seq = %d, want 3 (latest recording)", entries[0].Seq)
	}
	if entries[1].Seq != 2 {
		t.Errorf("untouched entry seq = %d, want 2", entries[1].Seq)
	}

	// Legacy trajectory files predate seq: their entries unmarshal with
	// seq 0 and the next recording starts the counter at 1.
	legacy := []Entry{{Label: "old-a"}, {Label: "old-b"}}
	got := merge(legacy, Entry{Label: "ci"})
	if got[2].Seq != 1 {
		t.Errorf("first recording over a legacy file: seq = %d, want 1", got[2].Seq)
	}
}

// TestRunAppendsToTrajectory drives run() end to end twice: the file is
// created, then the second invocation appends while a re-run of the
// first label replaces.
func TestRunAppendsToTrajectory(t *testing.T) {
	out := filepath.Join(t.TempDir(), "traj.json")
	var stdout, stderr bytes.Buffer

	if code := run([]string{"-label", "before", "-out", out},
		strings.NewReader(benchOutput), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	if code := run([]string{"-label", "after", "-out", out},
		strings.NewReader(benchOutput), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	// Re-running a label must replace, not append.
	if code := run([]string{"-label", "before", "-out", out, "-commit", "abc123"},
		strings.NewReader(benchOutput), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}

	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	if err := json.Unmarshal(buf, &entries); err != nil {
		t.Fatalf("%v in %s", err, buf)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2 (before replaced in place)", len(entries))
	}
	if entries[0].Label != "before" || entries[0].Commit != "abc123" {
		t.Errorf("entry 0 = %q commit %q, want the re-run before", entries[0].Label, entries[0].Commit)
	}
	if entries[1].Label != "after" {
		t.Errorf("entry 1 = %q", entries[1].Label)
	}
	if len(entries[0].Benchmarks) != 3 {
		t.Errorf("entry 0 has %d benchmarks, want 3", len(entries[0].Benchmarks))
	}
	// Seq survives the round trip through the file: the re-run "before"
	// was the third recording, "after" the second.
	if entries[0].Seq != 3 || entries[1].Seq != 2 {
		t.Errorf("seqs = %d, %d, want 3, 2", entries[0].Seq, entries[1].Seq)
	}
}

// TestRunExitCodes pins the CLI contract: missing -label is a usage
// error (2), bad stdin and a corrupt trajectory are failures (1).
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer

	if code := run(nil, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("run without -label = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-label is required") {
		t.Errorf("stderr = %q", stderr.String())
	}

	stderr.Reset()
	out := filepath.Join(dir, "t.json")
	if code := run([]string{"-label", "x", "-out", out},
		strings.NewReader("no benchmarks here\n"), &stdout, &stderr); code != 1 {
		t.Errorf("run with empty stdin = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "no benchmark result lines") {
		t.Errorf("stderr = %q", stderr.String())
	}

	stderr.Reset()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-label", "x", "-out", corrupt},
		strings.NewReader(benchOutput), &stdout, &stderr); code != 1 {
		t.Errorf("run with corrupt trajectory = %d, want 1", code)
	}
}

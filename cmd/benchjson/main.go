// Command benchjson converts `go test -bench` output into a JSON
// trajectory file. Each invocation parses one benchmark run from stdin
// and appends it as a labelled entry to the output file (creating it if
// absent), so successive runs — before/after a refactor, or one per CI
// build — accumulate into a perf curve instead of overwriting each other.
//
// Usage:
//
//	go test -run xxx -bench SolveScale -benchmem . | benchjson -label after-soa -out BENCH_solve.json
//
// Entries with the same label are replaced in place (re-running a
// configuration updates its numbers rather than duplicating them).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one result line: its name, iteration count and the
// value-per-unit metrics go test reported (ns/op, B/op, allocs/op and any
// b.ReportMetric extras).
type Benchmark struct {
	Name string `json:"name"`
	// GOMAXPROCS is the core count the benchmark ran with, taken from
	// the -N name suffix (no suffix means 1, as go test prints it).
	// Entries recorded before it was kept carry none.
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Entry is one labelled benchmark run.
type Entry struct {
	Label string `json:"label"`
	// Seq is a monotonic recording counter across the trajectory file:
	// every invocation gets max(existing)+1, so sorting by seq recovers
	// recording order even when a label (or the same commit) is re-run
	// on the same day — date and commit alone can't order that.
	Seq        int64       `json:"seq"`
	Date       string      `json:"date"`
	Commit     string      `json:"commit,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with its streams and exit code exposed for testing.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		label  = fs.String("label", "", "entry label, e.g. before-soa / after-soa / ci (required)")
		out    = fs.String("out", "BENCH_solve.json", "trajectory file to append to")
		commit = fs.String("commit", "", "commit hash to record (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *label == "" {
		fmt.Fprintln(stderr, "benchjson: -label is required")
		return 2
	}

	entry, err := parse(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	entry.Label = *label
	entry.Commit = *commit
	entry.Date = time.Now().UTC().Format("2006-01-02")

	entries, err := load(*out)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	entries = merge(entries, entry)

	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchjson: %d benchmarks recorded as %q in %s (%d entries)\n",
		len(entry.Benchmarks), entry.Label, *out, len(entries))
	return 0
}

// merge appends the entry to the trajectory, replacing an existing entry
// with the same label in place (re-running a configuration updates its
// numbers rather than duplicating them). The merged entry always takes
// the next seq, so a replaced entry's seq still reflects when it was
// last recorded.
func merge(entries []Entry, entry Entry) []Entry {
	entry.Seq = nextSeq(entries)
	for i := range entries {
		if entries[i].Label == entry.Label {
			entries[i] = entry
			return entries
		}
	}
	return append(entries, entry)
}

// nextSeq is one past the highest seq in the trajectory (1 for a fresh
// or pre-seq file, whose entries all carry zero).
func nextSeq(entries []Entry) int64 {
	var max int64
	for i := range entries {
		if entries[i].Seq > max {
			max = entries[i].Seq
		}
	}
	return max + 1
}

// load reads an existing trajectory file; a missing file is an empty one.
func load(path string) ([]Entry, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(buf, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// parse reads `go test -bench` output: header lines (goos/goarch/pkg/cpu)
// followed by result lines of the form
//
//	BenchmarkName-8   	  5	 1804695 ns/op	 3 B/op	 0 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parse(r io.Reader) (Entry, error) {
	var e Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			e.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			e.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := fields[0]
		// Move the -GOMAXPROCS suffix into its own field so names are
		// stable across hosts (only the final -N, which would also bite
		// names ending in a number like .../flows=100000).
		procs := 1
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		bm := Benchmark{
			Name:       name,
			GOMAXPROCS: procs,
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			bm.Metrics[fields[i+1]] = v
		}
		e.Benchmarks = append(e.Benchmarks, bm)
	}
	if err := sc.Err(); err != nil {
		return e, err
	}
	if len(e.Benchmarks) == 0 {
		return e, errors.New("no benchmark result lines on stdin")
	}
	return e, nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of a traced run. Spans of one experiment
// share a Trace number; Parent is 0 for the root.
type span struct {
	ID     int     `json:"id"`
	Trace  int     `json:"trace"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(trace, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Trace: trace, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// record adds one experiment's spans: run → spec.build, experiment.run
// (cm.wire, sim.run, cm.teardown, derived from the Result's own
// timings) and outcome.
func (t *tracer) record(trace int, it *iteration) {
	root := t.add(trace, 0, "run", it.start, it.done)
	t.add(trace, root, "spec.build", it.start, it.built)
	run := t.add(trace, root, "experiment.run", it.built, it.ran)
	wired := it.built.Add(it.res.SetupWall)
	simmed := wired.Add(it.res.Sim.WallTotal)
	t.add(trace, run, "cm.wire", it.built, wired)
	t.add(trace, run, "sim.run", wired, simmed)
	t.add(trace, run, "cm.teardown", simmed, it.ran)
	t.add(trace, root, "outcome", it.ran, it.done)
}

// finish fills in each span's self time: its duration minus the part
// its children cover (children of one span never overlap here).
func (t *tracer) finish() []span {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = max(0, t.spans[i].End-t.spans[i].Start-child[t.spans[i].ID])
	}
	return t.spans
}

// modules are the program's layers the CPU ledger charges profile
// samples to: the internal packages an experiment runs, plus "horse" for
// the root package.
var modules = []string{
	"sim", "cm", "controller", "openflow", "bgp", "netmodel", "flowtable",
	"fib", "fluid", "topo", "wire", "spec", "traffic", "emu", "horse",
}

// gcFuncs are the runtime entry points of garbage collection work; a
// sample with any of them on its stack is charged to "gc".
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// moduleOf names the tracked module a function belongs to, or "".
// Helpers outside the tracked set (core, stats, this benchmark) return
// "", so their time is charged to the nearest tracked caller.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		name := rest[:strings.IndexAny(rest+".", "./")]
		for _, m := range modules {
			if m == name {
				return m
			}
		}
		return ""
	}
	if strings.HasPrefix(fn, "repro.") {
		return "horse"
	}
	return ""
}

// charge picks the ledger entry for one sample's stack (innermost frame
// first): "gc" for garbage collection work, else the innermost tracked
// module, else "other".
func charge(frames []string) string {
	for _, f := range frames {
		if gcFuncs[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "other"
}

// stack is one profile sample: function names innermost first, and the
// CPU time it stands for.
type stack struct {
	frames []string
	ns     int64
}

// attribute sums sample time per ledger entry.
func attribute(stacks []stack) map[string]int64 {
	out := map[string]int64{}
	for _, s := range stacks {
		out[charge(s.frames)] += s.ns
	}
	return out
}

// decodeProfile reads the stacks of a gzipped pprof CPU profile, as
// runtime/pprof writes it. It decodes only the fields it needs: sample
// types, samples, locations, functions and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		types     []uint64 // string index of each sample type
		samples   []sample
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]uint64{}
	)
	err = eachField(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendInts(s.locs, wire, v, data)
				case 2:
					s.vals = appendInts(s.vals, wire, v, data)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("decoding profile: no cpu sample type")
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("decoding profile: sample without a cpu value")
		}
		st := stack{ns: int64(s.vals[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				st.frames = append(st.frames, str(funcNames[fn]))
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField calls fn for every field of one protobuf message: varint
// fields carry v, length-delimited ones data.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// ledgerNames lists the CPU ledger entries in report order.
func ledgerNames() []string {
	names := append([]string(nil), modules...)
	sort.Strings(names)
	return append(names, "gc", "other")
}

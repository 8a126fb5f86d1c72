package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/spec"
)

// chunkFlows is how many flows one chunk digest of a summary covers, so a
// mismatch against a pinned reference names the flow range that moved.
const chunkFlows = 64

// demand is the per-flow demand every workload uses (the spec default of
// 1 Gbps); no converged rate may exceed it.
const demand = core.Gbps

// summary is the compact identity of a checked fingerprint: its digest,
// its top-level fields and one digest per chunk of flows.
type summary struct {
	Digest            string         `json:"digest"`
	Hosts             int            `json:"hosts"`
	Switches          int            `json:"switches"`
	Routers           int            `json:"routers"`
	SteadyRx          string         `json:"steady_rx"`
	SteadyRxBits      uint64         `json:"steady_rx_bits"`
	MeanPathLatencyNs int64          `json:"mean_path_latency_ns"`
	Flows             int            `json:"flows"`
	States            map[string]int `json:"states"`
	Chunks            []string       `json:"chunks"`
}

// reference pins a workload's outputs at its default seed: the summary
// of the checked projection, plus the digest of the whole fingerprint
// (which differs from the projection's only on workloads whose path
// latencies are not checked).
type reference struct {
	Seed       int64   `json:"seed"`
	FullDigest string  `json:"full_digest"`
	Summary    summary `json:"summary"`
}

//go:embed testdata/refs.json
var refsJSON []byte

// loadRefs decodes the pinned references, keyed by workload name.
func loadRefs() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("decoding pinned references: %w", err)
	}
	return refs, nil
}

func summarize(fp spec.Fingerprint) summary {
	s := summary{
		Digest:            fp.Digest(),
		Hosts:             fp.Hosts,
		Switches:          fp.Switches,
		Routers:           fp.Routers,
		SteadyRx:          fp.SteadyRx,
		SteadyRxBits:      fp.SteadyRxBits,
		MeanPathLatencyNs: fp.MeanPathLatencyNs,
		Flows:             len(fp.Flows),
		States:            map[string]int{},
	}
	for _, f := range fp.Flows {
		s.States[f.State]++
	}
	for lo := 0; lo < len(fp.Flows); lo += chunkFlows {
		hi := min(lo+chunkFlows, len(fp.Flows))
		s.Chunks = append(s.Chunks, spec.Fingerprint{Flows: fp.Flows[lo:hi]}.Digest())
	}
	return s
}

// maxDiffLines caps how many differences one mismatch report prints.
const maxDiffLines = 12

// differ collects "name: got X, want Y" lines for differing fields.
type differ []string

func (d *differ) field(name string, got, want any) {
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		*d = append(*d, fmt.Sprintf("%s: got %s, want %s", name, g, w))
	}
}

func (d differ) lines() []string {
	if len(d) > maxDiffLines {
		return append(d[:maxDiffLines:maxDiffLines], fmt.Sprintf("... and %d more", len(d)-maxDiffLines))
	}
	return d
}

// diffTop adds the top-level fields in which s differs from want.
func (s summary) diffTop(d *differ, want summary) {
	d.field("hosts", s.Hosts, want.Hosts)
	d.field("switches", s.Switches, want.Switches)
	d.field("routers", s.Routers, want.Routers)
	d.field("steady_rx_bits", fmt.Sprintf("%#x (%s)", s.SteadyRxBits, s.SteadyRx), fmt.Sprintf("%#x (%s)", want.SteadyRxBits, want.SteadyRx))
	d.field("mean_path_latency_ns", s.MeanPathLatencyNs, want.MeanPathLatencyNs)
	d.field("flows", s.Flows, want.Flows)
	d.field("states", s.States, want.States)
}

// diff lists the fields and flow chunks in which s differs from want.
func (s summary) diff(want summary) []string {
	var d differ
	s.diffTop(&d, want)
	for i := 0; i < max(len(s.Chunks), len(want.Chunks)); i++ {
		var got, exp string
		if i < len(s.Chunks) {
			got = s.Chunks[i]
		}
		if i < len(want.Chunks) {
			exp = want.Chunks[i]
		}
		d.field(fmt.Sprintf("flows[%d:%d] digest", i*chunkFlows, (i+1)*chunkFlows), got, exp)
	}
	return d.lines()
}

// flowDiff lists the fields in which fingerprint got differs from want,
// flow by flow.
func flowDiff(got, want spec.Fingerprint) []string {
	var d differ
	summarize(got).diffTop(&d, summarize(want))
	for i := 0; i < min(len(got.Flows), len(want.Flows)); i++ {
		g, w := got.Flows[i], want.Flows[i]
		d.field(fmt.Sprintf("flow %d tuple", i), g.Tuple, w.Tuple)
		d.field(fmt.Sprintf("flow %d %s state", i, w.Tuple), g.State, w.State)
		d.field(fmt.Sprintf("flow %d %s rate_bits", i, w.Tuple), fmt.Sprintf("%#x (%s)", g.RateBits, g.Rate), fmt.Sprintf("%#x (%s)", w.RateBits, w.Rate))
		d.field(fmt.Sprintf("flow %d %s path_latency_ns", i, w.Tuple), g.PathLatencyNs, w.PathLatencyNs)
	}
	return d.lines()
}

// pathFree is the projection checked on workloads whose path latencies
// jitter: the fingerprint with every path latency zeroed. Rates, states,
// tuples, host counts and the steady aggregate stay checked bit for bit.
func pathFree(fp spec.Fingerprint) spec.Fingerprint {
	fp.MeanPathLatencyNs = 0
	flows := make([]spec.FlowPrint, len(fp.Flows))
	copy(flows, fp.Flows)
	for i := range flows {
		flows[i].PathLatencyNs = 0
	}
	fp.Flows = flows
	return fp
}

// invariants checks what must hold for any seed: traffic was delivered,
// every flow ended in an allowed state, and every active flow holds a
// positive rate no larger than its demand.
func invariants(w *workload, fp spec.Fingerprint) []string {
	var d differ
	if len(fp.Flows) == 0 {
		d = append(d, "no flows in the fingerprint")
	}
	if steady := fp.SteadyRxRate(); !(steady > 0) {
		d = append(d, fmt.Sprintf("steady rx %v, want > 0", steady))
	}
	for i, f := range fp.Flows {
		switch {
		case f.State == "active":
			if r := core.Rate(math.Float64frombits(f.RateBits)); !(r > 0 && r <= demand) {
				d = append(d, fmt.Sprintf("flow %d %s: active at rate %v, want in (0, %v]", i, f.Tuple, r, demand))
			}
		case f.State == "done" && w.flowsEnd:
		default:
			d = append(d, fmt.Sprintf("flow %d %s: state %q", i, f.Tuple, f.State))
		}
	}
	return d.lines()
}

// checker checks each run of one workload and seed: invariants always,
// the pinned reference when the seed has one, and agreement of every
// run with the first.
type checker struct {
	w     *workload
	ref   *reference
	first *spec.Fingerprint
	// full counts whole-fingerprint digests, for divergence().
	full map[string]int
	runs int
}

func newChecker(w *workload, seed int64, refs map[string]reference) *checker {
	c := &checker{w: w, full: map[string]int{}}
	if ref, ok := refs[w.name]; ok && ref.Seed == seed {
		c.ref = &ref
	}
	return c
}

func (c *checker) project(fp spec.Fingerprint) spec.Fingerprint {
	if c.w.pathLatencyJitters {
		return pathFree(fp)
	}
	return fp
}

// check returns what is wrong with one run's fingerprint; nil means it
// passed.
func (c *checker) check(fp spec.Fingerprint) []string {
	c.full[fp.Digest()]++
	c.runs++
	d := invariants(c.w, fp)
	p := c.project(fp)
	if c.ref != nil {
		if s := summarize(p); s.Digest != c.ref.Summary.Digest {
			d = append(d, fmt.Sprintf("fingerprint %s differs from the pinned %s:", s.Digest, c.ref.Summary.Digest))
			d = append(d, s.diff(c.ref.Summary)...)
		}
	}
	if c.first == nil {
		c.first = &p
	} else if p.Digest() != c.first.Digest() {
		d = append(d, fmt.Sprintf("fingerprint %s differs from this run's first %s:", p.Digest(), c.first.Digest()))
		d = append(d, flowDiff(p, *c.first)...)
	}
	return d
}

// divergence is the share of runs whose whole fingerprint differs from
// the pinned full digest (or, without a reference, from the most common
// one). It is informational: on workloads checked exactly it is 0
// whenever the check passes.
func (c *checker) divergence() float64 {
	if c.runs == 0 {
		return 0
	}
	agree := 0
	if c.ref != nil {
		agree = c.full[c.ref.FullDigest]
	} else {
		for _, n := range c.full {
			agree = max(agree, n)
		}
	}
	return 1 - float64(agree)/float64(c.runs)
}

package controller

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// nextHopPorts is the path-enumeration oracle for topo.FirstHops: the
// distinct egress ports of every shortest path from one node to another,
// sorted. ECMPApp computed its port groups this way before FirstHops.
func nextHopPorts(g *topo.Graph, from core.NodeID, to core.NodeID) []core.PortID {
	paths := g.AllShortestPaths(from, to)
	seen := map[core.PortID]bool{}
	var ports []core.PortID
	for _, p := range paths {
		if len(p) == 0 {
			continue
		}
		l := g.Link(p[0])
		if l == nil || seen[l.FromPort] {
			continue
		}
		seen[l.FromPort] = true
		ports = append(ports, l.FromPort)
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	return ports
}

// checkFirstHops compares FirstHops against the oracle from every
// forwarding node to every host, and returns how many (src, dst) pairs
// had at least one port, so callers can tell a vacuous pass apart.
func checkFirstHops(t *testing.T, name string, g *topo.Graph) int {
	t.Helper()
	reachable := 0
	for _, src := range g.Nodes {
		if src.Kind == topo.Host {
			continue
		}
		hops := g.FirstHops(src.ID)
		if len(hops) != len(g.Nodes) {
			t.Fatalf("%s: FirstHops(%s) has %d entries, want %d", name, src.Name, len(hops), len(g.Nodes))
		}
		for _, dst := range g.Hosts() {
			want := nextHopPorts(g, src.ID, dst.ID)
			if got := hops[dst.ID]; !portSeqEqual(got, want) {
				t.Fatalf("%s: %s -> %s first hops %v, oracle %v", name, src.Name, dst.Name, got, want)
			}
			if len(want) > 0 {
				reachable++
			}
		}
	}
	return reachable
}

// failRandom downs a random fraction of cables and a few random
// non-host nodes, the states a failure injection can leave behind.
func failRandom(g *topo.Graph, rng *rand.Rand, cableFrac float64, nodes int) {
	for _, l := range g.Links {
		if l.ID < l.Reverse && rng.Float64() < cableFrac {
			l.SetDown(true)
			g.Link(l.Reverse).SetDown(true)
		}
	}
	var fwd []*topo.Node
	for _, n := range g.Nodes {
		if n.Kind != topo.Host {
			fwd = append(fwd, n)
		}
	}
	for _, i := range rng.Perm(len(fwd))[:nodes] {
		fwd[i].SetDown(true)
	}
}

func TestFirstHopsMatchesPathEnumeration(t *testing.T) {
	// Seed 0 is the intact fat tree; other seeds fail random cables and
	// nodes. The oracle enumerates every k=8 path in about a second, so
	// k=8 runs one failed graph only.
	for _, tc := range []struct {
		k     int
		seeds []int64
	}{{4, []int64{0, 1, 2, 3}}, {6, []int64{0, 1, 2, 3}}, {8, []int64{1}}} {
		for _, seed := range tc.seeds {
			g, err := topo.FatTree(topo.FatTreeOpts{K: tc.k})
			if err != nil {
				t.Fatal(err)
			}
			if seed > 0 {
				failRandom(g, rand.New(rand.NewSource(seed)), 0.15, int(seed))
			}
			name := fmt.Sprintf("fattree k=%d seed=%d", tc.k, seed)
			all := (len(g.Nodes) - len(g.Hosts())) * len(g.Hosts())
			n := checkFirstHops(t, name, g)
			if seed == 0 && n != all || seed > 0 && (n == 0 || n == all) {
				t.Fatalf("%s: %d of %d (switch, host) pairs reachable", name, n, all)
			}
		}
	}

	wan, err := topo.WANGraph(topo.WANOpts{PoPs: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkFirstHops(t, "wan:mesh:7:24", wan)
	failRandom(wan, rand.New(rand.NewSource(7)), 0.2, 2)
	checkFirstHops(t, "wan:mesh:7:24 failed", wan)
}

func TestFirstHopsNoHostTransit(t *testing.T) {
	// a-h-b is two hops through a multi-homed host; a-s1-s2-b is three
	// through switches. Traffic never transits a host, so a reaches b
	// only through s1, and h itself is one hop away.
	g := topo.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	s1 := g.AddSwitch("s1")
	s2 := g.AddSwitch("s2")
	h := g.AddHost("h")
	g.Connect(a, h, core.Gbps, 0) // a port 1
	g.Connect(h, b, core.Gbps, 0)
	g.Connect(a, s1, core.Gbps, 0) // a port 2
	g.Connect(s1, s2, core.Gbps, 0)
	g.Connect(s2, b, core.Gbps, 0)
	checkFirstHops(t, "host mid-path", g)
	hops := g.FirstHops(a.ID)
	if got := hops[b.ID]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("a -> b first hops %v, want [2] (not through h)", got)
	}
	if got := hops[h.ID]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("a -> h first hops %v, want [1]", got)
	}
	if got := hops[a.ID]; len(got) != 0 {
		t.Fatalf("a -> a first hops %v, want none", got)
	}
}

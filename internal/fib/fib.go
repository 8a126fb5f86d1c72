// Package fib implements the forwarding information base of simulated
// routers: an IPv4 longest-prefix-match table whose entries carry ECMP
// next-hop groups, and the path-compressed prefix trie (Trie) that both
// the table and the BGP RIB are built on.
//
// The emulated BGP control plane installs routes here through the
// Connection Manager, exactly where the original Horse intercepts Quagga's
// RIB-to-kernel route installs.
package fib

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"strings"

	"repro/internal/core"
)

// NextHop is one ECMP member: the local egress port and the neighbor
// address reached through it.
type NextHop struct {
	Port core.PortID
	Via  netip.Addr
}

func (nh NextHop) String() string { return fmt.Sprintf("%v via %v", nh.Port, nh.Via) }

// Route is a FIB entry: a destination prefix and its ECMP group. The
// next-hop slice is kept sorted (by Via, then Port) so that ECMP hashing is
// deterministic regardless of installation order — without this, two
// routers receiving the same paths in different orders would hash flows
// differently and tests would flake.
type Route struct {
	Prefix   netip.Prefix
	NextHops []NextHop
}

// Table is an IPv4 LPM table. It is not safe for concurrent use; in Horse
// all FIB access happens on the simulation engine goroutine.
type Table struct {
	// trie holds each prefix's sorted ECMP group; the prefix itself is
	// the node key, so Route values are assembled on the way out.
	trie Trie[[]NextHop]
}

// New returns an empty table.
func New() *Table { return &Table{} }

// Len reports the number of installed prefixes.
func (t *Table) Len() int { return t.trie.Len() }

// Insert installs (or replaces) prefix with the given ECMP group. Empty
// next-hop groups are rejected: use Remove to delete a route.
func (t *Table) Insert(prefix netip.Prefix, hops []NextHop) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("fib: non-IPv4 prefix %v", prefix)
	}
	if len(hops) == 0 {
		return fmt.Errorf("fib: empty next-hop group for %v", prefix)
	}
	sorted := append([]NextHop(nil), hops...)
	slices.SortFunc(sorted, func(a, b NextHop) int {
		if c := a.Via.Compare(b.Via); c != 0 {
			return c
		}
		return cmp.Compare(a.Port, b.Port)
	})
	*t.trie.Insert(prefix) = sorted
	return nil
}

// Remove deletes prefix; it reports whether the prefix was present.
func (t *Table) Remove(prefix netip.Prefix) bool {
	return prefix.Addr().Is4() && t.trie.Remove(prefix)
}

// Lookup returns the longest-prefix-match route for addr.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	if !addr.Is4() {
		return Route{}, false
	}
	if p, hops := t.trie.LPM(addr, nil); hops != nil {
		return Route{Prefix: p, NextHops: *hops}, true
	}
	return Route{}, false
}

// LookupHash performs an LPM lookup and selects one ECMP member by hash
// (modulo group size). This is how the simulated data plane picks among
// equal-cost BGP paths: the paper's first TE approach hashes source and
// destination IP.
func (t *Table) LookupHash(addr netip.Addr, hash uint32) (NextHop, bool) {
	r, ok := t.Lookup(addr)
	if !ok {
		return NextHop{}, false
	}
	return r.NextHops[int(hash%uint32(len(r.NextHops)))], true
}

// PrunePort removes every next hop reached through the given port, the
// kernel-style cleanup a router performs when an interface goes down.
// Routes whose ECMP group empties are withdrawn from the table entirely.
// It reports how many routes were touched.
func (t *Table) PrunePort(port core.PortID) int {
	touched := 0
	var emptied []netip.Prefix
	t.trie.Walk(func(p netip.Prefix, hops *[]NextHop) bool {
		kept := slices.DeleteFunc(*hops, func(nh NextHop) bool { return nh.Port == port })
		if len(kept) != len(*hops) {
			touched++
			*hops = kept
			if len(kept) == 0 {
				emptied = append(emptied, p)
			}
		}
		return true
	})
	for _, p := range emptied {
		t.trie.Remove(p)
	}
	return touched
}

// Routes returns all installed routes sorted by prefix (address, then
// length): a stable order for tests and dumps.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.Len())
	t.trie.Walk(func(p netip.Prefix, hops *[]NextHop) bool {
		out = append(out, Route{Prefix: p, NextHops: *hops})
		return true
	})
	return out
}

// Clear removes every route.
func (t *Table) Clear() { t.trie = Trie[[]NextHop]{} }

// String renders the table like a routing table dump.
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.Routes() {
		fmt.Fprintf(&b, "%v ->", r.Prefix)
		for _, nh := range r.NextHops {
			fmt.Fprintf(&b, " [%v]", nh)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

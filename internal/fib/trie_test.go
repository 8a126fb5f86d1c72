package fib

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// randPrefix draws a random masked IPv4 prefix with length 8..32,
// biased toward the /16../24 range real tables live in.
func randPrefix(rng *rand.Rand) netip.Prefix {
	var length int
	switch rng.Intn(4) {
	case 0:
		length = 8 + rng.Intn(8)
	case 3:
		length = 25 + rng.Intn(8)
	default:
		length = 16 + rng.Intn(9)
	}
	addr := netip.AddrFrom4([4]byte{
		byte(rng.Intn(224)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
	})
	p, _ := addr.Prefix(length)
	return p
}

// countNodes counts the nodes reachable from n, junctions included.
func countNodes[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.child[0]) + countNodes(n.child[1])
}

func TestTrieInsertLookupRemove(t *testing.T) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(7))
	ref := map[netip.Prefix]*int{}
	for i := 0; i < 4000; i++ {
		p := randPrefix(rng)
		v := tr.Insert(p)
		if prev, ok := ref[p]; ok && prev != v {
			t.Fatalf("re-insert of %v returned a different value", p)
		}
		if _, ok := ref[p]; !ok && *v != 0 {
			t.Fatalf("new entry %v holds %d, want the zero value", p, *v)
		}
		*v = i + 1
		ref[p] = v
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for p, v := range ref {
		if got := tr.Lookup(p); got != v {
			t.Fatalf("Lookup %v = %p, want %p", p, got, v)
		}
	}
	// Absent prefixes (same addresses, different lengths) miss.
	misses := 0
	for p := range ref {
		if p.Bits() > 9 {
			q := netip.PrefixFrom(p.Addr(), p.Bits()-1).Masked()
			if _, ok := ref[q]; !ok {
				misses++
				if tr.Lookup(q) != nil {
					t.Fatalf("phantom entry for %v", q)
				}
			}
		}
	}
	if misses == 0 {
		t.Fatal("no miss cases exercised")
	}
	// Remove half, verify the rest survive at the same addresses.
	i := 0
	for p := range ref {
		if i%2 == 0 {
			if !tr.Remove(p) {
				t.Fatalf("Remove %v reported absent", p)
			}
			if tr.Remove(p) {
				t.Fatalf("second Remove %v reported present", p)
			}
			delete(ref, p)
		}
		i++
	}
	if tr.Len() != len(ref) {
		t.Fatalf("after removal Len = %d, want %d", tr.Len(), len(ref))
	}
	for p, v := range ref {
		if got := tr.Lookup(p); got != v {
			t.Fatalf("post-removal Lookup %v = %p, want %p", p, got, v)
		}
	}
	// Remove the rest: only the root is left.
	for p := range ref {
		tr.Remove(p)
	}
	if tr.Len() != 0 {
		t.Fatalf("trie not empty: Len = %d", tr.Len())
	}
	if n := countNodes(&tr.root); n != 1 {
		t.Fatalf("empty trie keeps %d nodes, want only the root", n)
	}
	count := 0
	tr.Walk(func(netip.Prefix, *int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("walk of empty trie visited %d entries", count)
	}
}

func TestTrieWalkIsSortedPrefixOrder(t *testing.T) {
	var tr Trie[struct{}]
	rng := rand.New(rand.NewSource(11))
	set := map[netip.Prefix]bool{}
	for i := 0; i < 3000; i++ {
		p := randPrefix(rng)
		tr.Insert(p)
		set[p] = true
	}
	// Nested prefixes sharing an address: /16, /20, /24 of one block.
	for _, s := range []string{"10.0.0.0/16", "10.0.0.0/20", "10.0.0.0/24", "0.0.0.0/0"} {
		p := netip.MustParsePrefix(s)
		tr.Insert(p)
		set[p] = true
	}
	want := make([]netip.Prefix, 0, len(set))
	for p := range set {
		want = append(want, p)
	}
	slices.SortFunc(want, func(a, b netip.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return a.Bits() - b.Bits()
	})
	var got []netip.Prefix
	tr.Walk(func(p netip.Prefix, _ *struct{}) bool {
		got = append(got, p)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("walk visited %d entries out of address-then-length order (want %d)", len(got), len(want))
	}
	// Early stop.
	n := 0
	tr.Walk(func(netip.Prefix, *struct{}) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early-stopped walk visited %d", n)
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	var tr Trie[netip.Prefix]
	rng := rand.New(rand.NewSource(23))
	var ps []netip.Prefix
	for i := 0; i < 2000; i++ {
		p := randPrefix(rng)
		*tr.Insert(p) = p
		ps = append(ps, p)
	}
	for trial := 0; trial < 2000; trial++ {
		// Probe addresses inside known prefixes (hits guaranteed) and
		// fully random ones (may miss).
		var probe netip.Addr
		if trial%2 == 0 {
			probe = ps[rng.Intn(len(ps))].Addr()
		} else {
			probe = netip.AddrFrom4([4]byte{
				byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)),
			})
		}
		// Brute-force longest containing prefix.
		bestLen := -1
		for _, p := range ps {
			if p.Contains(probe) && p.Bits() > bestLen {
				bestLen = p.Bits()
			}
		}
		gotP, got := tr.LPM(probe, nil)
		if bestLen < 0 {
			if got != nil {
				t.Fatalf("LPM(%v) found %v, brute force found none", probe, gotP)
			}
			continue
		}
		want := netip.PrefixFrom(probe, bestLen).Masked()
		if got == nil || gotP != want || *got != want {
			t.Fatalf("LPM(%v) = %v, want %v", probe, gotP, want)
		}
	}
}

func TestTrieLPMRespectsAcceptFilter(t *testing.T) {
	var tr Trie[bool] // the value says whether the entry is usable
	*tr.Insert(netip.MustParsePrefix("10.0.0.0/8")) = true
	*tr.Insert(netip.MustParsePrefix("10.1.0.0/16")) = false
	*tr.Insert(netip.MustParsePrefix("10.1.2.0/24")) = true
	usable := func(v *bool) bool { return *v }
	lpm := func(s string, accept func(*bool) bool) string {
		p, v := tr.LPM(netip.MustParseAddr(s), accept)
		if v == nil {
			return "none"
		}
		if v != tr.Lookup(p) {
			t.Fatalf("LPM(%s) returned %v with another prefix's value", s, p)
		}
		return p.String()
	}
	for _, c := range []struct {
		addr   string
		accept func(*bool) bool
		want   string
	}{
		{"10.1.2.3", usable, "10.1.2.0/24"},
		{"10.1.9.9", usable, "10.0.0.0/8"}, // the /16 is rejected
		{"10.1.9.9", nil, "10.1.0.0/16"},   // nil approves everything
		{"11.0.0.1", usable, "none"},
	} {
		if got := lpm(c.addr, c.accept); got != c.want {
			t.Errorf("LPM(%s) = %s, want %s", c.addr, got, c.want)
		}
	}
}

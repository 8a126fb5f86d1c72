package bgp

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/core"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

func learned(peer, rid string, port int, asPath ...uint16) *Path {
	return &Path{
		Attrs:        attrsOf(PathAttrs{Origin: OriginIGP, ASPath: asPath, NextHop: addr(peer)}),
		PeerAddr:     addr(peer),
		PeerRouterID: addr(rid),
		Port:         core.PortID(port),
	}
}

func TestShorterASPathWins(t *testing.T) {
	r := NewRIB(false)
	p := pfx("10.0.0.0/24")
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1, 65001, 65009))
	r.UpdateAdjIn(addr("172.16.0.3"), p, learned("172.16.0.3", "2.2.2.2", 2, 65002))
	best, changed := r.Decide(p)
	if !changed || len(best) != 1 {
		t.Fatalf("best = %v changed = %v", best, changed)
	}
	if best[0].Port != 2 {
		t.Fatalf("best port = %v, want shorter AS path winner", best[0].Port)
	}
}

func TestLocalPrefOverridesPathLength(t *testing.T) {
	r := NewRIB(false)
	p := pfx("10.0.0.0/24")
	longButPreferred := learned("172.16.0.1", "1.1.1.1", 1, 65001, 65009, 65010)
	longButPreferred.Attrs.LocalPref = 300
	longButPreferred.Attrs.HasLP = true
	r.UpdateAdjIn(addr("172.16.0.1"), p, longButPreferred)
	r.UpdateAdjIn(addr("172.16.0.3"), p, learned("172.16.0.3", "2.2.2.2", 2, 65002))
	best, _ := r.Decide(p)
	if best[0].Port != 1 {
		t.Fatalf("LOCAL_PREF did not win: %v", best[0])
	}
}

func TestLocalRouteBeatsLearned(t *testing.T) {
	r := NewRIB(false)
	p := pfx("10.0.0.0/24")
	r.SetLocal(p, PathAttrs{Origin: OriginIGP})
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1))
	best, _ := r.Decide(p)
	if len(best) != 1 || !best[0].Local {
		t.Fatalf("local route lost: %v", best)
	}
}

func TestOriginAndMEDTiebreaks(t *testing.T) {
	r := NewRIB(false)
	p := pfx("10.0.0.0/24")
	egp := learned("172.16.0.1", "1.1.1.1", 1, 65001)
	egp.Attrs.Origin = OriginEGP
	igp := learned("172.16.0.3", "2.2.2.2", 2, 65002)
	r.UpdateAdjIn(addr("172.16.0.1"), p, egp)
	r.UpdateAdjIn(addr("172.16.0.3"), p, igp)
	best, _ := r.Decide(p)
	if best[0].Port != 2 {
		t.Fatal("lower ORIGIN did not win")
	}

	// Same origin: lower MED wins.
	r2 := NewRIB(false)
	a := learned("172.16.0.1", "1.1.1.1", 1, 65001)
	a.Attrs.MED, a.Attrs.HasMED = 50, true
	b := learned("172.16.0.3", "2.2.2.2", 2, 65002)
	b.Attrs.MED, b.Attrs.HasMED = 10, true
	r2.UpdateAdjIn(addr("172.16.0.1"), p, a)
	r2.UpdateAdjIn(addr("172.16.0.3"), p, b)
	best, _ = r2.Decide(p)
	if best[0].Port != 2 {
		t.Fatal("lower MED did not win")
	}
}

func TestRouterIDFinalTiebreak(t *testing.T) {
	r := NewRIB(false)
	p := pfx("10.0.0.0/24")
	r.UpdateAdjIn(addr("172.16.0.3"), p, learned("172.16.0.3", "9.9.9.9", 2, 65002))
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1, 65001))
	best, _ := r.Decide(p)
	if len(best) != 1 || best[0].PeerRouterID != addr("1.1.1.1") {
		t.Fatalf("router-id tiebreak: %v", best[0])
	}
}

func TestMultipathSelectsAllEqual(t *testing.T) {
	r := NewRIB(true)
	p := pfx("10.0.0.0/24")
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.UpdateAdjIn(addr("172.16.0.3"), p, learned("172.16.0.3", "2.2.2.2", 2, 65002))
	r.UpdateAdjIn(addr("172.16.0.5"), p, learned("172.16.0.5", "3.3.3.3", 3, 65003, 65009))
	best, _ := r.Decide(p)
	if len(best) != 2 {
		t.Fatalf("multipath selected %d paths, want 2", len(best))
	}
	// Deterministic order by router ID.
	if best[0].Port != 1 || best[1].Port != 2 {
		t.Fatalf("multipath order: %v %v", best[0].Port, best[1].Port)
	}
}

func TestDecideReportsNoChange(t *testing.T) {
	r := NewRIB(true)
	p := pfx("10.0.0.0/24")
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1, 65001))
	if _, changed := r.Decide(p); !changed {
		t.Fatal("first decide reported no change")
	}
	if _, changed := r.Decide(p); changed {
		t.Fatal("idempotent decide reported change")
	}
	// Re-learning an identical path must not report a change.
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1, 65001))
	if _, changed := r.Decide(p); changed {
		t.Fatal("identical relearn reported change")
	}
}

func TestWithdrawAndDropPeer(t *testing.T) {
	r := NewRIB(false)
	p := pfx("10.0.0.0/24")
	q := pfx("10.1.0.0/24")
	r.UpdateAdjIn(addr("172.16.0.1"), p, learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.UpdateAdjIn(addr("172.16.0.1"), q, learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.Decide(p)
	r.Decide(q)
	if len(r.Prefixes()) != 2 {
		t.Fatal("locRIB incomplete")
	}
	// Withdraw one prefix.
	if !r.UpdateAdjIn(addr("172.16.0.1"), p, nil) {
		t.Fatal("withdraw reported no change")
	}
	if best, changed := r.Decide(p); !changed || best != nil {
		t.Fatalf("after withdraw best=%v changed=%v", best, changed)
	}
	// Peer down drops the rest.
	affected := r.DropPeer(addr("172.16.0.1"))
	if len(affected) != 1 || affected[0] != q {
		t.Fatalf("DropPeer affected = %v", affected)
	}
	if best, _ := r.Decide(q); best != nil {
		t.Fatal("route survived peer drop")
	}
	if r.DropPeer(addr("172.16.0.99")) != nil {
		t.Fatal("unknown peer drop returned prefixes")
	}
	// Withdrawing on a fresh peer map is a no-op.
	if r.UpdateAdjIn(addr("172.16.0.9"), p, nil) {
		t.Fatal("withdraw on unknown peer changed state")
	}
}

func TestKnownPrefixes(t *testing.T) {
	r := NewRIB(false)
	r.SetLocal(pfx("10.5.0.0/24"), PathAttrs{})
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.1.0.0/24"), learned("172.16.0.1", "1.1.1.1", 1, 65001))
	known := r.KnownPrefixes()
	if len(known) != 2 || known[0] != pfx("10.1.0.0/24") || known[1] != pfx("10.5.0.0/24") {
		t.Fatalf("known = %v", known)
	}
}

func TestSessionStateString(t *testing.T) {
	for _, s := range []SessionState{StateIdle, StateOpenSent, StateOpenConfirm, StateEstablished, StateClosed} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
	if SessionState(42).String() != "state42" {
		t.Fatal("unknown state string")
	}
}

func TestTrieLPMRespectsAcceptFilter(t *testing.T) {
	r := NewRIB(false)
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.0.0.0/8"), learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.1.0.0/16"), learned("172.16.0.1", "1.1.1.1", 1, 65001))
	r.Decide(pfx("10.0.0.0/8"))
	r.Decide(pfx("10.1.0.0/16"))
	if got := r.Lookup(addr("10.1.2.3")); len(got) != 1 || got[0].Port != 1 {
		t.Fatalf("Lookup = %v", got)
	}
	// Withdraw the /16: LPM falls back to the /8.
	r.UpdateAdjIn(addr("172.16.0.1"), pfx("10.1.0.0/16"), nil)
	r.Decide(pfx("10.1.0.0/16"))
	if got := r.Lookup(addr("10.1.2.3")); len(got) != 1 {
		t.Fatalf("Lookup after withdraw = %v", got)
	}
	if r.Lookup(addr("11.0.0.1")) != nil {
		t.Fatal("Lookup outside any prefix returned paths")
	}
	if r.Lookup(netip.MustParseAddr("::1")) != nil {
		t.Fatal("IPv6 lookup returned paths")
	}
}

func TestRIBInterningSharesAttrSets(t *testing.T) {
	r := NewRIB(false)
	peer := addr("172.16.0.1")
	a := PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001}, NextHop: peer}
	h := r.Intern(a)
	if r.Intern(a) != h {
		t.Fatal("identical attrs interned to different handles")
	}
	for i := 0; i < 100; i++ {
		p := pfx(fmt.Sprintf("10.%d.0.0/24", i))
		r.UpdateAdjIn(peer, p, &Path{Attrs: h, PeerAddr: peer, PeerRouterID: addr("1.1.1.1"), Port: 1})
		r.Decide(p)
	}
	if got := r.AttrSets(); got != 1 {
		t.Fatalf("AttrSets = %d after 100 routes sharing attrs, want 1", got)
	}
	// Distinct attrs intern separately.
	b := a
	b.ASPath = []uint16{65002}
	if r.Intern(b) == h {
		t.Fatal("distinct attrs shared a handle")
	}
	// Dropping the peer releases every reference; the pool drains to
	// just the handle Intern created for b (zero refs, still pooled
	// until evicted) — releasing stored refs must evict a's entry.
	r.DropPeer(peer)
	if got := r.AttrSets(); got > 2 {
		t.Fatalf("AttrSets = %d after drop, want the pool drained", got)
	}
	if r.AttrSets() == 2 {
		// a's entry should be gone: re-interning must mint a new handle.
		if r.Intern(a) == h {
			t.Fatal("evicted handle resurrected")
		}
	}
}

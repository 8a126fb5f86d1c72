package bgp

import (
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
)

// chain is three eBGP speakers in a line, r1 - r2 - r3, wired over
// emu pipes (the Connection Manager's transport). Prefix i of the table
// is originated by speaker i%3, so every speaker ends up holding the
// whole table and each non-local prefix is installed exactly once.
type chain struct {
	speakers []*Speaker
	// installs counts OnRoute events; converged closes when it
	// reaches the full table on every speaker.
	installs  atomic.Int64
	converged chan struct{}
	// onRoute, when set, runs first on every OnRoute event.
	onRoute func(RouteEvent)
}

func newChain(tb testing.TB, prefixes []netip.Prefix, onRoute func(RouteEvent)) *chain {
	tb.Helper()
	c := &chain{converged: make(chan struct{}), onRoute: onRoute}
	want := int64(2 * len(prefixes)) // each prefix lands on two non-originators
	nets := make([][]netip.Prefix, 3)
	for i, p := range prefixes {
		nets[i%3] = append(nets[i%3], p)
	}
	for k := 0; k < 3; k++ {
		s, err := NewSpeaker(Config{
			Name:     []string{"r1", "r2", "r3"}[k],
			ASN:      uint32(65001 + k),
			RouterID: netip.AddrFrom4([4]byte{byte(k + 1), byte(k + 1), byte(k + 1), byte(k + 1)}),
			Networks: nets[k],
			OnRoute: func(ev RouteEvent) {
				if c.onRoute != nil {
					c.onRoute(ev)
				}
				if c.installs.Add(1) == want {
					close(c.converged)
				}
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
		c.speakers = append(c.speakers, s)
	}
	for k := 0; k < 2; k++ {
		a, b := c.speakers[k], c.speakers[k+1]
		aAddr := netip.AddrFrom4([4]byte{172, 16, 0, byte(2 * k)})
		bAddr := aAddr.Next()
		ca, cb := emu.Pipe()
		if err := a.AddPeer(PeerConfig{Conn: ca, LocalAddr: aAddr, RemoteAddr: bAddr, RemoteAS: b.cfg.ASN, Port: 2}); err != nil {
			tb.Fatal(err)
		}
		if err := b.AddPeer(PeerConfig{Conn: cb, LocalAddr: bAddr, RemoteAddr: aAddr, RemoteAS: a.cfg.ASN, Port: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// wait blocks until every speaker holds the full table.
func (c *chain) wait(tb testing.TB) {
	tb.Helper()
	select {
	case <-c.converged:
	case <-time.After(60 * time.Second):
		tb.Fatalf("chain did not converge: %d installs", c.installs.Load())
	}
}

func (c *chain) updatesSent() uint64 {
	var n uint64
	for _, s := range c.speakers {
		n += s.Stats.UpdatesSent.Load()
	}
	return n
}

// TestStopAllIsQuiet pins group teardown: once StopAll begins, no
// speaker in the group re-decides, installs or withdraws a route, or
// sends another UPDATE. Stopping the speakers one at a time instead
// makes each stop's survivors withdraw the whole table from the FIB and
// flood the withdrawals on.
func TestStopAllIsQuiet(t *testing.T) {
	var stopping atomic.Bool
	var late atomic.Int64
	c := newChain(t, scalePrefixes(1002), func(RouteEvent) {
		if stopping.Load() {
			late.Add(1)
		}
	})
	c.wait(t)
	// Let the last MRAI windows drain so the UPDATE count is final.
	waitFor(t, "UPDATE count settles", func() bool {
		before := c.updatesSent()
		time.Sleep(20 * time.Millisecond)
		return c.updatesSent() == before
	})
	sent := c.updatesSent()

	stopping.Store(true)
	StopAll(c.speakers...)
	time.Sleep(20 * time.Millisecond) // any stray MRAI timer has fired by now

	if n := late.Load(); n != 0 {
		t.Fatalf("%d OnRoute events after StopAll began", n)
	}
	if got := c.updatesSent(); got != sent {
		t.Fatalf("UpdatesSent %d -> %d across StopAll", sent, got)
	}
	for _, s := range c.speakers {
		if got := len(s.LocRIB()); got != 1002 {
			t.Fatalf("%s Loc-RIB holds %d prefixes after StopAll, want 1002", s.cfg.Name, got)
		}
	}
}

// TestStopDeliversCease pins that a stopping speaker's CEASE reaches the
// peer: the transport closes only after the writer has drained the
// queue, so the NOTIFICATION is never lost to the close.
func TestStopDeliversCease(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1")})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewSpeaker(Config{Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2")})
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := net.Pipe()
		if err := a.AddPeer(PeerConfig{Conn: ca, LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002, Port: core.PortID(1)}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddPeer(PeerConfig{Conn: cb, LocalAddr: addr("172.16.0.1"), RemoteAddr: addr("172.16.0.0"), RemoteAS: 65001, Port: core.PortID(1)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "session established", func() bool {
			return a.SessionState(addr("172.16.0.1")) == StateEstablished &&
				b.SessionState(addr("172.16.0.0")) == StateEstablished
		})
		a.Stop()
		waitFor(t, "peer session closed", func() bool {
			return b.SessionState(addr("172.16.0.0")) == StateClosed
		})
		b.Stop()
		if got := b.Stats.NotificationsRecv.Load(); got != 1 {
			t.Fatalf("stop %d: peer received %d NOTIFICATIONs, want exactly one CEASE", i+1, got)
		}
	}
}

// BenchmarkSpeakerFullTable measures a full-table exchange between three
// eBGP speakers: building them, peering, and the UPDATE traffic until
// every Loc-RIB holds all 20k prefixes. Group teardown runs outside the
// timer and is reported as teardown-ns/op.
func BenchmarkSpeakerFullTable(b *testing.B) {
	prefixes := scalePrefixes(20000)
	b.ReportAllocs()
	var teardown time.Duration
	for i := 0; i < b.N; i++ {
		c := newChain(b, prefixes, nil)
		c.wait(b)
		b.StopTimer()
		start := time.Now()
		StopAll(c.speakers...)
		teardown += time.Since(start)
		b.StartTimer()
	}
	b.ReportMetric(float64(teardown.Nanoseconds())/float64(b.N), "teardown-ns/op")
}

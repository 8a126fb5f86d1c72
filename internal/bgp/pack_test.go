package bgp

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
)

// decodeAll decodes a PackUpdates result and re-assembles what a receiver
// would learn: withdrawn prefixes in order, and per-attribute-set NLRI.
func decodeAll(t *testing.T, msgs [][]byte) (withdrawn []netip.Prefix, byAttrs map[string][]netip.Prefix) {
	t.Helper()
	byAttrs = make(map[string][]netip.Prefix)
	for i, raw := range msgs {
		if len(raw) > maxMsgLen {
			t.Fatalf("message %d is %d bytes, over the %d limit", i, len(raw), maxMsgLen)
		}
		m, err := Decode(raw)
		if err != nil {
			t.Fatalf("message %d failed to decode: %v", i, err)
		}
		if m.Type != MsgUpdate {
			t.Fatalf("message %d type = %d", i, m.Type)
		}
		withdrawn = append(withdrawn, m.Upd.Withdrawn...)
		if len(m.Upd.NLRI) > 0 {
			k := attrsKey(m.Upd.Attrs)
			byAttrs[k] = append(byAttrs[k], m.Upd.NLRI...)
		}
	}
	return withdrawn, byAttrs
}

func TestPackUpdatesRoundTripMixed(t *testing.T) {
	// Two attribute groups plus withdrawals in one flush batch: the
	// withdrawals must ride inside the group messages (no extra
	// withdraw-only message) and every attribute field must survive the
	// wire round trip.
	wd := []netip.Prefix{pfx("10.9.0.0/24"), pfx("10.9.1.0/24"), pfx("10.9.2.128/25")}
	g0 := UpdateGroup{
		Attrs: PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001, 65005}, NextHop: addr("172.16.0.1")},
		NLRI:  []netip.Prefix{pfx("10.1.0.0/24"), pfx("10.1.1.0/24"), pfx("10.1.2.0/24")},
	}
	g1 := UpdateGroup{
		Attrs: PathAttrs{
			Origin: OriginEGP, ASPath: []uint16{65002}, NextHop: addr("172.16.0.3"),
			MED: 20, HasMED: true, LocalPref: 200, HasLP: true,
			OriginatorID: addr("4.4.4.4"),
			ClusterList:  []netip.Addr{addr("9.9.9.1"), addr("9.9.9.2")},
		},
		NLRI: []netip.Prefix{pfx("10.2.0.0/16"), pfx("10.2.255.0/28")},
	}
	msgs, err := PackUpdates(wd, []UpdateGroup{g0, g1})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("packed %d messages, want 2 (one per attribute group)", len(msgs))
	}
	gotWD, byAttrs := decodeAll(t, msgs)
	if !reflect.DeepEqual(gotWD, wd) {
		t.Fatalf("withdrawn = %v, want %v", gotWD, wd)
	}
	for _, g := range []UpdateGroup{g0, g1} {
		got, ok := byAttrs[attrsKey(g.Attrs)]
		if !ok {
			t.Fatalf("attribute set %+v lost on the wire", g.Attrs)
		}
		if !reflect.DeepEqual(got, g.NLRI) {
			t.Fatalf("NLRI for %+v = %v, want %v", g.Attrs, got, g.NLRI)
		}
	}
	// The decoded attrs must match field-for-field, not just by key.
	m1, _ := Decode(msgs[1])
	if !reflect.DeepEqual(m1.Upd.Attrs, g1.Attrs) {
		t.Fatalf("attrs round trip:\n got  %+v\n want %+v", m1.Upd.Attrs, g1.Attrs)
	}
}

func TestPackUpdatesSplitsAtMessageLimit(t *testing.T) {
	// 2000 /24s with one attribute set: 4 NLRI bytes each against a
	// ~4055-byte budget = 1013 prefixes per message, so exactly 2
	// messages, every one under 4096 bytes, nothing lost or reordered.
	g := UpdateGroup{
		Attrs: PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001}, NextHop: addr("172.16.0.1")},
		NLRI:  scalePrefixes(2000),
	}
	msgs, err := PackUpdates(nil, []UpdateGroup{g})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("packed %d messages, want 2", len(msgs))
	}
	_, byAttrs := decodeAll(t, msgs)
	if got := byAttrs[attrsKey(g.Attrs)]; !reflect.DeepEqual(got, g.NLRI) {
		t.Fatalf("split lost or reordered NLRI: got %d prefixes", len(got))
	}
	// First message must be filled to within one prefix of the limit.
	if len(msgs[0]) < maxMsgLen-maxPrefixEnc {
		t.Fatalf("first message only %d bytes — split too early", len(msgs[0]))
	}
}

func TestPackUpdatesWithdrawOnlySplits(t *testing.T) {
	wd := scalePrefixes(1500)
	msgs, err := PackUpdates(wd, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("packed %d withdraw-only messages, want 2", len(msgs))
	}
	gotWD, byAttrs := decodeAll(t, msgs)
	if !reflect.DeepEqual(gotWD, wd) {
		t.Fatalf("withdrawals lost: got %d, want %d", len(gotWD), len(wd))
	}
	if len(byAttrs) != 0 {
		t.Fatal("withdraw-only pack announced NLRI")
	}
}

func TestPackUpdatesManyWithdrawalsStillAnnounce(t *testing.T) {
	// More withdrawals than fit beside the announcements: every message
	// that carries attributes must still announce at least one prefix,
	// and the overflow withdrawals get their own messages.
	wd := scalePrefixes(1500)
	g := UpdateGroup{
		Attrs: PathAttrs{Origin: OriginIGP, ASPath: []uint16{65001}, NextHop: addr("172.16.0.1")},
		NLRI:  []netip.Prefix{pfx("10.1.0.0/24"), pfx("10.1.1.0/24")},
	}
	msgs, err := PackUpdates(wd, []UpdateGroup{g})
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range msgs {
		m, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		// An attrs block without NLRI would be a malformed flush.
		if m.Upd.Attrs.NextHop.Is4() && len(m.Upd.NLRI) == 0 && len(m.Upd.Withdrawn) == 0 {
			t.Fatalf("message %d is empty", i)
		}
	}
	gotWD, byAttrs := decodeAll(t, msgs)
	if !reflect.DeepEqual(gotWD, wd) {
		t.Fatalf("withdrawals lost: got %d, want %d", len(gotWD), len(wd))
	}
	if got := byAttrs[attrsKey(g.Attrs)]; !reflect.DeepEqual(got, g.NLRI) {
		t.Fatalf("announcements lost: %v", got)
	}
}

func TestPackUpdatesOversizedAttrsRejected(t *testing.T) {
	clusters := make([]netip.Addr, 1100) // 4400 attr bytes > 4096 limit
	for i := range clusters {
		clusters[i] = addr("9.9.9.9")
	}
	g := UpdateGroup{
		Attrs: PathAttrs{NextHop: addr("172.16.0.1"), ClusterList: clusters},
		NLRI:  []netip.Prefix{pfx("10.1.0.0/24")},
	}
	if _, err := PackUpdates(nil, []UpdateGroup{g}); err == nil {
		t.Fatal("oversized attribute set packed without error")
	}
	// Missing next hop propagates the encode error too.
	bad := UpdateGroup{Attrs: PathAttrs{}, NLRI: []netip.Prefix{pfx("10.1.0.0/24")}}
	if _, err := PackUpdates(nil, []UpdateGroup{bad}); err == nil {
		t.Fatal("missing next hop packed without error")
	}
}

func TestPackUpdatesEmpty(t *testing.T) {
	msgs, err := PackUpdates(nil, nil)
	if err != nil || len(msgs) != 0 {
		t.Fatalf("empty pack = %d messages, err %v", len(msgs), err)
	}
	// Groups with no NLRI contribute nothing; withdrawals still flush.
	msgs, err = PackUpdates([]netip.Prefix{pfx("10.1.0.0/24")}, []UpdateGroup{{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1 withdraw-only", len(msgs))
	}
}

// TestSpeakerPacksFullTableAdvert pins the tentpole speaker behaviour: a
// full-table advertisement of N prefixes sharing one attribute set goes
// out in O(attr-groups × size-splits) UPDATE messages, not O(N). With
// 1200 /24s (~2 message-limit splits) anything near 1200 means packing
// regressed — and would overflow the session's bounded send queue.
func TestSpeakerPacksFullTableAdvert(t *testing.T) {
	const n = 1200
	nets := make([]netip.Prefix, n)
	for i := range nets {
		nets[i] = pfx(fmt.Sprintf("10.%d.%d.0/24", 16+i/256, i%256))
	}
	var sinkA routeSink
	a, err := NewSpeaker(Config{
		Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1"), OnRoute: sinkA.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpeaker(Config{
		Name: "r2", ASN: 65002, RouterID: addr("2.2.2.2"), Networks: nets,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()
	pair(t, a, b, "172.16.0.0", "172.16.0.1", 1, 1)

	waitFor(t, "full table learned", func() bool {
		return len(sinkA.latest()) == n
	})
	if got := b.Stats.UpdatesSent.Load(); got > 4 {
		t.Fatalf("full-table advert took %d UPDATEs, want <= 4 (packing regressed)", got)
	}
	// One attribute set covers the whole table on the receiver.
	if got := a.rib.AttrSets(); got != 1 {
		t.Fatalf("receiver interned %d attribute sets, want 1", got)
	}
}

// TestFlushWireOrder pins the wire order of one MRAI flush: the pending
// withdrawals first, then one UPDATE per attribute group in attribute
// key order, every prefix list in address-then-length order. The batch
// is a map, so each round sees a fresh iteration order; only the sort
// may decide what goes on the wire.
func TestFlushWireOrder(t *testing.T) {
	s, err := NewSpeaker(Config{Name: "r1", ASN: 65001, RouterID: addr("1.1.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	via := func(asn uint16) *Path {
		h := s.rib.Intern(PathAttrs{Origin: OriginIGP, ASPath: []uint16{asn}, NextHop: addr("172.16.9.1")})
		return &Path{Attrs: h, PeerAddr: addr("172.16.9.1")}
	}
	via10, via20 := via(65010), via(65020)
	batch := map[string]*Path{
		"10.9.0.0/16": nil, "10.0.0.0/24": nil, "10.0.0.0/8": nil,
		"10.1.0.0/24": via20, "10.0.5.0/24": via20, "10.1.0.0/16": via20,
		"10.2.0.0/24": via10, "10.2.0.0/23": via10,
	}
	want := []string{
		"withdrawn=[10.0.0.0/8 10.0.0.0/24 10.9.0.0/16] as=[65001 65010] nlri=[10.2.0.0/23 10.2.0.0/24]",
		"withdrawn=[] as=[65001 65020] nlri=[10.0.5.0/24 10.1.0.0/16 10.1.0.0/24]",
	}
	for round := 0; round < 20; round++ {
		x := &session{
			sp:      s,
			cfg:     PeerConfig{LocalAddr: addr("172.16.0.0"), RemoteAddr: addr("172.16.0.1"), RemoteAS: 65002},
			state:   StateEstablished,
			out:     make(chan []byte, 8),
			pending: make(map[netip.Prefix]*Path),
		}
		for p, path := range batch {
			x.pending[pfx(p)] = path
		}
		x.flushAdv()
		close(x.out)
		var got []string
		for raw := range x.out {
			m, err := Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("withdrawn=%v as=%v nlri=%v", m.Upd.Withdrawn, m.Upd.Attrs.ASPath, m.Upd.NLRI))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d wire order:\n got %q\nwant %q", round, got, want)
		}
	}
}

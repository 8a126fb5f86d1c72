package bgp

import (
	"cmp"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fib"
)

// SessionState is the RFC 4271 FSM state of one peering session. The
// transport is handed to the speaker pre-connected (the emulation harness
// wires both ends), so Connect/Active collapse into the initial state.
type SessionState int

const (
	StateIdle SessionState = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

// String names the FSM state ("Idle", "OpenSent", ...).
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// RouteEvent is the speaker's FIB-install hook payload: the Connection
// Manager receives these and applies them to the simulated router's FIB —
// the exact seam where the original Horse intercepts Quagga's
// RIB-to-kernel installs.
type RouteEvent struct {
	Prefix   netip.Prefix
	NextHops []fib.NextHop // empty = withdraw
}

// PeerConfig describes one session to establish.
type PeerConfig struct {
	Conn       io.ReadWriteCloser
	LocalAddr  netip.Addr // local /31 interface address (our NEXT_HOP)
	RemoteAddr netip.Addr // peer /31 interface address
	RemoteAS   uint32     // expected peer ASN (0 = accept any)
	Port       core.PortID

	// IBGP marks an internal (same-AS) session: the local AS is not
	// prepended on advertisements, LOCAL_PREF is attached, and the
	// RFC 4456 reflection rules govern what may be re-advertised. The
	// speaker always applies next-hop-self (NEXT_HOP = LocalAddr) —
	// Horse has no IGP to recursively resolve a far next hop, so each
	// hop rewrites the next hop to its own interface, exactly as an
	// RR deployment with next-hop-self configured per session.
	IBGP bool
	// RRClient marks the peer as one of our route reflection clients
	// (we are a reflector for it). Routes learned from clients are
	// reflected to every session; routes learned from non-clients are
	// reflected only to clients. Reflected routes carry ORIGINATOR_ID
	// and our cluster ID prepended to CLUSTER_LIST.
	RRClient bool
}

// Config configures a speaker.
type Config struct {
	Name      string
	ASN       uint32
	RouterID  netip.Addr
	HoldTime  time.Duration // default 90s; 0 disables keepalives
	Multipath bool          // ECMP across equal-cost paths (multipath-relax)
	Networks  []netip.Prefix

	// ClusterID identifies this speaker's reflection cluster when it
	// acts as a route reflector (RFC 4456); defaults to RouterID.
	ClusterID netip.Addr
	// Dampening, when non-nil, enables route flap dampening
	// (RFC 2439 subset): withdrawals accrue a per-(peer,prefix)
	// penalty that decays exponentially; while the penalty exceeds the
	// suppress threshold, re-announcements are parked instead of
	// installed, and the route returns once the penalty decays below
	// the reuse threshold.
	Dampening *Dampening
	// DampeningClock drives the dampening decay and reuse wakeups
	// (default: wall clock). The Connection Manager installs the
	// experiment's virtual clock so dampening horizons live on the
	// experiment timeline.
	DampeningClock Clock

	// OnRoute receives Loc-RIB changes for FIB installation.
	OnRoute func(RouteEvent)
	// OnSessionUp fires when a session reaches Established.
	OnSessionUp func(peer netip.Addr)
	// OnSessionDown fires when an established session ends.
	OnSessionDown func(peer netip.Addr)
	// AdvertiseDelay batches outgoing UPDATEs (a light-weight MRAI);
	// default 2ms.
	AdvertiseDelay time.Duration
	// Logf, when set, receives debug logs.
	Logf func(format string, args ...any)
}

// Stats counts messages by type; all fields are atomically updated.
type Stats struct {
	OpensSent, OpensRecv                 atomic.Uint64
	UpdatesSent, UpdatesRecv             atomic.Uint64
	KeepalivesSent, KeepalivesRecv       atomic.Uint64
	NotificationsSent, NotificationsRecv atomic.Uint64
	// RoutesSuppressed counts announcements parked by flap dampening;
	// RoutesReused counts parked routes restored after penalty decay.
	RoutesSuppressed, RoutesReused atomic.Uint64
	// ReflectionLoops counts updates dropped by ORIGINATOR_ID /
	// CLUSTER_LIST loop prevention.
	ReflectionLoops atomic.Uint64
}

// Speaker is one emulated BGP routing daemon.
type Speaker struct {
	cfg       Config
	asn16     uint16
	hold      uint16 // configured hold time, seconds
	dampClock Clock

	mu       sync.Mutex
	rib      *RIB
	sessions map[netip.Addr]*session
	damp     map[dampKey]*dampState
	// closed marks a stopped speaker: its sessions go down quietly
	// (no Loc-RIB changes, no withdrawals) and it ignores UPDATEs.
	closed bool
	wg     sync.WaitGroup

	// Per-UPDATE scratch, reused under mu: the prefixes an UPDATE
	// touched and the Loc-RIB changes they caused.
	affected []netip.Prefix
	changes  []ribChange

	Stats Stats
}

type session struct {
	sp    *Speaker
	cfg   PeerConfig
	state SessionState

	peerRouterID netip.Addr
	negotiated   time.Duration // negotiated hold time

	// Outbound messages are queued to a dedicated writer goroutine so
	// that message handling never blocks on the transport (unbuffered
	// pipes would otherwise deadlock two speakers writing to each
	// other simultaneously).
	sendMu   sync.Mutex
	out      chan []byte
	outClose bool

	holdTimer *time.Timer
	kaTimer   *time.Timer
	// linger force-closes the transport if the writer cannot drain the
	// queue after close (the peer stopped reading).
	linger *time.Timer

	// pending advertisement batch: prefix -> path (nil = withdraw).
	// flushAdv consumes it under sp.mu and clears it in place, so the
	// map keeps its buckets from one MRAI window to the next.
	pending  map[netip.Prefix]*Path
	advTimer *time.Timer

	// flushMu serializes flushes, which reuse the buffers in flush
	// after releasing sp.mu.
	flushMu sync.Mutex
	flush   flushBuf
}

// flushBuf holds one session's UPDATE-packing buffers, kept across
// flushes so that a steady stream of MRAI windows stops allocating.
type flushBuf struct {
	idx       map[advKey]int
	withdrawn []netip.Prefix
	groups    []UpdateGroup
	keys      []string
}

// NewSpeaker creates a speaker; call AddPeer to open sessions.
func NewSpeaker(cfg Config) (*Speaker, error) {
	asn16, err := ASN16(cfg.ASN)
	if err != nil {
		return nil, err
	}
	if !cfg.RouterID.Is4() {
		return nil, fmt.Errorf("bgp: router ID must be IPv4, got %v", cfg.RouterID)
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90 * time.Second
	}
	if cfg.AdvertiseDelay == 0 {
		cfg.AdvertiseDelay = 2 * time.Millisecond
	}
	if !cfg.ClusterID.IsValid() {
		cfg.ClusterID = cfg.RouterID
	}
	if cfg.Dampening != nil {
		d := cfg.Dampening.withDefaults()
		cfg.Dampening = &d
	}
	s := &Speaker{
		cfg:       cfg,
		asn16:     asn16,
		hold:      uint16(cfg.HoldTime / time.Second),
		dampClock: cfg.DampeningClock,
		rib:       NewRIB(cfg.Multipath),
		sessions:  make(map[netip.Addr]*session),
		damp:      make(map[dampKey]*dampState),
	}
	if s.dampClock == nil {
		s.dampClock = wallClock{}
	}
	for _, p := range cfg.Networks {
		s.rib.SetLocal(p, PathAttrs{Origin: OriginIGP})
	}
	s.mu.Lock()
	for _, p := range cfg.Networks {
		s.rib.Decide(p)
	}
	s.mu.Unlock()
	return s, nil
}

func (s *Speaker) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("[bgp %s] "+format, append([]any{s.cfg.Name}, args...)...)
	}
}

// AddPeer opens a session over a pre-connected transport and immediately
// sends OPEN (the FSM enters OpenSent).
func (s *Speaker) AddPeer(pc PeerConfig) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("bgp: speaker closed")
	}
	if _, dup := s.sessions[pc.RemoteAddr]; dup {
		return fmt.Errorf("bgp: duplicate peer %v", pc.RemoteAddr)
	}
	sess := &session{
		sp:      s,
		cfg:     pc,
		state:   StateIdle,
		out:     make(chan []byte, 512),
		pending: make(map[netip.Prefix]*Path),
	}
	s.sessions[pc.RemoteAddr] = sess
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		sess.writeLoop()
	}()
	sess.send(EncodeOpen(Open{
		Version: bgpVersion, ASN: s.asn16, HoldTime: s.hold, RouterID: s.cfg.RouterID,
	}))
	s.Stats.OpensSent.Add(1)
	sess.state = StateOpenSent
	go func() {
		defer s.wg.Done()
		sess.readLoop()
	}()
	return nil
}

// Stop closes every session (sending CEASE) and waits for readers. The
// speaker's own Loc-RIB stays as it was; its still-running peers see
// the sessions end and withdraw what it advertised.
func (s *Speaker) Stop() { StopAll(s) }

// StopAll stops a group of speakers together — the teardown of a whole
// emulated network. Every speaker is marked closed before any session
// closes, so no speaker in the group reacts to the others going away:
// nobody drops routes, re-runs the decision process, fires OnRoute or
// floods withdrawals into sessions that are about to close too. Each
// session still sends CEASE before its transport closes.
func StopAll(speakers ...*Speaker) {
	var sessions []*session
	for _, s := range speakers {
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			for _, sess := range s.sessions {
				sessions = append(sessions, sess)
			}
		}
		s.mu.Unlock()
	}
	for _, sess := range sessions {
		sess.sendNotification(Notification{Code: NotifCease})
		sess.close()
	}
	for _, s := range speakers {
		s.wg.Wait()
	}
}

// ResetPeer tears down the session to peer immediately — the
// interface-down reaction of a routing daemon when the underlying link
// fails. A CEASE notification goes out ahead of the close (lost if the
// transport is already dead), the session closes, everything learned
// from the peer is withdrawn from the Loc-RIB, and withdrawals flood to
// the remaining sessions. After a ResetPeer the speaker accepts a fresh
// AddPeer for the same address (link repair re-peers over a new
// transport). It reports whether a session to peer existed.
func (s *Speaker) ResetPeer(peer netip.Addr) bool {
	s.mu.Lock()
	sess := s.sessions[peer]
	s.mu.Unlock()
	if sess == nil {
		return false
	}
	sess.sendNotification(Notification{Code: NotifCease})
	sess.down(fmt.Errorf("bgp: peer %v reset (link down)", peer))
	return true
}

// SessionState reports the FSM state of the session to peer.
func (s *Speaker) SessionState(peer netip.Addr) SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[peer]; sess != nil {
		return sess.state
	}
	return StateClosed
}

// LocRIB returns a snapshot of selected prefixes and their FIB-ready
// next-hop groups (locally originated prefixes map to nil).
func (s *Speaker) LocRIB() map[netip.Prefix][]fib.NextHop {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[netip.Prefix][]fib.NextHop)
	for _, p := range s.rib.Prefixes() {
		out[p] = fibHops(s.rib.Best(p))
	}
	return out
}

// fibHops converts a best-path set into FIB next hops; local paths yield
// nothing (connected routes are not re-installed).
func fibHops(paths []*Path) []fib.NextHop {
	var out []fib.NextHop
	for _, p := range paths {
		if p.Local {
			continue
		}
		out = append(out, fib.NextHop{Port: p.Port, Via: p.Attrs.NextHop})
	}
	return out
}

// ---- session internals ----

// send enqueues a message for the writer goroutine. Messages enqueued
// after close are dropped; a full queue drops the message too (the
// transport is dead or pathologically slow — the hold timer will fire).
func (x *session) send(b []byte) {
	x.sendMu.Lock()
	defer x.sendMu.Unlock()
	if x.outClose {
		return
	}
	select {
	case x.out <- b:
	default:
	}
}

// closeLinger bounds how long a closed session's writer may take to
// drain its queue before the transport is closed under it.
const closeLinger = 500 * time.Millisecond

// writeLoop writes queued messages until close, then closes the
// transport — only after the queue is drained, so a NOTIFICATION queued
// just before close reaches the peer.
func (x *session) writeLoop() {
	for b := range x.out {
		if _, err := x.cfg.Conn.Write(b); err != nil {
			// Reader will observe the failure; just drain.
			continue
		}
	}
	x.linger.Stop()
	_ = x.cfg.Conn.Close()
}

func (x *session) sendNotification(n Notification) {
	x.send(EncodeNotification(n))
	x.sp.Stats.NotificationsSent.Add(1)
}

// close ends the session's send side: the writer drains what is queued
// and then closes the transport, which ends the reader too.
func (x *session) close() {
	x.sendMu.Lock()
	if !x.outClose {
		x.outClose = true
		x.linger = time.AfterFunc(closeLinger, func() { _ = x.cfg.Conn.Close() })
		close(x.out)
	}
	ht, kt := x.holdTimer, x.kaTimer
	x.sendMu.Unlock()
	if ht != nil {
		ht.Stop()
	}
	if kt != nil {
		kt.Stop()
	}
	x.sp.mu.Lock()
	if x.advTimer != nil {
		x.advTimer.Stop()
	}
	x.sp.mu.Unlock()
}

func (x *session) readLoop() {
	for {
		raw, err := ReadMessage(x.cfg.Conn)
		if err != nil {
			x.down(err)
			return
		}
		msg, err := Decode(raw)
		if err != nil {
			if n, ok := err.(Notification); ok {
				x.sendNotification(n)
			}
			x.down(err)
			return
		}
		if err := x.handle(msg); err != nil {
			x.down(err)
			return
		}
	}
}

func (x *session) handle(m *Message) error {
	s := x.sp
	x.resetHold()
	switch m.Type {
	case MsgOpen:
		s.Stats.OpensRecv.Add(1)
		s.mu.Lock()
		if x.state != StateOpenSent && x.state != StateIdle {
			s.mu.Unlock()
			x.sendNotification(Notification{Code: NotifFSMError})
			return fmt.Errorf("bgp: OPEN in state %v", x.state)
		}
		if x.cfg.RemoteAS != 0 && uint32(m.Open.ASN) != x.cfg.RemoteAS {
			s.mu.Unlock()
			x.sendNotification(Notification{Code: NotifOpenError, Subcode: 2}) // bad peer AS
			return fmt.Errorf("bgp: peer AS %d, expected %d", m.Open.ASN, x.cfg.RemoteAS)
		}
		x.peerRouterID = m.Open.RouterID
		// Negotiated hold time: min of both, zero disables.
		hold := time.Duration(m.Open.HoldTime) * time.Second
		if mine := s.cfg.HoldTime; mine < hold {
			hold = mine
		}
		x.negotiated = hold
		x.state = StateOpenConfirm
		s.mu.Unlock()
		x.send(EncodeKeepalive())
		s.Stats.KeepalivesSent.Add(1)
		return nil

	case MsgKeepalive:
		s.Stats.KeepalivesRecv.Add(1)
		s.mu.Lock()
		if x.state == StateOpenConfirm {
			x.state = StateEstablished
			s.mu.Unlock()
			x.established()
			return nil
		}
		s.mu.Unlock()
		return nil

	case MsgUpdate:
		s.Stats.UpdatesRecv.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		if x.state != StateEstablished {
			s.mu.Unlock()
			x.sendNotification(Notification{Code: NotifFSMError})
			return fmt.Errorf("bgp: UPDATE in state %v", x.state)
		}
		s.processUpdateLocked(x, m.Upd)
		s.mu.Unlock()
		return nil

	case MsgNotification:
		s.Stats.NotificationsRecv.Add(1)
		return *m.Notif

	default:
		return fmt.Errorf("bgp: unhandled message type %d", m.Type)
	}
}

// established runs when the session reaches Established: start timers and
// advertise the full Loc-RIB.
func (x *session) established() {
	s := x.sp
	s.logf("session %v established", x.cfg.RemoteAddr)
	if s.cfg.OnSessionUp != nil {
		s.cfg.OnSessionUp(x.cfg.RemoteAddr)
	}
	x.startKeepalive()
	s.mu.Lock()
	for _, p := range s.rib.Prefixes() {
		best := s.rib.Best(p)
		if len(best) > 0 {
			x.queueAdvLocked(p, best[0])
		}
	}
	s.mu.Unlock()
}

func (x *session) startKeepalive() {
	if x.negotiated <= 0 {
		return
	}
	interval := x.negotiated / 3
	var tick func()
	tick = func() {
		x.sp.mu.Lock()
		live := x.state == StateEstablished
		x.sp.mu.Unlock()
		if !live {
			return
		}
		x.send(EncodeKeepalive())
		x.sp.Stats.KeepalivesSent.Add(1)
		x.sendMu.Lock()
		if !x.outClose {
			x.kaTimer = time.AfterFunc(interval, tick)
		}
		x.sendMu.Unlock()
	}
	x.sendMu.Lock()
	x.kaTimer = time.AfterFunc(interval, tick)
	x.sendMu.Unlock()
}

func (x *session) resetHold() {
	if x.negotiated <= 0 {
		return
	}
	x.sendMu.Lock()
	if x.holdTimer != nil {
		x.holdTimer.Stop()
	}
	if x.outClose {
		x.sendMu.Unlock()
		return
	}
	x.holdTimer = time.AfterFunc(x.negotiated, func() {
		x.sendNotification(Notification{Code: NotifHoldTimerExpired})
		x.down(fmt.Errorf("bgp: hold timer expired for %v", x.cfg.RemoteAddr))
	})
	x.sendMu.Unlock()
}

// down tears the session down and withdraws everything learned from it
// — unless the speaker itself is stopped, in which case the session
// just closes and the Loc-RIB is left alone.
func (x *session) down(cause error) {
	s := x.sp
	s.mu.Lock()
	if x.state == StateClosed {
		s.mu.Unlock()
		return
	}
	was := x.state
	x.state = StateClosed
	delete(s.sessions, x.cfg.RemoteAddr)
	if !s.closed {
		affected := s.rib.DropPeer(x.cfg.RemoteAddr)
		// A session loss withdraws everything learned from the peer;
		// each of those counts as a flap toward dampening, so a
		// flapping cable suppresses its neighbor's routes after
		// repeated resets. Parked announcements die with the session —
		// whether the re-peered session still advertises them is for
		// it to say.
		for _, p := range affected {
			s.dampWithdrawLocked(x.cfg.RemoteAddr, p)
		}
		s.dampDropPeerLocked(x.cfg.RemoteAddr)
		s.redecideLocked(affected)
	}
	s.mu.Unlock()
	x.close()
	if was == StateEstablished {
		s.logf("session %v down: %v", x.cfg.RemoteAddr, cause)
		if s.cfg.OnSessionDown != nil {
			s.cfg.OnSessionDown(x.cfg.RemoteAddr)
		}
	}
}

// queueAdvLocked schedules an announcement (path != nil) or withdrawal
// for the peer; the batch flushes after AdvertiseDelay. Paths the
// session's advertisement policy forbids are queued as withdrawals so
// stale state clears. Caller holds s.mu.
func (x *session) queueAdvLocked(p netip.Prefix, path *Path) {
	if path != nil && !x.mayAdvertise(path) {
		path = nil
	}
	x.pending[p] = path
	if x.advTimer == nil {
		x.advTimer = time.AfterFunc(x.sp.cfg.AdvertiseDelay, x.flushAdv)
	}
}

// mayAdvertise applies the per-session advertisement policy: split
// horizon, the eBGP sender-side AS loop check, and the RFC 4456 iBGP
// reflection rules.
func (x *session) mayAdvertise(path *Path) bool {
	if path.Local {
		return true
	}
	// Split horizon: never re-advertise toward the originating session.
	if path.PeerAddr == x.cfg.RemoteAddr {
		return false
	}
	if !x.cfg.IBGP {
		// Sender-side loop check: do not announce a path already
		// containing the eBGP peer's AS.
		return x.cfg.RemoteAS == 0 || !hasASN(path.Attrs.ASPath, uint16(x.cfg.RemoteAS))
	}
	// Toward an iBGP peer: eBGP-learned routes go to everyone;
	// iBGP-learned routes are only re-advertised by reflectors —
	// client routes to every session, non-client routes to clients.
	if !path.IBGP {
		return true
	}
	return path.FromClient || x.cfg.RRClient
}

// advKey groups a pending advertisement batch by what outgoingAttrs
// actually depends on: the interned incoming attribute handle, the
// session kind of the path, and (for reflected iBGP paths) the
// originator stamped on the way out. Comparing handles is one pointer
// compare — no per-path attribute serialization on the flush path.
type advKey struct {
	attrs *AttrVal
	orig  netip.Addr
	ibgp  bool
}

// flushAdv sends the batched UPDATEs: the pending withdrawals plus
// announcements grouped by shared attributes, packed so that many
// NLRIs (and the withdrawals) ride in each message — an MRAI window
// emits O(attr-groups) UPDATEs, not O(prefixes), with PackUpdates
// splitting at the 4096-byte message limit.
func (x *session) flushAdv() {
	x.flushMu.Lock()
	defer x.flushMu.Unlock()
	s := x.sp
	fb := &x.flush
	s.mu.Lock()
	x.advTimer = nil
	if s.closed || (x.state != StateEstablished && x.state != StateOpenConfirm && x.state != StateOpenSent) {
		s.mu.Unlock()
		return
	}
	if fb.idx == nil {
		fb.idx = make(map[advKey]int)
	}
	fb.withdrawn = fb.withdrawn[:0]
	fb.groups = fb.groups[:0]
	for p, path := range x.pending {
		if path == nil {
			fb.withdrawn = append(fb.withdrawn, p)
			continue
		}
		k := advKey{attrs: path.Attrs, ibgp: path.IBGP}
		if path.IBGP {
			k.orig = originatorOf(path)
		}
		gi, ok := fb.idx[k]
		if !ok {
			gi = len(fb.groups)
			fb.idx[k] = gi
			fb.addGroup(x.outgoingAttrs(path))
		}
		fb.groups[gi].NLRI = append(fb.groups[gi].NLRI, p)
	}
	clear(x.pending)
	s.mu.Unlock()
	clear(fb.idx)

	groups := fb.groups
	sortPrefixes(fb.withdrawn)
	fb.keys = fb.keys[:0]
	for i := range groups {
		sortPrefixes(groups[i].NLRI)
		fb.keys = append(fb.keys, attrsKey(groups[i].Attrs))
	}
	// Deterministic message order across groups.
	sort.Sort(groupsByKey{fb.keys, groups})
	msgs, err := PackUpdates(fb.withdrawn, groups)
	if err != nil {
		s.logf("flush to %v failed: %v", x.cfg.RemoteAddr, err)
		return
	}
	for _, b := range msgs {
		x.send(b)
		s.Stats.UpdatesSent.Add(1)
	}
}

// addGroup appends an empty announcement group, reusing the NLRI array
// a group in that slot held in an earlier flush.
func (fb *flushBuf) addGroup(attrs PathAttrs) {
	n := len(fb.groups)
	if n < cap(fb.groups) {
		fb.groups = fb.groups[:n+1]
		fb.groups[n].Attrs = attrs
		fb.groups[n].NLRI = fb.groups[n].NLRI[:0]
		return
	}
	fb.groups = append(fb.groups, UpdateGroup{Attrs: attrs})
}

// groupsByKey sorts announcement groups by their serialized attribute
// key, keeping flush output deterministic.
type groupsByKey struct {
	keys   []string
	groups []UpdateGroup
}

func (g groupsByKey) Len() int           { return len(g.keys) }
func (g groupsByKey) Less(i, j int) bool { return g.keys[i] < g.keys[j] }
func (g groupsByKey) Swap(i, j int) {
	g.keys[i], g.keys[j] = g.keys[j], g.keys[i]
	g.groups[i], g.groups[j] = g.groups[j], g.groups[i]
}

// comparePrefixes orders prefixes by address, then prefix length — the
// same order the RIB trie walks in.
func comparePrefixes(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// sortPrefixes sorts prefixes into comparePrefixes order.
func sortPrefixes(ps []netip.Prefix) { slices.SortFunc(ps, comparePrefixes) }

// outgoingAttrs computes the attributes a path is advertised with on
// this session. eBGP prepends the local AS and strips internal
// attributes; iBGP keeps the AS path, attaches LOCAL_PREF, applies
// next-hop-self, and — when reflecting an iBGP-learned path — stamps
// ORIGINATOR_ID and prepends the local cluster ID to CLUSTER_LIST.
func (x *session) outgoingAttrs(path *Path) PathAttrs {
	s := x.sp
	out := PathAttrs{
		Origin:  path.Attrs.Origin,
		NextHop: x.cfg.LocalAddr,
	}
	if !x.cfg.IBGP {
		out.ASPath = append([]uint16{s.asn16}, path.Attrs.ASPath...)
		return out
	}
	out.ASPath = append([]uint16(nil), path.Attrs.ASPath...)
	out.HasLP = true
	out.LocalPref = 100
	if path.Attrs.HasLP {
		out.LocalPref = path.Attrs.LocalPref
	}
	if path.IBGP {
		// Reflection (mayAdvertise only lets iBGP-learned paths
		// through toward iBGP peers when reflection applies).
		out.OriginatorID = path.Attrs.OriginatorID
		if !out.OriginatorID.Is4() {
			out.OriginatorID = path.PeerRouterID
		}
		out.ClusterList = append([]netip.Addr{s.cfg.ClusterID}, path.Attrs.ClusterList...)
	}
	return out
}

func attrsKey(a PathAttrs) string {
	b := make([]byte, 0, 16+2*len(a.ASPath)+4*len(a.ClusterList))
	b = append(b, a.Origin)
	var nh [4]byte
	if a.NextHop.Is4() {
		nh = a.NextHop.As4()
	}
	b = append(b, nh[:]...)
	if a.HasLP {
		b = append(b, 1, byte(a.LocalPref>>24), byte(a.LocalPref>>16), byte(a.LocalPref>>8), byte(a.LocalPref))
	} else {
		b = append(b, 0)
	}
	var oid [4]byte
	if a.OriginatorID.Is4() {
		oid = a.OriginatorID.As4()
	}
	b = append(b, oid[:]...)
	b = append(b, byte(len(a.ClusterList)))
	for _, c := range a.ClusterList {
		c4 := c.As4()
		b = append(b, c4[:]...)
	}
	for _, asn := range a.ASPath {
		b = append(b, byte(asn>>8), byte(asn))
	}
	return string(b)
}

// ---- speaker-side update processing (mu held) ----

func (s *Speaker) processUpdateLocked(x *session, u *Update) {
	affected := s.affected[:0]
	for _, p := range u.Withdrawn {
		if s.rib.UpdateAdjIn(x.cfg.RemoteAddr, p, nil) {
			affected = append(affected, p)
			s.dampWithdrawLocked(x.cfg.RemoteAddr, p)
		} else {
			// The route may be parked under suppression rather than
			// installed; the withdrawal must still discard it (and
			// count as a flap) or reuse would resurrect a route the
			// peer no longer advertises.
			s.dampParkedWithdrawLocked(x.cfg.RemoteAddr, p)
		}
	}
	if len(u.NLRI) > 0 && s.acceptLocked(x, &u.Attrs, len(u.NLRI)) {
		// Intern once per UPDATE: every NLRI in the message shares the
		// one attribute handle, so a full-table announcement allocates
		// per distinct attribute set, not per route.
		h := s.rib.Intern(u.Attrs)
		for _, p := range u.NLRI {
			path := &Path{
				Attrs:        h,
				PeerAddr:     x.cfg.RemoteAddr,
				PeerRouterID: x.peerRouterID,
				Port:         x.cfg.Port,
				IBGP:         x.cfg.IBGP,
				FromClient:   x.cfg.RRClient,
			}
			if s.dampSuppressLocked(x.cfg.RemoteAddr, p, path) {
				continue
			}
			if s.rib.UpdateAdjIn(x.cfg.RemoteAddr, p, path) {
				affected = append(affected, p)
			}
		}
	}
	s.affected = affected
	s.redecideLocked(affected)
}

// acceptLocked runs the receive-side loop checks: the AS-path check on
// every session, and the RFC 4456 ORIGINATOR_ID / CLUSTER_LIST checks
// on iBGP sessions. Caller holds s.mu.
func (s *Speaker) acceptLocked(x *session, a *PathAttrs, nlri int) bool {
	if hasASN(a.ASPath, s.asn16) {
		s.logf("rejecting %d prefixes from %v: own AS in path", nlri, x.cfg.RemoteAddr)
		return false
	}
	if !x.cfg.IBGP {
		return true
	}
	if a.OriginatorID.Is4() && a.OriginatorID == s.cfg.RouterID {
		s.Stats.ReflectionLoops.Add(1)
		s.logf("rejecting %d prefixes from %v: own router ID as ORIGINATOR_ID", nlri, x.cfg.RemoteAddr)
		return false
	}
	for _, c := range a.ClusterList {
		if c == s.cfg.ClusterID {
			s.Stats.ReflectionLoops.Add(1)
			s.logf("rejecting %d prefixes from %v: own cluster ID in CLUSTER_LIST", nlri, x.cfg.RemoteAddr)
			return false
		}
	}
	return true
}

// redecideLocked re-runs the decision process for the given prefixes,
// emits FIB events for Loc-RIB changes, and propagates new bests to all
// established sessions. Caller holds s.mu.
func (s *Speaker) redecideLocked(prefixes []netip.Prefix) {
	changes := s.changes[:0]
	for _, p := range prefixes {
		if best, changed := s.rib.Decide(p); changed {
			changes = append(changes, ribChange{p, best})
		}
	}
	for _, c := range changes {
		// FIB install/withdraw.
		if s.cfg.OnRoute != nil {
			s.cfg.OnRoute(RouteEvent{Prefix: c.prefix, NextHops: fibHops(c.best)})
		}
		// Propagate the single best (not the ECMP set) to peers.
		var adv *Path
		if len(c.best) > 0 {
			adv = c.best[0]
		}
		for _, sess := range s.sessions {
			if sess.state == StateEstablished {
				sess.queueAdvLocked(c.prefix, adv)
			}
		}
	}
	// Keep the scratch, but not the best-path sets it points to.
	clear(changes)
	s.changes = changes[:0]
}

// ribChange is one Loc-RIB change found by redecideLocked.
type ribChange struct {
	prefix netip.Prefix
	best   []*Path
}

// Package cm implements Horse's Connection Manager (CM), "the bridge
// between the emulation and simulation" (paper, Figure 2). The CM:
//
//   - wires emulated control plane processes (BGP speakers, OpenFlow
//     agents, the SDN controller) to each other over tapped channels;
//   - observes every control plane byte and notifies the hybrid engine,
//     which is what triggers DES->FTI transitions;
//   - applies control plane decisions (BGP RIB changes, FLOW_MODs) to the
//     simulated data plane on the engine goroutine;
//   - answers data plane queries (port/flow statistics) for the emulated
//     side; and
//   - hands emulated apps a virtual-time clock for periodic work.
package cm

import (
	"fmt"
	"io"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/bgp"
	"repro/internal/capture"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/fib"
	"repro/internal/flowtable"
	"repro/internal/netmodel"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Stats counts what crossed the emulation boundary.
type Stats struct {
	ControlBytes    atomic.Uint64
	ControlWrites   atomic.Uint64
	RouteInstalls   atomic.Uint64
	RouteWithdraws  atomic.Uint64
	FlowModsApplied atomic.Uint64
	PacketIns       atomic.Uint64
	StatsQueries    atomic.Uint64
	Injections      atomic.Uint64
}

// Manager is the Connection Manager.
type Manager struct {
	Engine *sim.Engine
	Net    *netmodel.Network
	G      *topo.Graph
	Logf   func(string, ...any)

	Stats Stats

	procs    emu.Group
	speakers map[core.NodeID]*bgp.Speaker
	agents   map[core.NodeID]*openflow.Agent
	ctl      *controller.Controller
	bgpCfg   BGPConfig // retained for re-peering after link repair

	// cap, when set, records every control plane session as a pcapng
	// trace stamped with delivery virtual time (the third tap layer:
	// tap -> delayTap -> capture).
	cap *capture.Capture

	// flushArmed coalesces reroute flushes; engine goroutine only.
	flushArmed bool

	// nodeDowned records, per crashed node, the cables that NodeDown
	// itself failed — NodeUp restores exactly those, so an independent
	// scripted LinkDown that predates (or outlives) the node outage is
	// not silently revived. Engine goroutine only.
	nodeDowned map[core.NodeID][]*topo.Link
}

// New creates a Connection Manager bridging the given engine and
// simulated network.
func New(engine *sim.Engine, net *netmodel.Network, logf func(string, ...any)) *Manager {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	m := &Manager{
		Engine:     engine,
		Net:        net,
		G:          net.G,
		Logf:       logf,
		speakers:   make(map[core.NodeID]*bgp.Speaker),
		agents:     make(map[core.NodeID]*openflow.Agent),
		nodeDowned: make(map[core.NodeID][]*topo.Link),
	}
	net.OnPacketIn = m.handlePacketIn
	// The CM coalesces reroutes: control plane bursts (a fat-tree BGP
	// convergence installs tens of thousands of routes) mutate
	// forwarding state immediately, and flows re-path once per flush
	// interval rather than after every install.
	net.AutoReroute = false
	return m
}

// flushDelay is the reroute coalescing interval: one FTI step's worth of
// virtual time, i.e. the data plane reflects control plane changes at
// FTI resolution.
const flushDelay = core.Millisecond

// scheduleFlush arranges a coalesced reroute; engine goroutine only.
func (m *Manager) scheduleFlush() {
	if m.flushArmed {
		return
	}
	m.flushArmed = true
	m.Engine.After(flushDelay, func() {
		m.flushArmed = false
		m.Net.FlushReroutes(m.Engine.Now())
	})
}

// Stop terminates every emulated process.
func (m *Manager) Stop() {
	m.procs.StopAll()
	if m.ctl != nil {
		m.ctl.Stop()
	}
}

// Controller returns the SDN controller (nil in BGP scenarios).
func (m *Manager) Controller() *controller.Controller { return m.ctl }

// SetCapture attaches a pcapng capture sink. Must be called before
// WireBGP/WireSDN; each session wired afterwards is recorded as a
// synthesized TCP conversation whose packets carry the *delivery*
// virtual time — for latency-delayed channels that is write time plus
// the link's propagation delay, which is when the receiver actually
// sees the bytes (docs/WAN.md "The latency model").
func (m *Manager) SetCapture(c *capture.Capture) { m.cap = c }

// Speaker returns the BGP speaker of a router (nil in SDN scenarios).
func (m *Manager) Speaker(n core.NodeID) *bgp.Speaker { return m.speakers[n] }

// ---------------------------------------------------------------------------
// Channel taps
// ---------------------------------------------------------------------------

// tap wraps one end of a control channel; every write is control plane
// activity and wakes the hybrid clock into FTI mode. When a capture
// session is attached, each write is also recorded — an undelayed pipe
// delivers instantly, so the record is stamped with the engine's
// current virtual time, taken on the engine goroutine (the capture
// layer sits under tap/delayTap and sees delivery, not write, time).
type tap struct {
	io.ReadWriteCloser
	m    *Manager
	sess *capture.Session
	dir  capture.Dir
}

func (t tap) Write(p []byte) (int, error) {
	n, err := t.ReadWriteCloser.Write(p)
	if n > 0 {
		t.m.Stats.ControlBytes.Add(uint64(n))
		t.m.Stats.ControlWrites.Add(1)
		if t.sess != nil {
			cp := append([]byte(nil), p[:n]...)
			sess, dir, m := t.sess, t.dir, t.m
			m.Engine.PostData(func() { sess.Data(dir, cp, m.Engine.Now()) })
		}
		t.m.Engine.NotifyControl()
	}
	return n, err
}

// TappedPipe returns a duplex channel pair whose writes (either
// direction) notify the engine of control activity.
func (m *Manager) TappedPipe() (io.ReadWriteCloser, io.ReadWriteCloser) {
	return m.tappedPipe(nil)
}

// tappedPipe is TappedPipe with an optional capture session: writes on
// the first end are recorded as AtoB.
func (m *Manager) tappedPipe(sess *capture.Session) (io.ReadWriteCloser, io.ReadWriteCloser) {
	a, b := emu.Pipe()
	return tap{a, m, sess, capture.AtoB}, tap{b, m, sess, capture.BtoA}
}

// delayTap is one end of a latency-delayed control channel: a write is
// counted as control activity immediately (the sender is active now),
// but the bytes become readable at the peer only after the link's
// propagation delay in virtual time. Delivery is an engine event that
// itself marks control activity, so the hybrid clock stays in (or
// returns to) FTI while a delayed message lands and the receiver
// reacts — a convergence wave crossing a continental WAN holds the
// clock for every RTT it takes.
//
// Ordering: the engine's post queue is FIFO and its event heap breaks
// timestamp ties by insertion order, so two writes on the same
// direction always deliver in write order — BGP's framing survives.
type delayTap struct {
	io.ReadWriteCloser // underlying pipe end: reads (and Close) pass through
	m                  *Manager
	delay              core.Time
	sess               *capture.Session
	dir                capture.Dir
}

func (t delayTap) Write(p []byte) (int, error) {
	cp := make([]byte, len(p))
	copy(cp, p)
	t.m.Stats.ControlBytes.Add(uint64(len(p)))
	t.m.Stats.ControlWrites.Add(1)
	end := t.ReadWriteCloser
	delay := t.delay
	m := t.m
	sess, dir := t.sess, t.dir
	m.Engine.Post(func() {
		m.Engine.After(delay, func() {
			m.Engine.MarkControl()
			// The pipe write never blocks (unbounded buffer); a closed
			// pipe (session torn down while the message was in flight)
			// just swallows it, like a packet arriving at a dead
			// interface — in which case the capture, standing in for the
			// receiver's NIC, never sees the packet either.
			if _, err := end.Write(cp); err == nil && sess != nil {
				// The capture stamp is delivery time: write time plus the
				// link's propagation delay, read off the engine clock
				// inside the delivery event itself.
				sess.Data(dir, cp, m.Engine.Now())
			}
		})
	})
	return len(p), nil
}

// tappedPipeDelayed returns a duplex control channel whose two
// directions deliver after the given per-direction propagation delays.
// Zero-delay directions use the plain tap (byte-for-byte the pre-latency
// behaviour).
func (m *Manager) tappedPipeDelayed(delayAB, delayBA core.Time, sess *capture.Session) (io.ReadWriteCloser, io.ReadWriteCloser) {
	if delayAB <= 0 && delayBA <= 0 {
		return m.tappedPipe(sess)
	}
	a, b := emu.Pipe()
	return delayTap{a, m, delayAB, sess, capture.AtoB}, delayTap{b, m, delayBA, sess, capture.BtoA}
}

// ---------------------------------------------------------------------------
// Virtual clock for emulated apps
// ---------------------------------------------------------------------------

// clock implements controller.Clock on top of the engine.
type clock struct{ m *Manager }

func (c clock) Now() core.Time { return c.m.Engine.NowExternal() }

func (c clock) After(d core.Time, fn func()) {
	// The callback runs on its own goroutine so emulated code never
	// executes on the engine goroutine. Firing the timer IS control
	// plane activity: the woken app is about to send messages, so the
	// clock must hold in FTI while it does (paper §2: the CM "sends
	// events that trigger a change to the FTI mode").
	c.m.Engine.PostData(func() {
		c.m.Engine.After(d, func() {
			c.m.Engine.MarkControl()
			go fn()
		})
	})
}

// Clock exposes the virtual-time clock for emulated applications.
func (m *Manager) Clock() controller.Clock { return clock{m} }

// ---------------------------------------------------------------------------
// BGP scenario wiring
// ---------------------------------------------------------------------------

// BGPConfig parameterizes WireBGP.
type BGPConfig struct {
	// ECMP enables multipath best path selection (the demo's BGP+ECMP).
	ECMP bool
	// HoldTime for all sessions (default 90s).
	HoldTime time.Duration
	// AdvertiseDelay batches updates (default 2ms).
	AdvertiseDelay time.Duration

	// LinkLatency delivers control plane messages with each cable's
	// propagation delay in virtual time: a BGP UPDATE crossing a 2000km
	// WAN span arrives 10ms of virtual time after it was sent, so
	// convergence ripples across the topology at fiber speed instead of
	// instantaneously. Cables with zero delay keep the undelayed path —
	// a zero-latency topology behaves identically with or without this
	// flag (see TestWANZeroLatencyParity).
	LinkLatency bool
	// RouteReflection enables RFC 4456 route reflection on iBGP
	// sessions (same-AS adjacencies are always iBGP; different-AS ones
	// are always eBGP): a reflector (topo.Node.RouteReflector) treats
	// its neighbors as clients — including neighboring reflectors, so a
	// connected reflector backbone forms a hierarchical mutually-client
	// mesh with CLUSTER_LIST breaking reflection cycles. Without this
	// flag, same-AS adjacencies run plain non-client iBGP, which never
	// re-advertises iBGP-learned routes and therefore only converges on
	// full-mesh or two-router single-AS topologies — the ablation that
	// shows why reflection exists.
	RouteReflection bool
	// Dampening enables per-(peer,prefix) route flap dampening on
	// every speaker.
	Dampening *bgp.Dampening
}

// WireBGP launches one BGP speaker per Router node, peers them across
// every router-router link, originates each router's host subnets, and
// installs connected host routes into the simulated FIBs (as Quagga's
// "connected" routes would be). Same-AS adjacencies become iBGP
// (reflector-aware when cfg.RouteReflection is set); different-AS
// adjacencies are eBGP.
func (m *Manager) WireBGP(cfg BGPConfig) error {
	routers := m.G.Routers()
	if len(routers) == 0 {
		return fmt.Errorf("cm: topology has no routers")
	}
	m.bgpCfg = cfg
	speakers := make([]*bgp.Speaker, 0, len(routers))
	for _, r := range routers {
		node := r.ID
		speaker, err := bgp.NewSpeaker(bgp.Config{
			Name:           r.Name,
			ASN:            r.ASN,
			RouterID:       r.IP,
			Multipath:      cfg.ECMP,
			HoldTime:       cfg.HoldTime,
			AdvertiseDelay: cfg.AdvertiseDelay,
			Dampening:      cfg.Dampening,
			DampeningClock: m.Clock(),
			Networks:       m.originatedPrefixes(r),
			Logf:           m.Logf,
			OnRoute: func(ev bgp.RouteEvent) {
				m.applyRoute(node, ev)
			},
		})
		if err != nil {
			return fmt.Errorf("cm: speaker for %s: %w", r.Name, err)
		}
		m.speakers[r.ID] = speaker
		speakers = append(speakers, speaker)
		m.installConnectedRoutes(r)
	}
	// The speakers stop as one group: tearing the network down must not
	// make the survivors of each stop withdraw and reconverge.
	m.procs.Add(emu.ProcFunc{StopFn: func() { bgp.StopAll(speakers...) }})
	// Peer across every router-router cable (one session per cable,
	// from the lower-numbered directed link).
	for _, l := range m.G.Links {
		if l.ID > l.Reverse {
			continue
		}
		if err := m.peerCable(l); err != nil {
			return err
		}
	}
	return nil
}

// peerCable opens one BGP session across a router-router cable over a
// fresh tapped transport (latency-delayed when BGPConfig.LinkLatency is
// set); used at wiring time and again when a failed link is repaired.
// Non-router cables are ignored.
func (m *Manager) peerCable(l *topo.Link) error {
	from := m.G.Node(l.From)
	to := m.G.Node(l.To)
	if from.Kind != topo.Router || to.Kind != topo.Router {
		return nil
	}
	var delayAB, delayBA core.Time
	if m.bgpCfg.LinkLatency {
		delayAB = l.Delay
		if rev := m.G.Link(l.Reverse); rev != nil {
			delayBA = rev.Delay
		}
	}
	pa := m.G.Port(l.From, l.FromPort)
	pb := m.G.Port(l.To, l.ToPort)
	var sess *capture.Session
	if m.cap != nil {
		// One pcapng file per speaker pair; a re-peer after link repair
		// opens a fresh session (new interface, new ephemeral port) in
		// the same file. The higher-named side passively listens on
		// TCP/179, the lower actively opens from an ephemeral port.
		var err error
		sess, err = m.cap.Session(
			fmt.Sprintf("bgp-%s-%s", from.Name, to.Name),
			capture.Endpoint{Name: from.Name, MAC: pa.MAC, IP: pa.IP},
			capture.Endpoint{Name: to.Name, MAC: pb.MAC, IP: pb.IP, Port: capture.PortBGP},
		)
		if err != nil {
			return err
		}
	}
	ca, cb := m.tappedPipeDelayed(delayAB, delayBA, sess)
	// A same-AS adjacency is iBGP by definition (an eBGP session would
	// prepend the shared AS and every receiver would reject the routes
	// as loops); RouteReflection additionally honors the topology's
	// reflector roles so sparse single-AS WANs converge.
	ibgp := from.ASN == to.ASN
	rr := ibgp && m.bgpCfg.RouteReflection
	if err := m.speakers[from.ID].AddPeer(bgp.PeerConfig{
		Conn: ca, LocalAddr: pa.IP, RemoteAddr: pb.IP,
		RemoteAS: to.ASN, Port: pa.ID,
		IBGP: ibgp, RRClient: rr && from.RouteReflector,
	}); err != nil {
		return err
	}
	if err := m.speakers[to.ID].AddPeer(bgp.PeerConfig{
		Conn: cb, LocalAddr: pb.IP, RemoteAddr: pa.IP,
		RemoteAS: from.ASN, Port: pb.ID,
		IBGP: ibgp, RRClient: rr && to.RouteReflector,
	}); err != nil {
		return err
	}
	return nil
}

// originatedPrefixes returns the prefixes a router announces: its
// host-facing subnet plus any synthetic origination the topology
// assigned (topo.Node.Originate — the multi-AS WAN generator's
// full-table /24s).
func (m *Manager) originatedPrefixes(r *topo.Node) []netip.Prefix {
	out := make([]netip.Prefix, 0, 1+len(r.Originate))
	if r.Prefix.IsValid() {
		out = append(out, r.Prefix)
	}
	return append(out, r.Originate...)
}

// installConnectedRoutes installs one /32 per attached host into the
// router's simulated FIB (Quagga's "connected" routes).
func (m *Manager) installConnectedRoutes(r *topo.Node) {
	node := r.ID
	for i := range r.Ports {
		p := &r.Ports[i]
		peer := m.G.Node(p.Peer)
		if peer == nil || peer.Kind != topo.Host {
			continue
		}
		route := connectedRoute(p, peer)
		m.Engine.PostData(func() {
			_ = m.Net.InstallRoute(node, route, m.Engine.Now())
			m.scheduleFlush()
		})
	}
}

// connectedRoute is the /32 a router holds for a directly attached host.
func connectedRoute(p *topo.Port, host *topo.Node) fib.Route {
	return fib.Route{
		Prefix:   netip.PrefixFrom(host.IP, 32),
		NextHops: []fib.NextHop{{Port: p.ID, Via: host.IP}},
	}
}

// applyRoute applies a BGP Loc-RIB change to the simulated FIB. Runs on
// the speaker's goroutine; marshals to the engine. Route installs are
// control plane activity (they correspond to kernel route installs in the
// original Horse).
func (m *Manager) applyRoute(node core.NodeID, ev bgp.RouteEvent) {
	if len(ev.NextHops) == 0 {
		m.Stats.RouteWithdraws.Add(1)
		m.Engine.Post(func() {
			_ = m.Net.WithdrawRoute(node, fib.Route{Prefix: ev.Prefix}, m.Engine.Now())
			m.scheduleFlush()
		})
		return
	}
	m.Stats.RouteInstalls.Add(1)
	m.Engine.Post(func() {
		_ = m.Net.InstallRoute(node, fib.Route{Prefix: ev.Prefix, NextHops: ev.NextHops}, m.Engine.Now())
		m.scheduleFlush()
	})
}

// ---------------------------------------------------------------------------
// SDN scenario wiring
// ---------------------------------------------------------------------------

// WireSDN launches the controller with the given app and one OpenFlow
// agent per Switch node, wiring each over a tapped channel.
func (m *Manager) WireSDN(app controller.App) error {
	switches := m.G.Switches()
	if len(switches) == 0 {
		return fmt.Errorf("cm: topology has no switches")
	}
	m.ctl = controller.New(m.G, m.Clock(), app, m.Logf)
	for _, sw := range switches {
		node := sw.ID
		var sess *capture.Session
		if m.cap != nil {
			// The OpenFlow management network is not part of the
			// simulated topology, so fabricate one: the switch actively
			// opens from a per-node management address to the controller
			// on TCP/6633, exactly as a real deployment's control
			// network would look in a capture.
			var err error
			sess, err = m.cap.Session(
				fmt.Sprintf("openflow-%s", sw.Name),
				capture.Endpoint{Name: sw.Name, MAC: mgmtMAC(uint64(node) + 1), IP: mgmtIP(uint32(node) + 1)},
				capture.Endpoint{Name: "controller", MAC: mgmtMAC(0xC0), IP: mgmtIP(0xFFFE), Port: capture.PortOpenFlow},
			)
			if err != nil {
				return err
			}
		}
		swEnd, ctlEnd := m.tappedPipe(sess)
		var ports []openflow.PhyPort
		for _, p := range sw.Ports {
			ports = append(ports, openflow.PhyPort{
				PortNo: uint16(p.ID),
				HWAddr: p.MAC,
				Name:   fmt.Sprintf("%s-p%d", sw.Name, p.ID),
				Curr:   1 << 6, // 1GbE full duplex
			})
		}
		agent := openflow.NewAgent(controller.DPIDOf(node), ports, swEnd, &dataPlane{m: m, node: node}, m.Logf)
		m.agents[node] = agent
		m.procs.Add(emu.ProcFunc{StartFn: agent.Start, StopFn: agent.Stop})
		if err := m.ctl.Connect(node, controller.DPIDOf(node), ctlEnd); err != nil {
			return err
		}
	}
	// Flow entry expiry sweep, once per virtual second.
	m.Engine.PostData(func() { m.expireLoop() })
	return nil
}

// mgmtIP synthesizes an address on the fabricated 172.16/12 OpenFlow
// management network for capture framing.
func mgmtIP(host uint32) netip.Addr {
	return core.IPv4FromUint32(0xAC10_0000 | host&0xFFFF)
}

// mgmtMAC synthesizes a management-network MAC for capture framing.
func mgmtMAC(v uint64) core.MAC {
	return core.MACFromUint64(0x0F_0000_0000 | v)
}

func (m *Manager) expireLoop() {
	m.Engine.After(core.Second, func() {
		m.Net.ExpireFlowEntries(m.Engine.Now())
		m.expireLoop()
	})
}

// ---------------------------------------------------------------------------
// Failure & dynamics injection
// ---------------------------------------------------------------------------
//
// The injection methods apply a scripted event to the simulated data
// plane and notify the emulated control plane exactly as the real event
// would: a BGP router loses its session the moment the link drops
// (interface-down, not hold-timer expiry), an OpenFlow switch reports
// PORT_STATUS. Every injection is a control plane event, so the hybrid
// clock enters FTI and the emulated processes react in wall time.
// Engine goroutine only (injections are scheduled simulation events).

// CableDown fails the cable containing the directed link ab.
func (m *Manager) CableDown(ab *topo.Link) {
	m.Engine.MarkControl()
	if !m.Net.SetCableState(ab.ID, true, m.Engine.Now()) {
		// Already down — e.g. a node outage took the cable with it. The
		// explicit down-intent still matters: strip the cable from any
		// node's restore list so NodeUp does not revive it; only its own
		// LinkUp will.
		m.forgetNodeDowned(ab)
		return
	}
	m.Stats.Injections.Add(1)
	m.notifyCable(ab, true)
	m.scheduleFlush()
}

// forgetNodeDowned removes a cable from every crashed node's restore
// list.
func (m *Manager) forgetNodeDowned(ab *topo.Link) {
	for id, links := range m.nodeDowned {
		kept := links[:0]
		for _, l := range links {
			if l.ID != ab.ID && l.ID != ab.Reverse {
				kept = append(kept, l)
			}
		}
		m.nodeDowned[id] = kept
	}
}

// CableUp repairs the cable containing ab: capacity returns, BGP
// sessions re-peer over a fresh transport, switches report the port up.
//
// A cable cannot come up while an endpoint node is crashed — plugging a
// cable back into a dead router does nothing until the router boots. In
// that case the up-intent is recorded on the crashed node's restore
// list and NodeUp completes the repair (this also covers two adjacent
// crashed nodes: the first NodeUp defers their shared cable to the
// second).
func (m *Manager) CableUp(ab *topo.Link) {
	m.Engine.MarkControl()
	from := m.G.Node(ab.From)
	to := m.G.Node(ab.To)
	if from.Down() || to.Down() {
		for _, n := range []*topo.Node{from, to} {
			if n.Down() && !m.restoreListed(n.ID, ab) {
				m.nodeDowned[n.ID] = append(m.nodeDowned[n.ID], ab)
			}
		}
		return
	}
	if !m.Net.SetCableState(ab.ID, false, m.Engine.Now()) {
		return
	}
	m.Stats.Injections.Add(1)
	m.notifyCable(ab, false)
	m.scheduleFlush()
}

// restoreListed reports whether the cable is already on a crashed
// node's restore list.
func (m *Manager) restoreListed(id core.NodeID, ab *topo.Link) bool {
	for _, l := range m.nodeDowned[id] {
		if l.ID == ab.ID || l.ID == ab.Reverse {
			return true
		}
	}
	return false
}

// CableRate changes the capacity of the cable containing ab (both
// directions) — a pure data plane dynamics event: allocations re-solve
// over the dirty region, no session or port state changes.
func (m *Manager) CableRate(ab *topo.Link, rate core.Rate) {
	m.Engine.MarkControl()
	m.Stats.Injections.Add(1)
	m.Net.SetCableRate(ab.ID, rate, m.Engine.Now())
}

// NodeDown fails a node: every attached cable goes down (sessions reset,
// PORT_STATUS floods from the surviving neighbors) and the node stops
// forwarding. The node's emulated process keeps running but is isolated,
// like a router whose every interface lost carrier.
func (m *Manager) NodeDown(id core.NodeID) {
	node := m.G.Node(id)
	if node == nil || node.Down() {
		return
	}
	var downed []*topo.Link
	for _, p := range node.Ports {
		if l := m.G.Link(p.Link); l != nil && !l.Down() {
			m.CableDown(l)
			downed = append(downed, l)
		}
	}
	m.nodeDowned[id] = downed
	m.Net.SetNodeState(id, true, m.Engine.Now())
	m.scheduleFlush()
}

// NodeUp restores a node and the cables its NodeDown failed (cables
// failed by an independent LinkDown stay down until their own LinkUp);
// BGP sessions re-peer and the control plane re-converges.
func (m *Manager) NodeUp(id core.NodeID) {
	node := m.G.Node(id)
	if node == nil || !node.Down() {
		return
	}
	m.Net.SetNodeState(id, false, m.Engine.Now())
	for _, l := range m.nodeDowned[id] {
		m.CableUp(l)
	}
	delete(m.nodeDowned, id)
	m.scheduleFlush()
}

// notifyCable delivers the control plane's view of a cable transition.
func (m *Manager) notifyCable(ab *topo.Link, down bool) {
	from := m.G.Node(ab.From)
	to := m.G.Node(ab.To)
	pa := m.G.Port(ab.From, ab.FromPort)
	pb := m.G.Port(ab.To, ab.ToPort)
	// A repaired host access link brings the router's connected /32 back
	// (interface-up re-adds what the interface-down prune removed).
	if !down {
		if from.Kind == topo.Router && to.Kind == topo.Host {
			_ = m.Net.InstallRoute(from.ID, connectedRoute(pa, to), m.Engine.Now())
		}
		if to.Kind == topo.Router && from.Kind == topo.Host {
			_ = m.Net.InstallRoute(to.ID, connectedRoute(pb, from), m.Engine.Now())
		}
	}
	// BGP: the routing daemons react to the interface change at once.
	if from.Kind == topo.Router && to.Kind == topo.Router {
		if down {
			if sp := m.speakers[from.ID]; sp != nil {
				sp.ResetPeer(pb.IP)
			}
			if sp := m.speakers[to.ID]; sp != nil {
				sp.ResetPeer(pa.IP)
			}
		} else if m.speakers[from.ID] != nil && m.speakers[to.ID] != nil {
			l := ab
			if l.ID > l.Reverse {
				l = m.G.Link(l.Reverse)
			}
			if err := m.peerCable(l); err != nil {
				m.Logf("cm: re-peering %s-%s: %v", from.Name, to.Name, err)
			}
		}
	}
	// SDN: the switch agents report carrier loss/return to the
	// controller as real PORT_STATUS messages.
	if agent := m.agents[from.ID]; agent != nil {
		agent.SetPortDown(uint16(ab.FromPort), down)
	}
	if agent := m.agents[to.ID]; agent != nil {
		agent.SetPortDown(uint16(ab.ToPort), down)
	}
}

// handlePacketIn runs on the engine goroutine when the simulated data
// plane punts a table miss; it emits a real PACKET_IN through the
// switch's agent.
func (m *Manager) handlePacketIn(pi netmodel.PacketIn) {
	agent := m.agents[pi.Node]
	if agent == nil {
		return
	}
	srcHost, ok := m.G.HostByIP(pi.Tuple.Src)
	var srcMAC, dstMAC core.MAC
	if ok {
		srcMAC = srcHost.MAC
	}
	if dstHost, ok := m.G.HostByIP(pi.Tuple.Dst); ok {
		dstMAC = dstHost.MAC
	}
	frame, err := wire.BuildFlowFrame(srcMAC, dstMAC, pi.Tuple, nil)
	if err != nil {
		m.Logf("cm: cannot build packet-in frame: %v", err)
		return
	}
	m.Stats.PacketIns.Add(1)
	// The punt is a control plane event: hold the clock in FTI while
	// the controller reacts. Sending is a queue write on the tapped
	// channel; safe from the engine goroutine.
	m.Engine.MarkControl()
	agent.SendPacketIn(uint16(pi.InPort), frame)
}

// dataPlane adapts one switch's simulated state to openflow.DataPlane.
// Methods run on the agent's reader goroutine and marshal to the engine.
type dataPlane struct {
	m    *Manager
	node core.NodeID
}

// ApplyFlowMod implements openflow.DataPlane.
func (d *dataPlane) ApplyFlowMod(fm openflow.FlowMod) error {
	mod, err := translateFlowMod(fm)
	if err != nil {
		return err
	}
	d.m.Stats.FlowModsApplied.Add(1)
	d.m.Engine.Post(func() {
		if err := d.m.Net.ApplyFlowMod(d.node, mod, d.m.Engine.Now()); err != nil {
			d.m.Logf("cm: flow mod on %v: %v", d.node, err)
		}
		d.m.scheduleFlush()
	})
	return nil
}

// PortStats implements openflow.DataPlane.
func (d *dataPlane) PortStats() []openflow.PortStatsEntry {
	d.m.Stats.StatsQueries.Add(1)
	entries, _ := sim.Call(d.m.Engine, true, func() []openflow.PortStatsEntry {
		stats := d.m.Net.PortStatsOf(d.node, d.m.Engine.Now())
		out := make([]openflow.PortStatsEntry, 0, len(stats))
		for _, s := range stats {
			out = append(out, openflow.PortStatsEntry{
				PortNo:  uint16(s.Port),
				TxBytes: s.TxBytes,
				RxBytes: s.RxBytes,
			})
		}
		return out
	})
	return entries
}

// FlowStats implements openflow.DataPlane.
func (d *dataPlane) FlowStats() []openflow.FlowStatsEntry {
	d.m.Stats.StatsQueries.Add(1)
	entries, _ := sim.Call(d.m.Engine, true, func() []openflow.FlowStatsEntry {
		now := d.m.Engine.Now()
		stats := d.m.Net.FlowStatsOf(d.node, now)
		out := make([]openflow.FlowStatsEntry, 0, len(stats))
		for _, s := range stats {
			out = append(out, openflow.FlowStatsEntry{
				Match:     openflow.MatchFromTable(s.Match),
				Priority:  s.Priority,
				ByteCount: s.Bytes,
				DurationS: uint32((now - s.Installed) / core.Second),
			})
		}
		return out
	})
	return entries
}

// PacketOut implements openflow.DataPlane. The fluid model has no
// individual packets to inject; PACKET_OUTs are acknowledged and counted
// but produce no data plane traffic.
func (d *dataPlane) PacketOut(po openflow.PacketOut) {
	d.m.Logf("cm: packet-out on %v ignored (fluid data plane)", d.node)
}

// translateFlowMod converts a wire FLOW_MOD into the data plane form.
func translateFlowMod(fm openflow.FlowMod) (netmodel.FlowMod, error) {
	var kind netmodel.FlowModKind
	switch fm.Command {
	case openflow.FCAdd:
		kind = netmodel.FlowModAdd
	case openflow.FCModify, openflow.FCModifyStrict:
		kind = netmodel.FlowModModify
	case openflow.FCDelete:
		kind = netmodel.FlowModDelete
	case openflow.FCDeleteStrict:
		kind = netmodel.FlowModDeleteStrict
	default:
		return netmodel.FlowMod{}, fmt.Errorf("cm: unknown flow mod command %d", fm.Command)
	}
	var actions []flowtable.Action
	for _, a := range fm.Actions {
		switch {
		case len(a.Group) > 0:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionSelectGroup, Group: a.Group})
		case a.ToCtrl:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionController})
		default:
			actions = append(actions, flowtable.Action{Type: flowtable.ActionOutput, Port: core.PortID(a.Output)})
		}
	}
	return netmodel.FlowMod{
		Kind: kind,
		Entry: flowtable.Entry{
			Priority:    fm.Priority,
			Match:       fm.Match.ToTable(),
			Actions:     actions,
			Cookie:      fm.Cookie,
			IdleTimeout: core.Time(fm.IdleTimeout) * core.Second,
			HardTimeout: core.Time(fm.HardTimeout) * core.Second,
		},
	}, nil
}

package cm

import (
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/flowtable"
	"repro/internal/netmodel"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topo"
)

func newEngine() *sim.Engine {
	return sim.New(sim.Config{
		FTIStep:      core.Millisecond,
		QuietTimeout: 100 * core.Millisecond,
		Pacing:       50,
		MaxIdleWall:  2 * time.Second,
		StartInFTI:   true,
	})
}

func TestTappedPipeNotifiesEngine(t *testing.T) {
	g, _ := topo.Star(2, topo.Switch, core.Gbps, 0)
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()

	a, b := m.TappedPipe()
	done := make(chan sim.Stats, 1)
	go func() { done <- engine.Run(core.Second) }()
	if _, err := a.Write([]byte("control")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := b.Read(buf); err != nil {
		t.Fatal(err)
	}
	engine.Stop()
	st := <-done
	if m.Stats.ControlBytes.Load() != 7 {
		t.Fatalf("control bytes = %d", m.Stats.ControlBytes.Load())
	}
	if m.Stats.ControlWrites.Load() != 1 {
		t.Fatalf("control writes = %d", m.Stats.ControlWrites.Load())
	}
	if st.ControlPosts == 0 {
		t.Fatal("engine saw no control activity")
	}
}

func TestWireBGPRequiresRouters(t *testing.T) {
	g, _ := topo.Star(2, topo.Switch, core.Gbps, 0)
	m := New(newEngine(), netmodel.New(g), nil)
	defer m.Stop()
	if err := m.WireBGP(BGPConfig{}); err == nil {
		t.Fatal("WireBGP on switch topology accepted")
	}
}

func TestWireSDNRequiresSwitches(t *testing.T) {
	g, _ := topo.TwoRouters(core.Gbps, 0)
	m := New(newEngine(), netmodel.New(g), nil)
	defer m.Stop()
	if err := m.WireSDN(&controller.ECMPApp{}); err == nil {
		t.Fatal("WireSDN on router topology accepted")
	}
}

func TestTranslateFlowMod(t *testing.T) {
	fm := openflow.FlowMod{
		Command:     openflow.FCAdd,
		Priority:    10,
		IdleTimeout: 5,
		HardTimeout: 60,
		Actions: []openflow.Action{
			{Output: 3},
			{ToCtrl: true},
			{Group: []core.PortID{1, 2}},
		},
	}
	mod, err := translateFlowMod(fm)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Kind != netmodel.FlowModAdd {
		t.Fatalf("kind = %v", mod.Kind)
	}
	if mod.Entry.IdleTimeout != 5*core.Second || mod.Entry.HardTimeout != 60*core.Second {
		t.Fatalf("timeouts = %v/%v", mod.Entry.IdleTimeout, mod.Entry.HardTimeout)
	}
	if len(mod.Entry.Actions) != 3 ||
		mod.Entry.Actions[0].Type != flowtable.ActionOutput ||
		mod.Entry.Actions[1].Type != flowtable.ActionController ||
		mod.Entry.Actions[2].Type != flowtable.ActionSelectGroup {
		t.Fatalf("actions = %+v", mod.Entry.Actions)
	}
	for cmd, want := range map[uint16]netmodel.FlowModKind{
		openflow.FCModify:       netmodel.FlowModModify,
		openflow.FCModifyStrict: netmodel.FlowModModify,
		openflow.FCDelete:       netmodel.FlowModDelete,
		openflow.FCDeleteStrict: netmodel.FlowModDeleteStrict,
	} {
		m, err := translateFlowMod(openflow.FlowMod{Command: cmd})
		if err != nil || m.Kind != want {
			t.Fatalf("command %d -> %v, %v", cmd, m.Kind, err)
		}
	}
	if _, err := translateFlowMod(openflow.FlowMod{Command: 99}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestWireBGPFigure1EndToEnd(t *testing.T) {
	// Direct CM-level version of the paper's Figure 1, without the
	// public API: two routers converge and FIBs fill in.
	g, err := topo.TwoRouters(core.Gbps, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	if err := m.WireBGP(BGPConfig{}); err != nil {
		t.Fatal(err)
	}
	st := engine.Run(20 * core.Second)
	if m.Stats.RouteInstalls.Load() < 2 {
		t.Fatalf("route installs = %d", m.Stats.RouteInstalls.Load())
	}
	r1, _ := g.NodeByName("r1")
	r2, _ := g.NodeByName("r2")
	// Each FIB holds: its own host /32 (connected) plus the peer's /24.
	if net.FIB(r1.ID).Len() < 2 || net.FIB(r2.ID).Len() < 2 {
		t.Fatalf("FIB sizes = %d / %d", net.FIB(r1.ID).Len(), net.FIB(r2.ID).Len())
	}
	if st.ControlPosts == 0 {
		t.Fatal("no control activity observed")
	}
	// Speakers are reachable for inspection.
	if m.Speaker(r1.ID) == nil || m.Speaker(r2.ID) == nil {
		t.Fatal("speakers not registered")
	}
	rib := m.Speaker(r1.ID).LocRIB()
	if len(rib) < 2 {
		t.Fatalf("r1 LocRIB = %v", rib)
	}
}

func TestWireSDNHandshakesAllSwitches(t *testing.T) {
	g, err := topo.FatTree(topo.FatTreeOpts{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	if err := m.WireSDN(&controller.ECMPApp{}); err != nil {
		t.Fatal(err)
	}
	engine.Run(10 * core.Second)
	if got := m.Controller().ReadyCount(); got != len(g.Switches()) {
		t.Fatalf("ready switches = %d, want %d", got, len(g.Switches()))
	}
	// The proactive app populated every switch's table.
	for _, sw := range g.Switches() {
		if net.Table(sw.ID).Len() == 0 {
			t.Fatalf("switch %s has empty table", sw.Name)
		}
	}
	if m.Stats.FlowModsApplied.Load() == 0 {
		t.Fatal("no flow mods crossed the CM")
	}
}

// TestStopIsQuietOnConvergedWAN pins group teardown at the Connection
// Manager: stopping a converged multi-AS WAN closes every BGP session
// without a single FIB withdrawal.
func TestStopIsQuietOnConvergedWAN(t *testing.T) {
	g, err := topo.WANMultiAS(topo.MultiASOpts{
		WANOpts:           topo.WANOpts{PoPs: 3, Seed: 7},
		ASes:              3,
		FullTablePrefixes: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := newEngine()
	net := netmodel.New(g)
	m := New(engine, net, nil)
	defer m.Stop()
	if err := m.WireBGP(BGPConfig{RouteReflection: true, LinkLatency: true}); err != nil {
		t.Fatal(err)
	}
	engine.Run(20 * core.Second)
	if m.Stats.RouteInstalls.Load() < 300 {
		t.Fatalf("route installs = %d, full table not distributed", m.Stats.RouteInstalls.Load())
	}
	withdraws := m.Stats.RouteWithdraws.Load()
	m.Stop()
	if got := m.Stats.RouteWithdraws.Load(); got != withdraws {
		t.Fatalf("Stop issued %d route withdrawals", got-withdraws)
	}
}

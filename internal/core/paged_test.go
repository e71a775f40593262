package core_test

import (
	"runtime"
	"testing"

	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// spineHarness drives one spine's module by hand, as an upstream agg
// and a downstream agg would: data arrives on a switch-facing ingress
// port with consecutive PSNs, credits come back on the egress port. The
// engine never runs, so timers arm once and stay armed.
type spineHarness struct {
	n   *device.Network
	sw  *device.Switch
	fc  device.FlowControl
	src packet.NodeID
	psn map[packet.NodeID]units.ByteSize
}

const spineIn = 0 // the spine's port toward pod 0, where src lives

func newSpineHarness(n *device.Network, spine int) *spineHarness {
	sw := n.Switches[spine] // Clos builders number the spines first
	if sw == nil || sw.Node().Layer != topo.LayerCore {
		panic("node is not a spine")
	}
	return &spineHarness{n: n, sw: sw, fc: sw.FC(), src: n.Topo.Hosts[0], psn: map[packet.NodeID]units.ByteSize{}}
}

// forward pushes one MTU toward dst through OnIngress and OnDequeue and
// returns the egress port; the window must have room.
func (h *spineHarness) forward(t testing.TB, dst packet.NodeID) int {
	out := h.n.Route(h.sw.Node().ID, h.src, dst)
	p := h.n.NewCtrl(packet.Data, 1, h.src, dst)
	p.Size = packet.MTU
	p.InPort = spineIn
	h.psn[dst] += p.Size
	p.PSN = h.psn[dst]
	p.FGEpoch = 1
	if h.fc.OnIngress(p, spineIn, out).Consumed {
		t.Fatalf("window for %d exhausted", dst)
	}
	h.fc.OnDequeue(p, out, 0)
	h.n.Recycle(p)
	return out
}

// credit reports that the downstream switch forwarded everything sent
// toward dst so far.
func (h *spineHarness) credit(t testing.TB, dst packet.NodeID, out int) {
	cr := h.n.NewCtrl(packet.Credit, 0, h.sw.Node().Ports[out].Peer, h.sw.Node().ID)
	cr.Credits = append(cr.Credits[:0], packet.CreditEntry{Dst: dst, Bytes: packet.MTU, Cum: h.psn[dst]})
	if !h.fc.OnCtrl(cr, out) {
		t.Fatal("module did not consume a credit")
	}
	h.n.Recycle(cr)
}

func clos100kNet() *device.Network {
	tp := topo.Clos100k().Build()
	return device.New(device.Config{Topo: tp, Engine: sim.NewEngine(), FC: core.New(core.DefaultConfig(64 * units.KB))})
}

// TestStateFollowsActiveDestinations is the §7.4 feasibility argument
// as a test: what a switch allocates for Floodgate grows with the
// destinations it actually forwards to, not with the fabric. The first
// destination a switch and an ingress port serve lives inline in their
// tables — on a single incast's path that is the only one — and every
// later 256-ID stretch touched mints one page of window records and one
// of credit channels (43 KB). The dense per-ingress-port rows the pages
// replaced cost one pointer per node — 831 KB on this fabric — for the
// first packet.
func TestStateFollowsActiveDestinations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 102,400-host Clos")
	}
	n := clos100kNet()
	hosts := n.Topo.Hosts
	last := len(hosts) - 1
	claim := hosts[last-256*80] // a far destination on none of the pages below
	// Warm the packet pool and the engine's timer slots on a spine the
	// measurements do not use.
	newSpineHarness(n, 3).forward(t, claim)

	// allocated forwards one packet to each of dsts (all in far pods)
	// through a fresh spine. With inline set, claim takes the inline
	// slots first, so every measured destination lands on a page.
	allocated := func(spine int, inline bool, dsts []packet.NodeID) uint64 {
		h := newSpineHarness(n, spine)
		if inline {
			h.forward(t, claim)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, dst := range dsts {
			h.forward(t, dst)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	var spreadDsts, packedDsts []packet.NodeID
	for i := 0; i < 64; i++ {
		spreadDsts = append(spreadDsts, hosts[last-256*i]) // 64 different pages
	}
	page := hosts[last-200] >> 8
	for i := last; i >= 0 && len(packedDsts) < 64; i-- {
		if hosts[i]>>8 == page {
			packedDsts = append(packedDsts, hosts[i])
		}
	}
	if len(packedDsts) != 64 {
		t.Fatalf("found %d hosts on one 256-ID page, want 64", len(packedDsts))
	}

	// The least of three fresh spines: now and then the runtime
	// allocates a few KB of its own inside a window this short.
	one := min(allocated(0, false, spreadDsts[:1]), allocated(4, false, spreadDsts[:1]), allocated(5, false, spreadDsts[:1]))
	spread := allocated(1, true, spreadDsts)
	packed := allocated(2, true, packedDsts)
	t.Logf("allocated: 1 dst %d B, 64 dsts on 64 pages %d B, 64 dsts on one page %d B (node-sized row: %d B)",
		one, spread, packed, 8*len(n.Switches))

	if one > 1<<10 {
		t.Errorf("one destination on a fresh spine allocated %d B, want ≤ 1 KB: its state is not inline", one)
	}
	if perPage := spread / 64; packed > 2*perPage {
		t.Errorf("64 destinations on one page allocated %d B, want about one page's %d B", packed, perPage)
	}
	if spread > 64*packed+packed/2 {
		t.Errorf("64 pages allocated %d B, more than 64× one page's %d B", spread, packed)
	}
	if spread < 32*packed {
		t.Errorf("64 pages allocated %d B, under 32× one page's %d B — pages are not per 256 destinations", spread, packed)
	}
}

// TestWarmDstStateZeroAlloc: on a destination whose window record,
// credit channel and port counters exist, the per-packet path the
// ledger's core.forward_ns / core.credit_ns rungs time — OnIngress,
// OnDequeue, credit apply — allocates nothing.
func TestWarmDstStateZeroAlloc(t *testing.T) {
	tp := topo.LeafSpineConfig{Spines: 1, ToRs: 2, HostsPerToR: 2,
		HostRate: 100 * units.Gbps, SpineRate: 400 * units.Gbps, Prop: 600 * units.Nanosecond}.Build()
	n := device.New(device.Config{Topo: tp, Engine: sim.NewEngine(), FC: core.New(core.DefaultConfig(64 * units.KB))})
	var h *spineHarness
	for id, sw := range n.Switches {
		if sw != nil && sw.Node().Layer == topo.LayerCore {
			h = newSpineHarness(n, id)
		}
	}
	dst := tp.Hosts[len(tp.Hosts)-1]
	op := func() { h.credit(t, dst, h.forward(t, dst)) }
	for i := 0; i < 64; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("warm forward+dequeue+credit allocates %.1f allocs/op, want 0", allocs)
	}
	if d := h.fc.(*core.Module).WindowDeficit(); d != 0 {
		t.Fatalf("window deficit %v after every segment was credited", d)
	}
}

// TestVOQPoolBuiltOnFirstPark: a module builds its VOQ pool (MaxVOQs
// structs and their free lists, ≈11 KB) when a window first runs dry,
// not at construction — most switches never park a packet — and the
// pool's readers (VOQsInUse, StallReport, Restart) take an unbuilt one.
// Every frame is charged to the switch's buffer as admission charges
// it, so the bytes Restart releases are bytes the books hold, and they
// read zero after it.
func TestVOQPoolBuiltOnFirstPark(t *testing.T) {
	n := device.New(device.Config{Topo: topo.DefaultClos().Build(), Engine: sim.NewEngine(),
		FC: core.New(core.DefaultConfig(64 * units.KB))})
	h := newSpineHarness(n, 0)
	m := h.fc.(*core.Module)
	dst := n.Topo.Hosts[len(n.Topo.Hosts)-1]
	out := n.Route(h.sw.Node().ID, h.src, dst)

	if m.VOQsInUse() != 0 || m.StallReport() != (device.StallInfo{}) {
		t.Fatalf("fresh module reports %d VOQs in use, stall info %+v", m.VOQsInUse(), m.StallReport())
	}
	m.Restart() // nothing built, nothing to reset

	// parkOne offers MTUs until the window runs dry and one parks, and
	// returns what handling that one allocated.
	parkOne := func() uint64 {
		for {
			p := n.NewCtrl(packet.Data, 1, h.src, dst)
			p.Size = packet.MTU
			h.sw.Charge(p, spineIn)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			consumed := h.fc.OnIngress(p, spineIn, out).Consumed
			runtime.ReadMemStats(&m1)
			if consumed {
				return m1.TotalAlloc - m0.TotalAlloc
			}
			h.sw.ReleaseParked(p) // forwarded: its bytes go back as at txDone
			n.Recycle(p)
		}
	}
	parking := parkOne()
	pool := uint64(core.DefaultConfig(64*units.KB).MaxVOQs) * 64 // a voq struct is 72 B, its two index slots 16 B
	if m.VOQsInUse() != 1 || parking < pool {
		t.Fatalf("first park: %d VOQs in use, %d B allocated; want 1 and at least the pool's %d B", m.VOQsInUse(), parking, pool)
	}
	if si := m.StallReport(); si.ParkedBytes != packet.MTU || si.ExhaustedWindows != 1 {
		t.Fatalf("stall info after one park: %+v", si)
	}
	if b := h.sw.Buffered(); b != packet.MTU {
		t.Fatalf("the switch holds %v with one frame parked, want %v", b, packet.MTU)
	}
	m.Restart()
	if m.VOQsInUse() != 0 || m.StallReport().ParkedBytes != 0 {
		t.Fatalf("after restart: %d VOQs in use, stall info %+v", m.VOQsInUse(), m.StallReport())
	}
	if b := h.sw.Buffered(); b != 0 {
		t.Fatalf("the switch holds %v after restart, want 0", b)
	}
	for c, g := range n.Metrics.QueuedBytes {
		if v := g.Value(); v != 0 {
			t.Fatalf("%v ports hold %d queued or parked bytes after restart, want 0", topo.PortClass(c), v)
		}
	}
	if again := parkOne(); m.VOQsInUse() != 1 || again >= pool {
		t.Fatalf("park after restart: %d VOQs in use, %d B allocated; the pool (%d B) must be reused", m.VOQsInUse(), again, pool)
	}
}

//go:build simdebug

package core

import (
	"fmt"
	"strings"
	"testing"

	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// TestWindowLawFires breaks a credit on purpose — applied once through
// the cumulative basis and once more as a byte count, the double credit
// a byte-counted mode could introduce — and checks that the next window
// decrement panics naming the law, the switch, the destination and the
// two numbers, while the healthy forward and credit before it pass.
func TestWindowLawFires(t *testing.T) {
	tp := topo.LeafSpineConfig{Spines: 1, ToRs: 2, HostsPerToR: 2,
		HostRate: 100 * units.Gbps, SpineRate: 400 * units.Gbps, Prop: 600 * units.Nanosecond}.Build()
	n := device.New(device.Config{Topo: tp, Engine: sim.NewEngine(), FC: New(DefaultConfig(64 * units.KB))})
	var m *Module
	for _, sw := range n.Switches {
		if sw != nil && sw.Node().Layer == topo.LayerCore {
			m = sw.FC().(*Module)
		}
	}
	src, dst := tp.Hosts[0], tp.Hosts[len(tp.Hosts)-1]
	out := n.Route(m.sw.Node().ID, src, dst)
	forward := func() {
		p := n.NewCtrl(packet.Data, 1, src, dst)
		p.Size = packet.MTU
		if m.OnIngress(p, 0, out).Consumed {
			t.Fatal("window exhausted")
		}
	}

	forward()
	cr := n.NewCtrl(packet.Credit, 0, m.sw.Node().Ports[out].Peer, m.sw.Node().ID)
	cr.Credits = append(cr.Credits[:0], packet.CreditEntry{Dst: dst, Bytes: packet.MTU, Cum: packet.MTU})
	m.OnCtrl(cr, out)
	w := m.dsts.get(dst)
	w.avail += packet.MTU // the same credit, counted a second time

	defer func() {
		msg := fmt.Sprint(recover())
		want := fmt.Sprintf("window law broken at %v on switch %d, dst %d: conservation: avail + Σ ports (sent − lastCum) == init: %d vs %d",
			m.now(), m.sw.Node().ID, dst, w.init+packet.MTU, w.init)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want it to contain %q", msg, want)
		}
	}()
	forward()
}

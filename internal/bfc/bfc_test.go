package bfc_test

import (
	"fmt"
	"strings"
	"testing"

	"floodgate/internal/bfc"
	"floodgate/internal/cc"
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

func bfcNet(queues int, ideal bool) (*device.Network, *topo.Topology) {
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: 8,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	qpp := queues
	if ideal {
		qpp = 256
	}
	cfg := device.Config{
		Topo:          tp,
		Engine:        sim.NewEngine(),
		Stats:         stats.NewCollector(10 * units.Microsecond),
		Seed:          2,
		PFC:           true,
		CC:            cc.NewFixedWindow(),
		QueuesPerPort: qpp,
		FC: bfc.New(bfc.Config{
			NumQueues: queues, Ideal: ideal, PauseThresh: 8 * packet.MTU,
		}),
	}
	return device.New(cfg), tp
}

func runIncast(t *testing.T, n *device.Network, tp *topo.Topology, senders int) []*device.Flow {
	t.Helper()
	dst := tp.Hosts[len(tp.Hosts)-1]
	var flows []*device.Flow
	for i := 0; i < senders; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], dst, 100*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(200 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d incomplete under BFC", i)
		}
	}
	return flows
}

func TestBFC32QIncastCompletes(t *testing.T) {
	n, tp := bfcNet(32, false)
	runIncast(t, n, tp, 16)
	if n.Stats.Drops != 0 {
		t.Fatalf("drops: %d", n.Stats.Drops)
	}
}

func TestBFCIdealIncastCompletes(t *testing.T) {
	n, tp := bfcNet(0, true)
	runIncast(t, n, tp, 16)
}

func TestBFCBoundsQueues(t *testing.T) {
	// BFC's whole point: per-hop backpressure keeps switch buffers near
	// the pause threshold instead of absorbing the full incast.
	nPlain, tpPlain := bfcNet(32, false)
	// Build an identical network without BFC for comparison.
	cfgTopo := topo.LeafSpineConfig{
		Spines: 2, ToRs: 3, HostsPerToR: 8,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	nNo := device.New(device.Config{
		Topo: cfgTopo, Engine: sim.NewEngine(),
		Stats: stats.NewCollector(10 * units.Microsecond),
		Seed:  2,
		PFC:   true,
		CC:    cc.NewFixedWindow(),
	})
	runIncast(t, nPlain, tpPlain, 16)
	runIncast(t, nNo, cfgTopo, 16)
	bfcBuf := nPlain.Stats.MaxClassBuffer(topo.ClassToRDown)
	noBuf := nNo.Stats.MaxClassBuffer(topo.ClassToRDown)
	if bfcBuf >= noBuf {
		t.Fatalf("BFC did not bound the last hop: %v vs %v without", bfcBuf, noBuf)
	}
}

func TestBFCPausesHostFlows(t *testing.T) {
	// With a tiny threshold, the first-hop ToR must push back on the
	// sending hosts per flow; the run still completes after resumes.
	tp := topo.LeafSpineConfig{
		Spines: 1, ToRs: 2, HostsPerToR: 4,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	n := device.New(device.Config{
		Topo: tp, Engine: sim.NewEngine(),
		Stats:         stats.NewCollector(10 * units.Microsecond),
		Seed:          4,
		PFC:           true,
		CC:            cc.NewFixedWindow(),
		QueuesPerPort: 8,
		FC:            bfc.New(bfc.Config{NumQueues: 8, PauseThresh: 2 * packet.MTU}),
	})
	dst := tp.Hosts[len(tp.Hosts)-1]
	var flows []*device.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, n.AddFlow(tp.Hosts[i], dst, 150*units.KB, 0, packet.CatIncast))
	}
	n.Run(units.Time(200 * units.Millisecond))
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d wedged by BFC pause (never resumed)", i)
		}
	}
}

func TestBFCQueueAssignmentSticky(t *testing.T) {
	// Hash assignment: the same flow always lands in the same queue, so
	// no reordering across queues.
	n, tp := bfcNet(32, false)
	f := n.AddFlow(tp.Hosts[0], tp.Hosts[23], 500*units.KB, 0, packet.CatVictimPFC)
	n.Run(units.Time(100 * units.Millisecond))
	if !f.Done() {
		t.Fatal("flow incomplete")
	}
}

// TestBFCQueueCountMismatch pins that a hashed binding with more queues
// than the device has, or none, fails when a switch builds its module,
// naming both counts, instead of clamping packets into the last queue
// and panicking later on a bare index.
func TestBFCQueueCountMismatch(t *testing.T) {
	tp := topo.LeafSpineConfig{
		Spines: 1, ToRs: 2, HostsPerToR: 2,
		HostRate: 10 * units.Gbps, SpineRate: 40 * units.Gbps,
		Prop: 600 * units.Nanosecond,
	}.Build()
	for _, c := range []struct{ queues, qpp int }{{8, 4}, {0, 4}, {-1, 1}} {
		want := fmt.Sprintf("NumQueues %d outside [1, QueuesPerPort %d]", c.queues, c.qpp)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, want) {
					t.Errorf("NumQueues %d, QueuesPerPort %d: panic %q, want one containing %q", c.queues, c.qpp, msg, want)
				}
			}()
			n := device.New(device.Config{
				Topo: tp, Engine: sim.NewEngine(),
				Stats:         stats.NewCollector(10 * units.Microsecond),
				CC:            cc.NewFixedWindow(),
				QueuesPerPort: c.qpp,
				FC:            bfc.New(bfc.Config{NumQueues: c.queues, PauseThresh: 8 * packet.MTU}),
			})
			n.AddFlow(tp.Hosts[0], tp.Hosts[3], 100*units.KB, 0, packet.CatIncast)
			n.Run(units.Time(10 * units.Millisecond))
		}()
	}
}

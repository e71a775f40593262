package exp

import (
	"fmt"
	"testing"

	"floodgate/internal/app"
	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// TestEagerVsLazyDevices is the differential oracle for mint-on-touch
// (DESIGN.md §3): whether a run's devices are built as something first
// touches them or all up front, in NodeID order, must not show in any
// table or in the flow metadata — not under the open-loop mix, on a
// sharded Clos where most of the fabric is never built, under a restart
// of a switch no flow comes near, or with the application plane on.
func TestEagerVsLazyDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	// Forensics on: its recorders are the per-flow FCT store the flow
	// metadata digest reads, so a per-flow FCT difference fails the test.
	smoke := Options{Scale: 0.1, Seed: 1, Parallelism: 1, Shards: 1, Obs: ObsConfig{Forensics: true}}

	type oracleCase struct {
		name   string
		sparse bool // the lazy side must end with far fewer devices
		run    func() []Table
	}
	o := smoke.norm()
	cases := []oracleCase{
		{"incastmix", false, func() []Table {
			tp := o.leafSpine()
			fg := WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
			return []Table{resultTable(Run(mixRun(o, tp, workload.WebServer, fg)))}
		}},
		{"sloincast", false, func() []Table {
			c := sloCell{"8", 8, "tight(1.5x)", 1.5, DCQCN(o), app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}
			return []Table{{Header: sloHeader, Rows: sloRows(o.inBatch(), []sloCell{c})}}
		}},
		{"restart-off-path", true, func() []Table { return []Table{resultTable(offPathRestartRun(o))} }},
	}
	for _, shards := range []int{1, 2} {
		so := smoke
		so.Topo, so.Shards = "clos", shards
		cases = append(cases, oracleCase{fmt.Sprintf("scaleincast-clos-shards%d", shards), false,
			func() []Table { return ScaleIncast(so) }})
	}
	for _, c := range cases {
		lazy, eager := eagerVsLazy(c.run)
		if lazy.out != eager.out {
			t.Errorf("%s: minting on touch shows in the results:\n--- lazy ---\n%s\n--- eager ---\n%s", c.name, lazy.out, eager.out)
		}
		if lazy.devices > eager.devices || (c.sparse && lazy.devices > eager.devices/2) {
			t.Errorf("%s: lazy side ended with %d devices, eager with %d", c.name, lazy.devices, eager.devices)
		}
	}
}

// resultTable renders what a fault-matrix row reads off one result, plus
// the collector's drop, PFC and buffer figures.
func resultTable(res *RunResult) Table {
	fs := res.FaultStats()
	t := Table{Header: []string{"completed", "delivered", "restarts", "resyncs", "stalled", "drops", "pfc", "maxbuf", "events"}}
	t.AddRow(fmt.Sprintf("%d/%d", res.Completed, res.Total), fmt.Sprint(res.DeliveredBytes()),
		fmt.Sprint(fs.Restarts), fmt.Sprint(fs.Resyncs), fmt.Sprint(res.Stalled),
		fmt.Sprint(res.Stats.Drops), fmt.Sprint(res.Stats.PFCPauseTime(topo.LayerToR)),
		fmt.Sprint(res.Stats.MaxSwitchBuffer()), fmt.Sprint(res.Processed()))
	return t
}

// offPathRestartRun is a fault-matrix cell on the 128-host Clos whose
// fault lands where no frame ever goes: pod 0 sends an 8-way incast into
// pod 1 under DCQCN+Floodgate while a ToR of pod 3 restarts mid-run.
func offPathRestartRun(o Options) *RunResult {
	tp := buildClos(topo.DefaultClos(), o)
	dst := tp.Hosts[32]
	var specs []workload.FlowSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, workload.FlowSpec{Src: tp.Hosts[3*i], Dst: dst, Size: 40 * mtu, Cat: packet.CatIncast})
	}
	dur := o.duration(fullIncastMixDuration)
	idleToR := tp.Node(tp.Hosts[len(tp.Hosts)-1]).Ports[0].Peer
	return Run(RunConfig{
		Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)), Specs: specs,
		Duration: dur, Seed: o.Seed, Opt: o, Drain: 10 * dur,
		Faults: &fault.Plan{Events: []fault.Event{{At: units.Time(dur / 100), Kind: fault.SwitchRestart, Node: idleToR}}},
	})
}

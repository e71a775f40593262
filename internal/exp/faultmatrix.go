package exp

import (
	"fmt"
	"strings"

	"floodgate/internal/fault"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// This file is the fault-robustness experiment (beyond the paper): the
// §6 incast-mix workload run against a menu of fault scenarios — link
// down, link flaps, switch restarts, Gilbert–Elliott burst loss and a
// combined storm — comparing plain DCQCN with DCQCN+Floodgate. The
// claim under test: Floodgate's recovery plane (PSN credits, switchSYN
// resync, the credit-stall escape hatch) rides through fabric faults
// without stranding windows, so faulted runs still complete.

// faultScenario names one reproducible fault plan, parameterized by the
// topology under test and the workload window.
type faultScenario struct {
	name string
	plan func(tp *topo.Topology, dur units.Duration) *fault.Plan
}

// dstUplink returns the ToR↔spine link on the incast destination's
// path: faults there sit directly in the incast's blast radius.
func dstUplink(tp *topo.Topology) fault.Link {
	dst := tp.Hosts[len(tp.Hosts)-1]
	tor := tp.Node(dst).Ports[0].Peer
	for i := range tp.Node(tor).Ports {
		peer := tp.Node(tor).Ports[i].Peer
		if tp.Node(peer).Kind == topo.SwitchNode {
			return fault.Link{A: tor, B: peer}
		}
	}
	panic("exp: destination ToR has no switch uplink")
}

// dstToR returns the incast destination's ToR.
func dstToR(tp *topo.Topology) topoNodeID {
	dst := tp.Hosts[len(tp.Hosts)-1]
	return tp.Node(dst).Ports[0].Peer
}

// faultScenarios returns the matrix rows, mildest first.
func faultScenarios() []faultScenario {
	return []faultScenario{
		// healthy fabric baseline
		{"none", func(*topo.Topology, units.Duration) *fault.Plan {
			return nil
		}},
		// dst ToR uplink down for half the window
		{"linkdown", func(tp *topo.Topology, dur units.Duration) *fault.Plan {
			l := dstUplink(tp)
			return &fault.Plan{Events: []fault.Event{
				{At: units.Time(dur / 4), Kind: fault.LinkDown, Link: l},
				{At: units.Time(3 * dur / 4), Kind: fault.LinkUp, Link: l},
			}}
		}},
		// dst ToR uplink flaps 4x
		{"flap", func(tp *topo.Topology, dur units.Duration) *fault.Plan {
			return &fault.Plan{Events: fault.Flap(dstUplink(tp),
				units.Time(dur/8), dur/16, dur/8, 4)}
		}},
		// dst ToR restarts mid-incast
		{"restart", func(tp *topo.Topology, dur units.Duration) *fault.Plan {
			return &fault.Plan{Events: []fault.Event{
				{At: units.Time(dur / 3), Kind: fault.SwitchRestart, Node: dstToR(tp)},
			}}
		}},
		// 5% Gilbert-Elliott burst loss on all fabric links
		{"burst", func(*topo.Topology, units.Duration) *fault.Plan {
			return &fault.Plan{Burst: fault.BurstWithMeanLoss(0.05)}
		}},
		// flaps + spine restart + 2% burst loss
		{"storm", func(tp *topo.Topology, dur units.Duration) *fault.Plan {
			l := dstUplink(tp)
			evs := fault.Flap(l, units.Time(dur/8), dur/16, dur/4, 2)
			evs = append(evs, fault.Event{At: units.Time(dur / 2), Kind: fault.SwitchRestart, Node: l.B})
			return &fault.Plan{Events: evs, Burst: fault.BurstWithMeanLoss(0.02)}
		}},
	}
}

// FaultScenarioNames lists the scenario names in matrix order.
func FaultScenarioNames() []string {
	scs := faultScenarios()
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.name
	}
	return names
}

// FaultMatrix runs the full scenario × scheme matrix.
func FaultMatrix(o Options) []Table {
	return faultTables(faultScenarios(), o)
}

// RunFaultScenario runs a single named scenario (floodsim -faults).
func RunFaultScenario(name string, o Options) ([]Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	for _, sc := range faultScenarios() {
		if sc.name == name {
			return faultTables([]faultScenario{sc}, o.norm()), nil
		}
	}
	return nil, fmt.Errorf("exp: unknown fault scenario %q (have: %s)",
		name, strings.Join(FaultScenarioNames(), ", "))
}

func faultTables(scs []faultScenario, o Options) []Table {
	hdr := []string{"scenario", "scheme", "completed", "goodput", "linkEvts", "restarts", "resyncs", "stalled"}
	if o.Obs.Forensics {
		// Attribution columns ride along only when forensics is on, so
		// the base table stays byte-identical with it off.
		hdr = append(hdr, "parked", "episodes")
	}
	t := Table{
		Title:  "Fault matrix: incast mix under injected fabric faults",
		Header: hdr,
	}
	rows := runJobs(o, 2*len(scs), func(idx int) []string {
		sc := scs[idx/2]
		tp := o.leafSpine()
		s := schemePair(o, DCQCN, tp)[1-idx%2] // Floodgate first
		rcfg := mixRun(o, tp, workload.WebServer, s)
		dur := rcfg.Duration
		rcfg.Faults = sc.plan(tp, dur)
		rcfg.Drain = 10 * dur
		res := Run(rcfg)
		fs := res.FaultStats()
		stalled := fmt.Sprintf("%t", res.Stalled)
		if res.Stalled {
			stalled = "STALLED"
		}
		row := []string{sc.name, s.Name,
			fmt.Sprintf("%d/%d", res.Completed, res.Total),
			fmtRate(units.Rate(res.DeliveredBytes(), dur)),
			fmt.Sprintf("%d", fs.LinkEvents),
			fmt.Sprintf("%d", fs.Restarts),
			fmt.Sprintf("%d", fs.Resyncs),
			stalled}
		if res.Forensics != nil {
			row = append(row,
				fmtDur(res.Forensics.TotalParked),
				fmt.Sprintf("%d", len(res.Forensics.Episodes)))
		}
		return row
	})
	t.Rows = rows
	t.Comment = "extension: every scenario should complete (no STALLED rows); resyncs > 0 on restart rows shows switchSYN epoch recovery engaging"
	return []Table{t}
}

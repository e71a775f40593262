package exp

import (
	"fmt"

	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// The scaleincast experiment: the canonical incast burst on a
// datacenter-sized Clos. Its point is not a new congestion result —
// it is the scale demonstration structural routing buys: a
// 100k-host fabric builds, routes and completes an incast in one
// process, with route memory O(total ports) where the dense tables
// would need hundreds of gigabytes for slice headers alone.

// fullScaleIncastDuration is the paper-scale completion window for
// the burst; the slow-motion model stretches it like every other
// time constant, and windowOverride shrinks it for smoke tests.
const fullScaleIncastDuration = 8 * units.Millisecond

// scaleIncastDegree caps the burst fan-in. Unlike the paper-scale
// figures, the full cross-rack sender set at 100k hosts would be a
// 100k-flow burst — a different experiment (and hours of simulated
// serialization at one NIC); a fixed 256-way incast keeps the burst
// canonical while the fabric scales underneath it.
const scaleIncastDegree = 256

// topoPreset is one named large fabric.
type topoPreset struct {
	name string
	note string
	clos topo.ClosConfig
}

// topoPresets lists the -topo fabrics in menu order. Each preset
// fixes its dimensions exactly; Options.Scale only applies the
// slow-motion rate/time model (buildClos).
var topoPresets = []topoPreset{
	{"clos", "4-pod Clos, 128 hosts (smoke size)", topo.DefaultClos()},
	{"clos100k", "32-pod Clos, 102,400 hosts", topo.Clos100k()},
	{"fattree16", "k=16 fat tree, 1,024 hosts", topo.FatTree(16)},
	{"fattree32", "k=32 fat tree, 8,192 hosts", topo.FatTree(32)},
}

func buildClos(c topo.ClosConfig, o Options) *topo.Topology {
	c.HostRate = o.rate(c.HostRate)
	c.FabricRate = o.rate(c.FabricRate)
	c.Prop = o.stretch(c.Prop)
	return c.Build()
}

// TopoPresets returns the preset names in menu order, with one-line
// descriptions (floodsim -topo list).
func TopoPresets() [][2]string {
	out := make([][2]string, len(topoPresets))
	for i, p := range topoPresets {
		out[i] = [2]string{p.name, p.note}
	}
	return out
}

// scaleTopo resolves Options.Topo to a built fabric.
func (o Options) scaleTopo(def string) (*topo.Topology, string, error) {
	name := o.Topo
	if name == "" {
		name = def
	}
	for _, p := range topoPresets {
		if p.name == name {
			return buildClos(p.clos, o), name, nil
		}
	}
	return nil, "", fmt.Errorf("exp: unknown topology preset %q (have %v)", name, presetNames())
}

// presetNames lists the preset names in menu order.
func presetNames() []string {
	names := make([]string, len(topoPresets))
	for i, p := range topoPresets {
		names[i] = p.name
	}
	return names
}

// spreadSenders picks the bounded-degree burst's senders: `degree`
// cross-rack hosts spread evenly over the host range, so every pod
// contributes. burstSpecs then gives them the paper-scale pure
// incast's per-flow shape.
func spreadSenders(tp *topo.Topology, degree int) []topoNodeID {
	eligible := incastSenders(tp)
	picks := make([]topoNodeID, min(degree, len(eligible)))
	for i := range picks {
		picks[i] = eligible[i*len(eligible)/len(picks)]
	}
	return picks
}

// ScaleIncast runs the canonical incast on the selected large-fabric
// preset (default: the 100k-host Clos) under DCQCN with and without
// Floodgate, and reports two tables: the fabric's route-memory
// accounting and the burst's completion stats. Route memory is the
// deterministic count (O(total ports) vs the dense tables' estimate);
// the live heap budget is nondeterministic and asserted by the scale
// tests and benchmarks instead, keeping this table byte-identical
// across shards, parallelism and schedulers.
func ScaleIncast(o Options) []Table {
	tp, preset, err := o.scaleTopo("clos100k")
	if err != nil {
		panic(err)
	}
	mem := Table{
		Title:  "scaleincast: route memory — " + preset,
		Header: []string{"quantity", "value"},
	}
	hosts := int64(tp.NumHosts())
	nodes := int64(len(tp.Nodes))
	ports := int64(tp.TotalPorts())
	routeBytes := tp.RouteBytes()
	// The dense baseline counted analytically: the old tables held one
	// 24-byte slice header per (node, host) pair before a single
	// candidate entry — the term that made 100k hosts unbuildable.
	denseHeaders := 24 * nodes * (hosts + 1)
	mem.AddRow("hosts", fmt.Sprintf("%d", hosts))
	mem.AddRow("switches", fmt.Sprintf("%d", nodes-hosts))
	mem.AddRow("directed ports", fmt.Sprintf("%d", ports))
	mem.AddRow("route_bytes", fmt.Sprintf("%d", routeBytes))
	mem.AddRow("route bytes/port", fmt.Sprintf("%.1f", float64(routeBytes)/float64(ports)))
	mem.AddRow("dense headers (est)", fmt.Sprintf("%d", denseHeaders))
	mem.AddRow("dense/structural", fmt.Sprintf("%dx", denseHeaders/max(routeBytes, 1)))
	mem.AddRow("topo+route bytes/host", fmt.Sprintf("%d", (tp.StructBytes()+routeBytes)/max(hosts, 1)))
	mem.Comment = "deterministic accounting; live-heap budget asserted by TestScaleIncastCompletes / BenchmarkRunScaleIncast"

	dur := o.duration(fullScaleIncastDuration)
	// Both schemes share one immutable Topology — at 100k hosts,
	// building it twice would double the dominant memory term for no
	// isolation benefit (parallel runs share topologies everywhere
	// else too), and so do their specs.
	specs := burstSpecs(tp, o.Seed, spreadSenders(tp, scaleIncastDegree))
	runs := runJobs(o, 2, func(idx int) *RunResult {
		return Run(RunConfig{
			Topo: tp, Scheme: schemePair(o, DCQCN, tp)[idx], Specs: specs,
			Duration: dur, Seed: o.Seed, Opt: o,
			BufferSize: units.ByteSize(len(specs)) * 35 * mtu,
		})
	})
	run := Table{
		Title:  fmt.Sprintf("scaleincast: %d-way incast on %s", scaleIncastDegree, preset),
		Header: []string{"scheme", "completed", "avg FCT", "p99 FCT", "drops", "pfc pauses"},
	}
	for _, res := range runs {
		avg, p99 := stats.FCTStats(res.Stats.FCTs(stats.CatIncast))
		run.AddRow(res.Scheme,
			fmt.Sprintf("%d/%d", res.Completed, res.Total),
			fmt.Sprintf("%v", avg), fmt.Sprintf("%v", p99),
			fmt.Sprintf("%d", res.Stats.Drops), fmt.Sprintf("%d", res.Stats.PFCEventCount()))
	}
	return []Table{mem, run}
}

package main

import (
	"fmt"

	"floodgate/internal/device"
	"floodgate/internal/exp"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// size scales every workload between the ledger's full size and the
// smoke test's. The full size is part of the benchmark's definition:
// changing it starts a new baseline.
type size struct {
	Scale     float64 // leaf–spine slow-motion scale (1 = the paper's 160 hosts at 100/400 G)
	WindowDiv int64   // workload windows are divided by this
	SmallClos bool    // topo.DefaultClos() in place of topo.Clos100k()
	RungDiv   int     // rung operation counts are divided by this
}

var (
	fullSize  = size{Scale: 1, WindowDiv: 1, RungDiv: 1}
	smokeSize = size{Scale: 0.25, WindowDiv: 10, SmallClos: true, RungDiv: 16}
)

// Workload windows at full size. The incast-mix window holds two incast
// events (one every 806 µs): the second reuses windows and reallocates
// VOQs the first one freed, so it must not shrink below 850 µs.
const (
	incastMixWindow = 1000 * units.Microsecond
	memcachedWindow = 150 * units.Microsecond
	closWindow      = 8 * units.Millisecond
	closScale       = 0.25
	closDegree      = 256
)

type kind uint8

const (
	incastMix kind = iota
	memcachedChurn
	closIncast
)

// workloadDef is one named benchmark workload. Twin names the
// single-engine workload exp.shard_speedup is taken against; a
// workload that already runs on one engine is its own twin.
type workloadDef struct {
	Name      string
	Why       string
	Twin      string
	Kind      kind
	Floodgate bool
	Shards    int
	// TailPct is the highest FCT percentile with ten samples beyond it.
	TailPct float64
}

// workloads lists the ledger in run order. Why strings are repeated in
// BENCHMARK.json and bench/README.md.
var workloads = []workloadDef{
	{Name: "incastmix_fg", Twin: "incastmix_fg", Kind: incastMix, Floodgate: true, TailPct: 0.99,
		Why: "the paper's section 6 mix (WebServer Poisson 0.8 + 144-way incast) under DCQCN+Floodgate: every layer works and internal/core is on the blocking path"},
	{Name: "incastmix_dcqcn", Twin: "incastmix_dcqcn", Kind: incastMix, TailPct: 0.99,
		Why: "identical flows and fabric under plain DCQCN: bypasses internal/core, so a core-only change must not move it; PFC and ECN do the work instead"},
	{Name: "memcached_churn_dcqcn", Twin: "memcached_churn_dcqcn", Kind: memcachedChurn, TailPct: 0.999,
		Why: "half a million mostly single-packet Memcached flows: per-flow cost (generation, AddFlow, cc.Factory, flow tables, FlowDone) dominates per-packet cost"},
	{Name: "clos100k_incast_fg", Twin: "clos100k_incast_fg", Kind: closIncast, Floodgate: true, TailPct: 0.95,
		Why: "256-way incast on the 102,400-host Clos: set-up time and memory footprint dominate a run of only 200k events"},
	{Name: "incastmix_fg_shards2", Twin: "incastmix_fg", Kind: incastMix, Floodgate: true, Shards: 2, TailPct: 0.99,
		Why: "incastmix_fg through the two-shard conservative-window executor on two cores: same simulated results, prices barriers, mailboxes and the collector merge"},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// options returns the slow-motion options the workload's schemes and
// exp.Run are built against.
func (w workloadDef) options(sz size) exp.Options {
	o := exp.Options{Scale: sz.Scale, Parallelism: 1, Shards: w.Shards}
	if w.Kind == closIncast {
		o.Scale = closScale
	}
	return o
}

// buildTopo constructs the workload's fabric the way internal/exp does
// for its own experiments: rates shrink and propagation stretches with
// Scale, rack width follows Scale with a floor of 6 hosts.
func (w workloadDef) buildTopo(sz size) *topo.Topology {
	o := w.options(sz)
	if w.Kind == closIncast {
		c := topo.Clos100k()
		if sz.SmallClos {
			c = topo.DefaultClos()
		}
		c.HostRate = scaleRate(c.HostRate, o.Scale)
		c.FabricRate = scaleRate(c.FabricRate, o.Scale)
		c.Prop = stretch(c.Prop, o.Scale)
		return c.Build()
	}
	c := topo.DefaultLeafSpine()
	c.HostsPerToR = int(16*o.Scale + 0.5)
	if c.HostsPerToR < 6 {
		c.HostsPerToR = 6
	}
	c.Spines = (c.HostsPerToR + 3) / 4
	c.HostRate = scaleRate(c.HostRate, o.Scale)
	c.SpineRate = scaleRate(c.SpineRate, o.Scale)
	c.Prop = stretch(c.Prop, o.Scale)
	return c.Build()
}

func scaleRate(r units.BitRate, scale float64) units.BitRate {
	return units.BitRate(float64(r) * scale)
}

func stretch(d units.Duration, scale float64) units.Duration {
	return units.Duration(float64(d) / scale)
}

func (w workloadDef) window(sz size) units.Duration {
	switch w.Kind {
	case memcachedChurn:
		return memcachedWindow / units.Duration(sz.WindowDiv)
	case closIncast:
		return closWindow / units.Duration(sz.WindowDiv)
	}
	return incastMixWindow / units.Duration(sz.WindowDiv)
}

// generate makes the workload's flows from the seed. It is the only
// place the seed turns into inputs; the program under test receives the
// specs (and the seed for its ECMP/RED tie-break streams).
func (w workloadDef) generate(tp *topo.Topology, seed uint64, sz size) []workload.FlowSpec {
	specs := w.draw(tp, seed, sz)
	// A flow whose last segment would carry under 16 payload bytes puts a
	// 49–63 B data frame on the wire, shorter than the 64 B control frame
	// topo.Lookahead assumes as the minimum; when such a frame crosses a
	// shard cut at the wrong picosecond the sharded executor panics with
	// "scheduling into the past" (seed 26 of seeds 1–70 on
	// incastmix_fg_shards2). The benchmark needs workloads on which no
	// seed fails and may not touch the simulator, so those flows (about
	// 1 %) are lengthened by 16 B, on every workload so that the twins
	// keep identical flows. Drop this once the lookahead is fixed.
	for i := range specs {
		if tail := specs[i].Size % device.MSS; tail > 0 && tail < 16 {
			specs[i].Size += 16
		}
	}
	return specs
}

// draw samples the workload's flows.
func (w workloadDef) draw(tp *topo.Topology, seed uint64, sz size) []workload.FlowSpec {
	r := sim.NewRand(seed)
	hostRate := tp.Node(tp.Hosts[0]).Ports[0].Rate
	dst := tp.Hosts[len(tp.Hosts)-1]
	until := w.window(sz)
	switch w.Kind {
	case memcachedChurn:
		return workload.Poisson(workload.PoissonConfig{
			CDF: workload.Memcached, Load: 0.8,
			Hosts: tp.Hosts, HostRate: hostRate, Until: until,
		}, r)
	case closIncast:
		eligible := workload.CrossRackSenders(tp, dst)
		degree := w.incastDegree(tp)
		specs := make([]workload.FlowSpec, 0, degree)
		for i := 0; i < degree; i++ {
			specs = append(specs, workload.FlowSpec{
				Src: eligible[i*len(eligible)/degree], Dst: dst,
				Size: 30*packet.MTU + units.ByteSize(r.Int63n(int64(10*packet.MTU)+1)),
				Cat:  packet.CatIncast,
			})
		}
		return specs
	}
	senders := workload.CrossRackSenders(tp, dst)
	poisson := workload.Poisson(workload.PoissonConfig{
		CDF: workload.WebServer, Load: 0.8,
		Hosts: tp.Hosts, HostRate: hostRate,
		ExcludeDst: map[packet.NodeID]bool{dst: true},
		Until:      until,
		Categorize: workload.RackVictimCategorizer(tp, dst),
	}, r.Fork())
	incast := workload.Incast(workload.IncastConfig{
		Dst: dst, Senders: senders, Degree: w.incastDegree(tp),
		MinSize: 30 * packet.MTU, MaxSize: 40 * packet.MTU,
		Load: 0.5, DstRate: hostRate, Until: until,
	}, r.Fork())
	return workload.Merge(poisson, incast)
}

// runConfig assembles the run, flows excluded: the caller hands them
// over through RunConfig.Source so that set-up and run can be told
// apart (see timedSource).
func (w workloadDef) runConfig(tp *topo.Topology, seed uint64, sz size) exp.RunConfig {
	o := w.options(sz)
	s := exp.DCQCN(o)
	if w.Floodgate {
		s = exp.WithFloodgate(o, s, baseBDP(tp))
	}
	rc := exp.RunConfig{
		Topo: tp, Scheme: s, Duration: w.window(sz), Seed: seed, Opt: o,
		SourceLabel: w.Name,
	}
	if w.Kind != memcachedChurn {
		// Stress buffer: one incast event's volume (the Fig 2 / Table 2
		// PFC-storm regime).
		rc.BufferSize = units.ByteSize(w.incastDegree(tp)) * 35 * packet.MTU
	}
	return rc
}

// incastDegree is the fan-in of one incast event: every cross-rack host
// on the leaf–spine fabric, a fixed 256 on the big Clos.
func (w workloadDef) incastDegree(tp *topo.Topology) int {
	n := len(workload.CrossRackSenders(tp, tp.Hosts[len(tp.Hosts)-1]))
	if w.Kind == closIncast && n > closDegree {
		return closDegree
	}
	return n
}

// baseBDP is the fabric's base bandwidth-delay product Floodgate's
// thresholds are denominated in (≈64 KB on the 2-tier fabric).
func baseBDP(tp *topo.Topology) units.ByteSize {
	p := tp.Node(tp.Hosts[0]).Ports[0]
	rtt := 2 * 4 * (p.Prop + units.TxTime(packet.MTU, p.Rate))
	return units.BDP(p.Rate, rtt)
}

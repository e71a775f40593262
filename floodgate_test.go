package floodgate_test

import (
	"strings"
	"testing"

	"floodgate"
)

func TestExperimentCatalogue(t *testing.T) {
	exps := floodgate.Experiments()
	if len(exps) < 20 {
		t.Fatalf("expected every paper figure/table registered, got %d", len(exps))
	}
	want := []string{"fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "table2",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig20", "fig21", "fig22", "fig23", "fig24"}
	have := map[string]bool{}
	for _, e := range exps {
		have[e.ID] = true
		if e.Title == "" {
			t.Fatalf("experiment %s missing title", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := floodgate.RunExperiment("nope", floodgate.Options{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunExperimentFig7(t *testing.T) {
	tables, err := floodgate.RunExperiment("fig7", floodgate.Options{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].String(), "Memcached") {
		t.Fatalf("fig7 output unexpected: %v", tables)
	}
}

func TestPublicScenarioAPI(t *testing.T) {
	o := floodgate.Options{Scale: 0.2, Seed: 9}
	c := floodgate.DefaultLeafSpine()
	c.ToRs = 3
	c.HostsPerToR = 6
	c.Spines = 2
	c.HostRate = 20 * floodgate.Gbps
	c.SpineRate = 80 * floodgate.Gbps
	c.Prop = 3 * 1000 * floodgate.Nanosecond
	tp := c.Build()

	dst := tp.Hosts[len(tp.Hosts)-1]
	var specs []floodgate.FlowSpec
	for _, src := range floodgate.CrossRackSenders(tp, dst) {
		specs = append(specs, floodgate.FlowSpec{
			Src: src, Dst: dst, Size: 52 * floodgate.KB, Cat: floodgate.CatIncast,
		})
	}
	res := floodgate.Run(floodgate.RunConfig{
		Topo:     tp,
		Scheme:   floodgate.WithFloodgate(o, floodgate.DCQCN(o), 64*floodgate.KB),
		Specs:    specs,
		Duration: 2 * floodgate.Millisecond,
		Seed:     9,
		Opt:      o,
	})
	if res.Completed != res.Total {
		t.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
	}
	avg, p99 := floodgate.FCTStats(res.Stats.FCTs(floodgate.CatIncast))
	if avg <= 0 || p99 < avg {
		t.Fatalf("FCT stats wrong: avg=%v p99=%v", avg, p99)
	}
	if res.Stats.MaxClassBuffer(floodgate.ClassToRUp) == 0 {
		t.Fatal("incast should park bytes at source ToRs under Floodgate")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(floodgate.Workloads) != 4 {
		t.Fatalf("workloads = %d", len(floodgate.Workloads))
	}
	r := floodgate.NewRand(1)
	for _, c := range floodgate.Workloads {
		if c.Sample(r) <= 0 {
			t.Fatalf("%s produced a non-positive size", c.Name)
		}
	}
	specs := floodgate.Poisson(floodgate.PoissonConfig{
		CDF:  floodgate.Memcached,
		Load: 0.5, Hosts: []floodgate.NodeID{1, 2, 3, 4},
		HostRate: floodgate.Gbps, Until: floodgate.Millisecond,
	}, r)
	if len(specs) == 0 {
		t.Fatal("no Poisson arrivals")
	}
}

func TestPublicFloodgateConfig(t *testing.T) {
	cfg := floodgate.DefaultFloodgateConfig(64 * floodgate.KB)
	if cfg.Mode != floodgate.Practical || cfg.MaxVOQs != 100 {
		t.Fatalf("default config unexpected: %+v", cfg)
	}
	ideal := floodgate.IdealFloodgateConfig(64 * floodgate.KB)
	if ideal.Mode != floodgate.Ideal || !ideal.PerDstPause {
		t.Fatalf("ideal config unexpected: %+v", ideal)
	}
}

func TestRawNetworkAPI(t *testing.T) {
	c := floodgate.DefaultLeafSpine()
	c.Spines, c.ToRs, c.HostsPerToR = 1, 2, 2
	c.HostRate, c.SpineRate = 10*floodgate.Gbps, 20*floodgate.Gbps
	c.Prop = 4500 * floodgate.Nanosecond
	tp := c.Build()
	eng := floodgate.NewEngine()
	n := floodgate.NewNetwork(floodgate.NetworkConfig{
		Topo:   tp,
		Engine: eng,
		FC:     floodgate.NewFloodgate(floodgate.DefaultFloodgateConfig(45 * floodgate.KB)),
	})
	f := n.AddFlow(tp.Hosts[0], tp.Hosts[3], 90*floodgate.KB, 0, floodgate.CatIncast)
	n.Run(floodgate.Time(50 * floodgate.Millisecond))
	if !f.Done() {
		t.Fatal("raw API flow incomplete")
	}
}

package floodgate

import (
	"testing"
)

// benchScale keeps a full `go test -bench=.` pass tractable while the
// slow-motion model (DESIGN.md) preserves every result's shape. Run
// `cmd/floodsim -exp <id> -scale 1` for paper-scale numbers.
const benchScale = 0.15

// benchExperiment reruns one registered paper figure/table per
// iteration and reports throughput-style metrics: rows produced and
// simulated events.
func benchExperiment(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := RunExperiment(id, Options{Scale: benchScale, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
		rows := 0
		for _, t := range tables {
			rows += len(t.Rows)
		}
		b.ReportMetric(float64(rows), "rows")
		if i == 0 && testing.Verbose() {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

// One benchmark per evaluation artifact, in paper order.

func BenchmarkFig2Throughput(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig6Testbed(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7WorkloadCDF(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8FCT(b *testing.B)               { benchExperiment(b, "fig8") }
func BenchmarkFig9VictimCDF(b *testing.B)         { benchExperiment(b, "fig9") }
func BenchmarkFig10Buffer(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkTable2PFCTime(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFig11Reallocation(b *testing.B)     { benchExperiment(b, "fig11") }
func BenchmarkFig12Loss(b *testing.B)             { benchExperiment(b, "fig12") }
func BenchmarkFig13FatTree(b *testing.B)          { benchExperiment(b, "fig13") }
func BenchmarkFig14ToRScaling(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15SuccessiveIncast(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16ECNConvergence(b *testing.B)   { benchExperiment(b, "fig16") }
func BenchmarkFig17Params(b *testing.B)           { benchExperiment(b, "fig17") }
func BenchmarkFig18Overhead(b *testing.B)         { benchExperiment(b, "fig18") }
func BenchmarkFig20BFC(b *testing.B)              { benchExperiment(b, "fig20") }
func BenchmarkFig21IncastFCT(b *testing.B)        { benchExperiment(b, "fig21") }
func BenchmarkFig22PurePoisson(b *testing.B)      { benchExperiment(b, "fig22") }
func BenchmarkFig23NDP(b *testing.B)              { benchExperiment(b, "fig23") }
func BenchmarkFig24PFCTag(b *testing.B)           { benchExperiment(b, "fig24") }

// Ablations and extensions beyond the paper's figures (DESIGN.md §5).

func BenchmarkAblationDesignChoices(b *testing.B) { benchExperiment(b, "ablation") }
func BenchmarkCompatMatrix(b *testing.B)          { benchExperiment(b, "compat") }
func BenchmarkIncastDegreeSweep(b *testing.B)     { benchExperiment(b, "degree") }
func BenchmarkResourceOverhead(b *testing.B)      { benchExperiment(b, "resource") }
func BenchmarkSwiftCompat(b *testing.B)           { benchExperiment(b, "swift") }

// BenchmarkSimulatorCore measures the raw simulator: a single
// saturated incast run, reporting simulated events per second.
func BenchmarkSimulatorCore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := Options{Scale: 0.25, Seed: 1}
		c := DefaultLeafSpine()
		c.HostsPerToR = 8
		c.Spines = 2
		c.HostRate = 25 * Gbps
		c.SpineRate = 100 * Gbps
		c.Prop = 2400 * Nanosecond
		tp := c.Build()
		dst := tp.Hosts[len(tp.Hosts)-1]
		var specs []FlowSpec
		for _, src := range CrossRackSenders(tp, dst) {
			specs = append(specs, FlowSpec{Src: src, Dst: dst, Size: 200 * KB, Cat: CatIncast})
		}
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), 64*KB),
			Specs: specs, Duration: 2 * Millisecond, Drain: 100 * Millisecond,
			Seed: 1, Opt: o,
		})
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
		}
		b.ReportMetric(float64(res.Net.Eng.Processed)/b.Elapsed().Seconds(), "events/s")
	}
}

package exp

import (
	"fmt"
	"slices"

	"floodgate/internal/core"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// This file holds studies beyond the paper's figures: ablations of
// Floodgate's individual design choices (each §4 mechanism switched
// off in isolation) and the §8 compatibility matrix across congestion
// controls. They ship as first-class experiments so the claims in
// DESIGN.md are regenerable.

// AblationFloodgate strips one mechanism at a time from the practical
// design and reruns the WebServer incast-mix:
//
//   - no-delayCredit: credits always returned on the timer
//   - no-aggregation: per-packet credits (ideal timing, practical window)
//   - tiny-VOQ-pool:  1 VOQ, forcing CRC sharing
//   - no-isolation:   parked packets go to the egress queue anyway
//     (approximated by an effectively infinite window)
func AblationFloodgate(o Options) []Table {
	t := Table{
		Title:  "Ablation: Floodgate design choices (WebServer incastmix)",
		Header: []string{"variant", "maxSwitch", "ToR-Up", "Core", "ToR-Down", "poisson p99", "VOQs"},
	}
	type variant struct {
		name string
		mut  func(*core.Config)
	}
	variants := []variant{
		{"full design", func(*core.Config) {}},
		{"no delayCredit", func(c *core.Config) { c.DelayCreditThresh = 1 << 40 }},
		{"per-packet credits", func(c *core.Config) { c.Mode = core.Ideal; c.M = 0 }},
		{"1-VOQ pool", func(c *core.Config) { c.MaxVOQs = 1 }},
		{"no window (off)", nil},
	}
	t.Rows = runJobs(o, len(variants), func(idx int) []string {
		v := variants[idx]
		tp := o.leafSpine()
		var s Scheme
		if v.mut == nil {
			s = DCQCN(o)
			s.Name = "DCQCN (no Floodgate)"
		} else {
			cfg := core.DefaultConfig(baseBDPOf(tp))
			if v.name == "per-packet credits" {
				// Ideal credit timing but the practical window value: set
				// M so m·BDP_nextHop equals BDP+C·T on the uplink.
				up := findUplink(tp)
				win := up.BDP() + units.BytesOver(up.Rate, cfg.CreditTimer)
				cfg.Mode = core.Ideal
				cfg.M = float64(win) / float64(up.BDP())
				cfg.PerDstPause = false
			}
			v.mut(&cfg)
			s = WithFloodgateCfg(DCQCN(o), cfg, "+FG["+v.name+"]")
		}
		c := cellOf(o, mixRun(o, tp, workload.WebServer, s))
		return slices.Concat([]string{v.name, fmtBytes(c.maxBuf)}, c.bufs(hops...),
			[]string{fmtDur(c.poisson[1]), fmt.Sprintf("%d", c.voqs)})
	})
	t.Comment = "each mechanism earns its keep: delayCredit caps cores, aggregation saves bandwidth at equal buffers, the VOQ pool isolates concurrent incasts"
	return []Table{t}
}

func findUplink(tp *topo.Topology) *topo.Port {
	tor := tp.Node(tp.Hosts[0]).Ports[0].Peer
	node := tp.Node(tor)
	for i := range node.Ports {
		if node.Ports[i].Class == topo.ClassToRUp {
			return &node.Ports[i]
		}
	}
	panic("no uplink")
}

// CompatMatrix runs the §8 compatibility claim: Floodgate layered
// under four congestion controls, reporting that each pair keeps its
// no-Floodgate FCT on pure Poisson traffic while cutting the incast
// mix's victim tail.
func CompatMatrix(o Options) []Table {
	t := Table{
		Title:  "Compatibility: Floodgate under four congestion controls (WebServer)",
		Header: []string{"cc", "mix p99 (plain)", "mix p99 (+FG)", "pure p99 (plain)", "pure p99 (+FG)"},
	}
	bases := []func(Options) Scheme{DCQCN, DCTCP, TIMELY, HPCC}
	// Four runs per congestion control ({plain, +FG} under the mix, then
	// pure Poisson); all 16 overlap in the pool and each row reduces its
	// own four p99s at assembly.
	p99s := runJobs(o, len(bases)*4, func(idx int) units.Duration {
		tp := o.leafSpine()
		s := schemePair(o, bases[idx/4], tp)[idx%2]
		if idx%4 < 2 {
			return cellOf(o, mixRun(o, tp, workload.WebServer, s)).poisson[1]
		}
		return cellOf(o, poissonRun(o, tp, workload.WebServer, s)).all[1]
	})
	for bi, base := range bases {
		t.AddRow(base(o).Name, fmtDur(p99s[bi*4]), fmtDur(p99s[bi*4+1]),
			fmtDur(p99s[bi*4+2]), fmtDur(p99s[bi*4+3]))
	}
	t.Comment = "Floodgate's isolation survives the CC swap (§8); pure-Poisson columns must match within noise"
	return []Table{t}
}

// IncastDegreeSweep explores how the win scales with fan-in — an
// extension the paper's intro motivates but never plots.
func IncastDegreeSweep(o Options) []Table {
	t := Table{
		Title:  "Extension: buffer relief vs incast degree (pure incast bursts)",
		Header: []string{"degree", "DCQCN ToR-Down", "+FG ToR-Down", "relief"},
	}
	fracs := []int{4, 2, 1} // 1/4, 1/2, all cross-rack hosts
	bufs := runJobs(o, len(fracs)*2, func(idx int) units.ByteSize {
		tp := o.leafSpine()
		senders := incastSenders(tp)
		senders = senders[:max(len(senders)/fracs[idx/2], 2)]
		return cellOf(o, RunConfig{
			Topo: tp, Scheme: schemePair(o, DCQCN, tp)[idx%2],
			Specs:    burstSpecs(tp, o.Seed, senders),
			Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
			Drain: 300 * units.Millisecond,
		}).buf[topo.ClassToRDown]
	})
	for fi, frac := range fracs {
		plain, fg := bufs[fi*2], bufs[fi*2+1]
		t.AddRow(fmt.Sprintf("1/%d of hosts", frac), fmtBytes(plain), fmtBytes(fg),
			fmtRatio(float64(plain), float64(fg)))
	}
	t.Comment = "relief grows with fan-in: windows bound the last hop while DCQCN's occupancy tracks the burst size"
	return []Table{t}
}

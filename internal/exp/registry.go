package exp

import "fmt"

// Experiment describes one reproducible result.
type Experiment struct {
	ID    string
	Title string
	run   func(Options) []Table
}

// Run produces the experiment's tables. It panics with o.Validate's
// error, normalises o once and gives the experiment a grid unless o
// shares a batch's; the runner and everything it calls take the Options
// as given.
func (e Experiment) Run(o Options) []Table {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	return e.run(o.norm().inBatch())
}

// registry maps experiment ids to runners, in paper order.
var registry = []Experiment{
	{"fig2", "realtime throughput under incastmix (motivation)", Fig2},
	{"fig6", "testbed FCT and per-hop buffer (§5.2)", Fig6},
	{"fig7", "workload flow-size distributions", Fig7},
	{"fig8", "avg/p99 FCT of Poisson flows (DCQCN/TIMELY/HPCC)", Fig8},
	{"fig9", "victim-class FCT CDFs (WebServer)", Fig9},
	{"fig10", "maximum switch buffer occupancy", Fig10},
	{"table2", "PFC triggered time per layer", Table2},
	{"fig11", "per-hop buffer reallocation and queuing time", Fig11},
	{"fig12", "throughput under injected loss", Fig12},
	{"fig13", "8-ary fat tree FCT and per-hop buffer", Fig13},
	{"fig14", "buffer vs number of ToRs (pure incast)", Fig14},
	{"fig15", "successive incast (per-dst PAUSE)", Fig15},
	{"fig16", "CC convergence under two ECN settings", Fig16},
	{"fig17", "credit timer and delayCredit sweeps", Fig17},
	{"fig18", "wire bandwidth stacking (data/ctrl/credit)", Fig18},
	{"fig20", "comparison with BFC", Fig20},
	{"fig21", "incast flows' FCT (appendix A.1)", Fig21},
	{"fig22", "pure Poisson FCT (appendix A.2)", Fig22},
	{"fig23", "comparison with NDP (appendix B)", Fig23},
	{"fig24", "comparison with PFC w/ tag (appendix B)", Fig24},
	// Beyond the paper: ablations and extensions (see DESIGN.md).
	{"ablation", "Floodgate design-choice ablation", AblationFloodgate},
	{"compat", "CC compatibility matrix (§8, incl. DCTCP)", CompatMatrix},
	{"degree", "buffer relief vs incast degree (extension)", IncastDegreeSweep},
	{"resource", "resource overhead accounting (§7.4)", ResourceOverhead},
	{"swift", "Swift ± Floodgate (extension)", SwiftCompat},
	{"faultmatrix", "recovery under link/switch faults (extension)", FaultMatrix},
	{"sloincast", "closed-loop SLO: deadlines, retries, hedging (extension)", SLOIncast},
	{"scaleincast", "canonical incast on a 100k-host Clos (structural routing)", ScaleIncast},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (try List())", id)
}

// List returns every registered experiment in paper order.
func List() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

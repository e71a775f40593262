package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// metricDef names one reported metric. The same list, in the same
// order, is what BENCHMARK.json declares; bench_test.go checks that the
// two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share by which an end-to-end metric may worsen before
	// a change counts as a regression; zero on per-layer metrics.
	Bound float64
}

// endToEnd is what a user of the simulator sees, per workload. Bounds
// on the simulated statistics cover their spread across seeds, which is
// what the driver's acceptance runs sample; on one seed they repeat
// exactly and -selfcheck holds them to that (see README).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"peak_rss_bytes", "bytes", "lower", 0.15},
	{"flows_completed_share", "ratio", "higher", 0.01},
	{"sim_fct_p50_us", "us", "lower", 0.15},
	{"sim_fct_tail_us", "us", "lower", 0.25},
	{"sim_goodput_gbps", "Gbit/s", "higher", 0.15},
}

// perLayer lists the single-layer metrics: counts and simulated
// statistics from the untraced iterations, host-time splits, and the
// timed rungs of the traced iteration.
var perLayer = []metricDef{
	{"exp.events", "count", "lower", 0},
	{"exp.ns_per_event", "ns", "lower", 0},
	{"exp.flows", "count", "higher", 0},
	{"exp.flows_per_s", "1/s", "higher", 0},
	{"exp.simsec_per_wallsec", "ratio", "higher", 0},
	{"exp.allocs", "count", "lower", 0},
	{"exp.alloc_bytes", "bytes", "lower", 0},
	{"exp.allocs_per_event", "ratio", "lower", 0},
	{"exp.shard_speedup", "ratio", "higher", 0},
	{"exp.empty_run_s", "s", "lower", 0},
	{"exp.empty_alloc_bytes", "bytes", "lower", 0},
	{"topo.build_s", "s", "lower", 0},
	{"topo.nodes", "count", "lower", 0},
	{"topo.ports", "count", "lower", 0},
	{"topo.route_bytes", "bytes", "lower", 0},
	{"topo.struct_bytes", "bytes", "lower", 0},
	{"topo.nextports_ns", "ns", "lower", 0},
	{"topo.ecmp_ns", "ns", "lower", 0},
	{"workload.generate_s", "s", "lower", 0},
	{"workload.flows", "count", "higher", 0},
	{"workload.bytes", "bytes", "higher", 0},
	{"workload.gen_ns_per_flow", "ns", "lower", 0},
	{"device.construct_s", "s", "lower", 0},
	{"device.register_s", "s", "lower", 0},
	{"device.register_ns_per_flow", "ns", "lower", 0},
	{"device.heap_bytes", "bytes", "lower", 0},
	{"device.heap_bytes_per_host", "bytes", "lower", 0},
	{"device.data_wire_bytes", "bytes", "lower", 0},
	{"device.ctrl_wire_bytes", "bytes", "lower", 0},
	{"device.drops", "count", "lower", 0},
	{"device.retransmits", "count", "lower", 0},
	{"device.pfc_events", "count", "lower", 0},
	{"device.tor_down_max_buffer_bytes", "bytes", "lower", 0},
	{"device.tor_down_queue_delay_ns", "ns", "lower", 0},
	{"device.bare_ns_per_event", "ns", "lower", 0},
	{"sim_max_buffer_bytes", "bytes", "lower", 0},
	{"sim_pfc_pause_us", "us", "lower", 0},
	{"core.max_windows", "count", "lower", 0},
	{"core.max_voqs_in_use", "count", "lower", 0},
	{"core.credit_wire_bytes", "bytes", "lower", 0},
	{"core.credit_overhead_share", "ratio", "lower", 0},
	{"core.window_deficit_end_bytes", "bytes", "lower", 0},
	{"core.voqs_in_use_end", "count", "lower", 0},
	{"core.resyncs", "count", "lower", 0},
	{"core.forward_ns", "ns", "lower", 0},
	{"core.credit_ns", "ns", "lower", 0},
	{"core.park_drain_ns", "ns", "lower", 0},
	{"cc.new_ns", "ns", "lower", 0},
	{"cc.dcqcn_ack_ns", "ns", "lower", 0},
	{"cc.dcqcn_cnp_ns", "ns", "lower", 0},
	{"cc.dcqcn_send_ns", "ns", "lower", 0},
	{"sim.backlog_hw", "count", "lower", 0},
	{"sim.slab_size", "count", "lower", 0},
	{"sim.replay_ns_per_event", "ns", "lower", 0},
	{"sim.replay_heap_ns_per_event", "ns", "lower", 0},
	{"sim.replay_share", "ratio", "lower", 0},
	{"stats.hook_ns", "ns", "lower", 0},
	{"stats.flowdone_ns", "ns", "lower", 0},
	{"stats.merge_s", "s", "lower", 0},
	{"stats.fct_samples", "count", "higher", 0},
	{"packet.ctrl_roundtrip_ns", "ns", "lower", 0},
	{"bench.iters", "count", "higher", 0},
	{"bench.iter_spread", "ratio", "lower", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
	{"bench.gomaxprocs", "count", "higher", 0},
	{"bench.nproc", "count", "higher", 0},
}

// quant summarises one host-side reading across iterations. P25 is the
// reported value: on a shared box interference only ever adds time, so
// the low quantiles repeat where the mean and the median do not.
type quant struct {
	P25    float64 `json:"p25"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// quantile interpolates linearly between the order statistics of a
// sorted, non-empty sample.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func summarize(vals []float64) quant {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quant{P25: quantile(s, 0.25), Min: s[0], Median: quantile(s, 0.5), P75: quantile(s, 0.75), N: len(s)}
}

// summary is one workload's ledger entry.
type summary struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Host        map[string]quant   `json:"host"`
	Exact       map[string]float64 `json:"exact"`
	Rungs       map[string]float64 `json:"rungs,omitempty"`
	Derived     map[string]float64 `json:"derived"`
	Fingerprint string             `json:"sim_fingerprint"`
	Failures    []string           `json:"failures,omitempty"`
	// IterWallS lists every untraced iteration's wall time, process
	// start-up included, in run order.
	IterWallS []float64 `json:"iter_wall_s"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
}

// summarizeWorkload folds a workload's untraced iterations and its
// optional traced one into a ledger entry, checking that everything
// simulated repeated exactly. twinRunS is the p25 run_s of the
// workload's single-engine twin, or zero when the twin was not run.
func summarizeWorkload(w workloadDef, iters []*iterResult, walls []float64, traced *iterResult, twinRunS float64) *summary {
	first := iters[0]
	s := &summary{Workload: w.Name, Seed: first.Seed, Host: map[string]quant{}, Exact: first.Exact,
		Derived: map[string]float64{}, Fingerprint: first.Fingerprint, IterWallS: walls}
	all := iters
	if traced != nil {
		all = append(append([]*iterResult(nil), iters...), traced)
		s.Rungs = traced.Rungs
	}
	for i, it := range all {
		s.Failures = append(s.Failures, it.Failures...)
		if it.Fingerprint != first.Fingerprint {
			s.Failures = append(s.Failures, fmt.Sprintf("iteration %d: sim_fingerprint %s differs from %s", i, it.Fingerprint, first.Fingerprint))
		}
		for _, k := range sortedKeys(first.Exact) {
			if it.Exact[k] != first.Exact[k] {
				s.Failures = append(s.Failures, fmt.Sprintf("iteration %d: %s = %v differs from %v", i, k, it.Exact[k], first.Exact[k]))
			}
		}
	}
	for _, it := range iters {
		flows := int(it.Exact["exp.flows"])
		s.Attempted += flows
		s.Failed += flows - int(math.Round(it.Exact["flows_completed_share"]*float64(flows)))
	}
	for _, k := range sortedKeys(first.Host) {
		vals := make([]float64, len(iters))
		for i, it := range iters {
			vals[i] = it.Host[k]
		}
		s.Host[k] = summarize(vals)
	}

	d, x := s.Derived, s.Exact
	run := s.Host["run_s"]
	d["exp.ns_per_event"] = run.P25 * 1e9 / x["exp.events"]
	d["exp.flows_per_s"] = x["exp.flows"] / run.P25
	d["exp.simsec_per_wallsec"] = x["sim_end_us"] / 1e6 / run.P25
	d["exp.allocs_per_event"] = s.Host["exp.allocs"].P25 / x["exp.events"]
	d["workload.gen_ns_per_flow"] = s.Host["workload.generate_s"].P25 * 1e9 / x["workload.flows"]
	d["device.register_ns_per_flow"] = s.Host["device.register_s"].P25 * 1e9 / x["workload.flows"]
	d["device.heap_bytes_per_host"] = s.Host["device.heap_bytes"].P25 / x["device.hosts"]
	d["core.credit_overhead_share"] = x["core.credit_wire_bytes"] / x["device.data_wire_bytes"]
	d["bench.iters"] = float64(run.N)
	d["bench.iter_spread"] = (run.P75 - run.P25) / run.P25
	d["bench.gomaxprocs"] = float64(benchProcs())
	d["bench.nproc"] = float64(runtime.NumCPU())
	switch {
	case w.Twin == w.Name:
		d["exp.shard_speedup"] = 1 // a single-engine workload is its own twin
	case twinRunS > 0:
		d["exp.shard_speedup"] = twinRunS / run.P25
	}
	if traced != nil {
		d["bench.trace_overhead_share"] = traced.Host["run_s"]/run.P25 - 1
		d["sim.replay_share"] = s.Rungs["sim.replay_ns_per_event"] * x["exp.events"] / 1e9 / run.P25
	}
	return s
}

// value resolves a metric by name: host readings report their p25.
func (s *summary) value(name string) (float64, bool) {
	if q, ok := s.Host[name]; ok {
		return q.P25, true
	}
	for _, m := range []map[string]float64{s.Exact, s.Derived, s.Rungs} {
		if v, ok := m[name]; ok {
			return v, true
		}
	}
	return 0, false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//lint:allow maprange keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

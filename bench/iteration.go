package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"floodgate/internal/core"
	"floodgate/internal/exp"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// span is one timed call from the benchmark into a layer. Times are
// host-clock microseconds since the Unix epoch, so spans recorded by
// different child processes line up on one timeline.
type span struct {
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	Workload string  `json:"workload"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// recorder times calls and, on the traced iteration, keeps their spans
// in memory until the child reports.
type recorder struct {
	workload string
	trace    bool
	spans    []span
}

func hostMicros(t time.Time) float64 { return float64(t.UnixNano()) / 1e3 }

func (r *recorder) add(name, parent string, t0, t1 time.Time) {
	if r.trace {
		r.spans = append(r.spans, span{Name: name, Parent: parent, Workload: r.workload,
			StartUS: hostMicros(t0), EndUS: hostMicros(t1)})
	}
}

// timed runs fn and returns its host-clock duration in seconds.
func (r *recorder) timed(name, parent string, fn func()) float64 {
	t0 := time.Now() //lint:allow walltime the benchmark measures host time from outside the simulator
	fn()
	t1 := time.Now() //lint:allow walltime the benchmark measures host time from outside the simulator
	r.add(name, parent, t0, t1)
	return t1.Sub(t0).Seconds()
}

// timedSource hands pre-generated specs to exp.Run one at a time and
// notes the host clock at its first and last call. exp.Run builds its
// engines, collectors and the device.Cluster before it first asks for
// a spec, and seals and runs after the source reports the end — so the
// two readings split construction, registration and execution without
// any change to the program.
type timedSource struct {
	specs       []workload.FlowSpec
	i           int
	first, last time.Time
}

func (s *timedSource) Next() (workload.FlowSpec, bool, error) {
	if s.i == 0 {
		s.first = time.Now() //lint:allow walltime marks "construction done" for the set-up/run split
	}
	if s.i == len(s.specs) {
		s.last = time.Now() //lint:allow walltime marks "registration done" for the set-up/run split
		return workload.FlowSpec{}, false, nil
	}
	s.i++
	return s.specs[s.i-1], true, nil
}

// iterResult is what one iteration reports. Host holds host-clock and
// host-memory readings, which differ between iterations; Exact holds
// counts and simulated statistics, which must not.
type iterResult struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Host        map[string]float64 `json:"host"`
	Exact       map[string]float64 `json:"exact"`
	Rungs       map[string]float64 `json:"rungs,omitempty"`
	Fingerprint string             `json:"sim_fingerprint"`
	Failures    []string           `json:"failures,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// settleTime is how far past the end of a run the fabric is advanced
// before Floodgate's end state is read: several credit-timer periods
// plus a fabric crossing.
const settleTime = 50 * units.Microsecond

// runIteration builds, generates and runs one workload once. With
// traced set it records spans and adds the empty-run and per-layer
// rungs after the main run.
func runIteration(w workloadDef, seed uint64, sz size, traced bool) *iterResult {
	rec := &recorder{workload: w.Name, trace: traced}
	out := &iterResult{Workload: w.Name, Seed: seed, Host: map[string]float64{}}
	host := out.Host

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	var tp *topo.Topology
	host["topo.build_s"] = rec.timed("topo.build", "", func() { tp = w.buildTopo(sz) })
	var specs []workload.FlowSpec
	host["workload.generate_s"] = rec.timed("workload.generate", "", func() { specs = w.generate(tp, seed, sz) })

	rc := w.runConfig(tp, seed, sz)
	src := &timedSource{specs: specs}
	rc.Source = src
	t0 := time.Now() //lint:allow walltime start of exp.Run, outside the simulator
	res := exp.Run(rc)
	t1 := time.Now() //lint:allow walltime end of exp.Run, outside the simulator
	rec.add("exp.run", "", t0, t1)
	rec.add("device.construct", "exp.run", t0, src.first)
	rec.add("device.register", "exp.run", src.first, src.last)
	rec.add("exp.execute", "exp.run", src.last, t1)
	runtime.ReadMemStats(&m1)

	host["device.construct_s"] = src.first.Sub(t0).Seconds()
	host["device.register_s"] = src.last.Sub(src.first).Seconds()
	host["run_s"] = t1.Sub(src.last).Seconds()
	host["setup_s"] = host["topo.build_s"] + host["workload.generate_s"] +
		host["device.construct_s"] + host["device.register_s"]
	host["exp.allocs"] = float64(m1.Mallocs - m0.Mallocs)
	host["exp.alloc_bytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	host["device.heap_bytes"] = float64(res.Net.SnapshotMemStats())

	out.Exact, out.Fingerprint, out.Failures = collect(w, tp, specs, res)

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		host["peak_rss_bytes"] = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}

	if traced {
		out.Rungs = runRungs(rec, tp, rc, seed, sz, out.Exact)
		out.Spans = rec.spans
	}
	return out
}

// collect reads everything that must repeat exactly off a finished run
// — counts, simulated statistics, the fingerprint — and applies the
// per-run correctness checks.
func collect(w workloadDef, tp *topo.Topology, specs []workload.FlowSpec, res *exp.RunResult) (exact map[string]float64, fingerprint string, failures []string) {
	exact = map[string]float64{}
	var flowBytes units.ByteSize
	for _, s := range specs {
		flowBytes += s.Size
	}
	st := res.Stats
	fcts := st.AllFCTs()
	ds := make([]units.Duration, len(fcts))
	var fctSum units.Duration
	for i, s := range fcts {
		ds[i] = s.FCT
		fctSum += s.FCT
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	end := res.Net.Eng.Now()
	// Payload received while load was being offered. Dividing all
	// delivered bytes by the end time instead would mostly measure when
	// the last straggler happened to finish.
	var inWindow units.ByteSize
	bins := int(res.Duration / st.BinWidth())
	for c := stats.Category(0); c < stats.NumCategories; c++ {
		series := st.RxSeries(c)
		if len(series) > bins {
			series = series[:bins]
		}
		for _, b := range series {
			inWindow += b
		}
	}
	var pfcPause units.Duration
	for _, l := range []topo.Layer{topo.LayerHost, topo.LayerToR, topo.LayerAgg, topo.LayerCore} {
		pfcPause += st.PFCPauseTime(l)
	}

	exact["flows_completed_share"] = float64(res.Completed) / float64(res.Total)
	exact["sim_fct_p50_us"] = stats.Percentile(ds, 0.5).Microseconds()
	exact["sim_fct_tail_us"] = stats.Percentile(ds, w.TailPct).Microseconds()
	exact["sim_fct_tail_pct"] = 100 * w.TailPct
	exact["sim_max_buffer_bytes"] = float64(st.MaxSwitchBuffer())
	exact["sim_pfc_pause_us"] = pfcPause.Microseconds()
	exact["sim_goodput_gbps"] = units.Rate(inWindow, res.Duration).Gbits()
	exact["sim_end_us"] = end.Microseconds()

	exact["exp.events"] = float64(res.Processed())
	exact["exp.flows"] = float64(res.Total)
	exact["topo.nodes"] = float64(len(tp.Nodes))
	exact["topo.ports"] = float64(tp.TotalPorts())
	exact["topo.route_bytes"] = float64(tp.RouteBytes())
	exact["topo.struct_bytes"] = float64(tp.StructBytes())
	exact["workload.flows"] = float64(len(specs))
	exact["workload.bytes"] = float64(flowBytes)
	exact["device.hosts"] = float64(tp.NumHosts())
	exact["device.data_wire_bytes"] = float64(st.WireTotal(stats.WireData))
	exact["device.ctrl_wire_bytes"] = float64(st.WireTotal(stats.WireCtrl))
	exact["device.drops"] = float64(st.Drops)
	exact["device.retransmits"] = float64(st.Retransmits)
	exact["device.pfc_events"] = float64(st.PFCEventCount())
	exact["device.tor_down_max_buffer_bytes"] = float64(st.MaxClassBuffer(topo.ClassToRDown))
	exact["device.tor_down_queue_delay_ns"] = st.AvgQueueDelay(topo.ClassToRDown).Seconds() * 1e9
	exact["core.credit_wire_bytes"] = float64(st.WireTotal(stats.WireCredit))
	exact["core.max_voqs_in_use"] = float64(st.MaxVOQInUse)
	exact["stats.fct_samples"] = float64(len(fcts))

	var backlogHW, slab int
	for _, n := range res.Cluster.Nets {
		es := n.Eng.StatsSnapshot()
		if es.HeapHighWater > backlogHW {
			backlogHW = es.HeapHighWater
		}
		slab += es.SlabSize
	}
	exact["sim.backlog_hw"] = float64(backlogHW)
	exact["sim.slab_size"] = float64(slab)

	// exp.Run stops at the first barrier after the last flow completes,
	// with the last segments' credits still on their 10 µs timers. Every
	// statistic above is already taken; advance the fabric a little, in
	// lookahead windows as the executor does, so that "drained" can be
	// checked: no window may stay short and no VOQ in use.
	look := topo.Lookahead(tp)
	for t, stop := end, end.Add(settleTime); t < stop; {
		t = t.Add(look)
		for _, n := range res.Cluster.Nets {
			n.Eng.Run(t)
		}
		res.Cluster.ExchangeFrames()
	}
	var maxWindows, voqsEnd, resyncs int
	var deficitEnd units.ByteSize
	for _, n := range res.Cluster.Nets {
		for _, sw := range n.Switches {
			if sw == nil {
				continue
			}
			m, ok := sw.FC().(*core.Module)
			if !ok {
				continue
			}
			if m.MaxWindows() > maxWindows {
				maxWindows = m.MaxWindows()
			}
			voqsEnd += m.VOQsInUse()
			resyncs += m.Resyncs()
			deficitEnd += m.WindowDeficit()
		}
	}
	exact["core.max_windows"] = float64(maxWindows)
	exact["core.voqs_in_use_end"] = float64(voqsEnd)
	exact["core.resyncs"] = float64(resyncs)
	exact["core.window_deficit_end_bytes"] = float64(deficitEnd)

	// The fingerprint covers what the simulated network did and leaves
	// out exp.events: the sharded executor may execute a few more events
	// than the single engine for the same simulated outcome.
	h := fnv.New64a()
	for _, v := range []float64{
		float64(end), float64(res.Total), float64(fctSum),
		exact["flows_completed_share"], exact["sim_fct_p50_us"], exact["sim_fct_tail_us"],
		exact["sim_max_buffer_bytes"], exact["sim_pfc_pause_us"], exact["sim_goodput_gbps"],
		exact["device.data_wire_bytes"], exact["device.ctrl_wire_bytes"], exact["core.credit_wire_bytes"],
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	fingerprint = fmt.Sprintf("%016x", h.Sum64())

	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	if res.Stalled {
		fail("run stalled: %v", res.Diagnosis)
	}
	if res.Completed != res.Total {
		fail("%d of %d flows unfinished", res.Total-res.Completed, res.Total)
	}
	if res.DeliveredBytes() != flowBytes {
		fail("delivered %d bytes, flows total %d", res.DeliveredBytes(), flowBytes)
	}
	if st.Drops != 0 || st.Retransmits != 0 {
		fail("lossless fabric dropped %d and retransmitted %d", st.Drops, st.Retransmits)
	}
	if deficitEnd != 0 || voqsEnd != 0 {
		fail("Floodgate state not drained: window deficit %d bytes, %d VOQs in use", deficitEnd, voqsEnd)
	}
	return exact, fingerprint, failures
}

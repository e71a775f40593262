package exp

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"floodgate/internal/app"
	"floodgate/internal/fault"
	"floodgate/internal/sim"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Macro benchmarks: whole simulations measured end to end, the numbers
// the engine microbenchmarks exist to improve. Each iteration executes
// one complete run (topology build, workload, event loop, drain) and
// reports, beside ns/op, two throughput metrics:
//
//   - events/s       — engine events executed per wall-clock second
//   - simsec/wallsec — simulated seconds advanced per wall-clock second
//
// The second is the paper-reproduction figure of merit: how much
// simulated time a second of hardware buys. These are `go test -bench`
// conveniences for working on one path; performance claims go through
// the bench/ ledger (bench/README.md), which measures the same runs
// with a setup/run split and a parent-vs-change estimator.

// BenchmarkRunIncast is the incast macro workload: every cross-rack
// host sends one 30-40 MTU flow to a single victim at t=0 through
// DCQCN+Floodgate — the paper's core stress, and the backlog regime
// (hundreds of concurrent flows, tens of thousands of queued events)
// where scheduler cost dominates. live-heap-bytes/run is what the
// finished run retains (see liveHeap).
func BenchmarkRunIncast(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events, live float64
	for i := 0; i < b.N; i++ {
		tp := o.leafSpine()
		specs := burstSpecs(tp, o.Seed, incastSenders(tp))
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: 2 * units.Millisecond,
			Seed: o.Seed, Opt: o,
		})
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
		live = liveHeap(b, res)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
	b.ReportMetric(live, "live-heap-bytes/run")
}

// liveHeap is what a run retains: the heap in use after a forced
// collection, read while res (and through it the engines, devices and
// collectors) is still referenced. HeapAlloc without the collection,
// SnapshotMemStats included, counts garbage too, and an alloc-space
// profile shows where bytes were allocated, not what stayed live. The
// timer is stopped around the collection.
func liveHeap(b *testing.B, res *RunResult) float64 {
	b.StopTimer()
	defer b.StartTimer()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(res)
	return float64(m.HeapAlloc)
}

// BenchmarkRunIncastSharded sweeps the shard count over the
// paper-scale (Scale 1: 160 hosts, 10 ToRs, 4 spines) incast — the
// "one giant run" the sharded conservative-window executor exists to
// accelerate. Output is bit-identical at every shard count, so the
// sub-benchmarks measure pure executor cost: with a P per shard the
// events/s curve can rise at most to 1/critical-share (the barrier
// census's ceiling: the busiest shard of every window), and windows/op
// says how many hand-offs that costs; on a single core it instead
// prices the barrier + mailbox overhead. GOMAXPROCS is part of the
// sub-benchmark name so the two regimes are never confused.
func BenchmarkRunIncastSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d/gomaxprocs=%d", shards, runtime.GOMAXPROCS(0)), func(b *testing.B) {
			o := Options{Scale: 1, Seed: 1, Shards: shards}.norm()
			b.ReportAllocs()
			var simSec, events, windows, critical float64
			for i := 0; i < b.N; i++ {
				tp := o.leafSpine()
				specs := burstSpecs(tp, o.Seed, incastSenders(tp))
				res := Run(RunConfig{
					Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
					Specs: specs, Duration: 2 * units.Millisecond,
					Seed: o.Seed, Opt: o,
				})
				if res.Completed != res.Total {
					b.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
				}
				simSec += res.Net.Eng.Now().Seconds()
				events += float64(res.Processed())
				if cs := res.Census; cs != nil { // deterministic counts: any iteration's will do
					windows, critical = float64(cs.Windows), float64(cs.Critical)/float64(res.Processed())
				}
			}
			wall := b.Elapsed().Seconds()
			b.ReportMetric(simSec/wall, "simsec/wallsec")
			b.ReportMetric(events/wall, "events/s")
			if windows > 0 {
				b.ReportMetric(windows, "windows/op")
				b.ReportMetric(critical, "critical-share")
			}
		})
	}
}

// BenchmarkRunFig2Row executes one row of the Fig 2 table (WebServer
// incast-mix in the PFC-storm regime under plain DCQCN) — the mixed
// workload whose Poisson background keeps the event queue deep and
// irregular, complementing BenchmarkRunIncast's synchronized burst.
func BenchmarkRunFig2Row(b *testing.B) {
	prev := windowOverride
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = prev }()
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		res := Run(stormRun(o, o.leafSpine(), workload.WebServer, DCQCN(o)))
		if res.Completed == 0 {
			b.Fatal("no flows completed")
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// BenchmarkRunFaulted is the active-fault routing gate: the incast
// macro workload with one of the victim ToR's uplinks down for the
// whole run, so every routed packet takes Network.Route's faulted
// path (downPorts > 0) and packets through the faulted ToR exercise
// the live-subset re-hash, while the per-node down-count fast path
// keeps the unaffected majority of nodes at plain-ECMP cost. That the
// live-path selection allocates nothing is asserted exactly by
// device's TestRouteFaultedZeroAlloc.
func BenchmarkRunFaulted(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		tp := o.leafSpine()
		specs := burstSpecs(tp, o.Seed, incastSenders(tp))
		res := Run(RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: 2 * units.Millisecond,
			Seed: o.Seed, Opt: o,
			Faults: &fault.Plan{Events: []fault.Event{
				{At: 0, Kind: fault.LinkDown, Link: dstUplink(tp)},
			}},
		})
		// The fabric runs at reduced capacity for the whole window, so
		// (deterministically) only part of the burst completes; the
		// assertion is that traffic kept flowing around the dead link.
		if res.Completed == 0 {
			b.Fatalf("no flows completed around the downed uplink (0/%d)", res.Total)
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// BenchmarkRunScaleIncast executes the scaleincast run end to end on
// the 102,400-host Clos — build, route, 256-way burst, drain — in
// one process per iteration. Beside events/s it records the live
// heap after an explicit snapshot, the memory-budget figure the
// scale work is accountable to across PRs.
func BenchmarkRunScaleIncast(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1, Topo: "clos100k"}.norm()
	b.ReportAllocs()
	var simSec, events, heap float64
	for i := 0; i < b.N; i++ {
		res := runScaleIncastFloodgate(b, o)
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
		heap = float64(res.Net.SnapshotMemStats())
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
	b.ReportMetric(heap, "heap_bytes/run")
}

// BenchmarkClosSetup is the go-test twin of the ledger's
// clos100k_incast_fg, the workload whose cost is set-up: each iteration
// builds topo.Clos100k and runs the 256-way incast, fed through a
// source that notes when it runs dry — everything before that instant
// (the topology, NewCluster, registration and the devices it mints) is
// set-up, and everything after it until Run returns is the run (the
// ledger's run_s). Beside allocs/op it reports those two times, the live
// heap, and how many hosts and switches the run ever built: what set-up
// is meant to be sized by (DESIGN.md §3).
func BenchmarkClosSetup(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1, Topo: "clos100k"}.norm()
	b.ReportAllocs()
	var setup, run time.Duration
	var heap, hosts, switches float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		rc := scaleIncastFloodgateConfig(b, o)
		src := &drySource{SliceSource: workload.SliceSource{Specs: rc.Specs}}
		rc.Specs, rc.Source, rc.SourceLabel = nil, src, "clossetup"
		res := Run(rc)
		run += time.Since(src.dry)
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete at 100k hosts: %d/%d", res.Completed, res.Total)
		}
		setup += src.dry.Sub(t0)
		heap = float64(res.Net.SnapshotMemStats())
		hosts, switches = 0, 0
		for id := range res.Net.Switches {
			if res.Net.Switches[id] != nil {
				switches++
			} else if res.Net.HostsByID[id] != nil {
				hosts++
			}
		}
	}
	b.ReportMetric(setup.Seconds()*1e3/float64(b.N), "setup-ms/run")
	b.ReportMetric(run.Seconds()*1e3/float64(b.N), "run-ms/op")
	b.ReportMetric(heap, "heap_bytes/run")
	b.ReportMetric(hosts, "hosts/run")
	b.ReportMetric(switches, "switches/run")
}

// drySource notes the host clock when Run asks for a spec past the last:
// registration is then over and Run seals and executes.
type drySource struct {
	workload.SliceSource
	dry time.Time
}

func (s *drySource) Next() (workload.FlowSpec, bool, error) {
	spec, ok, err := s.SliceSource.Next()
	if !ok {
		s.dry = time.Now()
	}
	return spec, ok, err
}

// scaleIncastFloodgateConfig builds the 102,400-host Clos and the
// scaleincast experiment's DCQCN+Floodgate cell on it.
func scaleIncastFloodgateConfig(tb testing.TB, o Options) RunConfig {
	tp, _, err := o.scaleTopo("clos100k")
	if err != nil {
		tb.Fatal(err)
	}
	specs := burstSpecs(tp, o.Seed, spreadSenders(tp, scaleIncastDegree))
	return RunConfig{
		Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
		Specs: specs, Duration: fullScaleIncastDuration,
		Seed: o.Seed, Opt: o,
		BufferSize: units.ByteSize(len(specs)) * 35 * mtu,
	}
}

// runScaleIncastFloodgate runs that cell to completion.
func runScaleIncastFloodgate(tb testing.TB, o Options) *RunResult {
	res := Run(scaleIncastFloodgateConfig(tb, o))
	if res.Completed != res.Total {
		tb.Fatalf("flows incomplete at 100k hosts: %d/%d", res.Completed, res.Total)
	}
	return res
}

// BenchmarkRunClosedLoop executes one sloincast cell end to end: the
// open-loop PFC-storm incast with the closed-loop partition-aggregate
// plane overlaid (per-request deadline timers, jittered retries, and
// breaker bookkeeping riding the engine) through DCQCN+Floodgate; its
// allocs/op shows a timer path that starts capturing.
func BenchmarkRunClosedLoop(b *testing.B) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	b.ReportAllocs()
	var simSec, events float64
	for i := 0; i < b.N; i++ {
		c := sloCell{"8", 8, "tight(1.5x)", 1.5,
			WithFloodgate(o, DCQCN(o), baseBDPOf(o.leafSpine())),
			app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}}
		res := Run(sloRun(o, c))
		if res.SLO == nil || res.SLO.Completed == 0 {
			b.Fatal("closed loop resolved nothing")
		}
		simSec += res.Net.Eng.Now().Seconds()
		events += float64(res.Net.Eng.Processed)
	}
	wall := b.Elapsed().Seconds()
	b.ReportMetric(simSec/wall, "simsec/wallsec")
	b.ReportMetric(events/wall, "events/s")
}

// flowChurnConfig is the per-flow-cost workload at smoke scale: the
// ledger's memcached_churn_dcqcn in miniature — Memcached Poisson under
// plain DCQCN, ~138,000 mostly single-packet flows streamed through
// RunConfig.Source, so a wrapping source can bracket registration. Load
// is 0.6, not the ledger's 0.8: at 0.8 the headers and ACKs of sub-MTU
// flows overload this fabric and the backlog of unfinished flows grows
// with the window. At 0.6 a flow lives about one slow-motion RTT
// (~30 µs), so over a fifty-RTT window the flows in flight are a few per
// cent of the flows registered.
func flowChurnConfig(o Options) (RunConfig, []workload.FlowSpec) {
	const window = 1500 * units.Microsecond
	tp := o.leafSpine()
	specs := workload.Poisson(workload.PoissonConfig{
		CDF: workload.Memcached, Load: 0.6,
		Hosts: tp.Hosts, HostRate: tp.Node(tp.Hosts[0]).Ports[0].Rate,
		Until: window,
	}, sim.NewRand(o.Seed))
	return RunConfig{
		Topo: tp, Scheme: DCQCN(o), Duration: window,
		Seed: o.Seed, Opt: o, SourceLabel: "flowchurn",
	}, specs
}

// BenchmarkFlowChurn iterates on the flow lifecycle (log, mint,
// recycle, FlowDone) without a ledger run. Beside ns/op it reports what
// one flow costs in allocated bytes and allocations over the whole run,
// how many Flow objects the run ever built — with recycling, the peak
// of simultaneously live flows rather than the flow count — and what the
// finished run retains (live-heap-bytes/run, see liveHeap).
func BenchmarkFlowChurn(b *testing.B) {
	o := Options{Scale: 0.1, Seed: 1}.norm()
	rc, specs := flowChurnConfig(o)
	var flows, objects, live float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		rc.Source = &workload.SliceSource{Specs: specs}
		res := Run(rc)
		if res.Completed != res.Total {
			b.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
		}
		flows += float64(res.Total)
		objects += float64(res.Cluster.FlowObjects())
		live = liveHeap(b, res)
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/flows, "B/flow")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/flows, "allocs/flow")
	b.ReportMetric(objects/float64(b.N), "flowobjs/run")
	b.ReportMetric(live, "live-heap-bytes/run")
	b.ReportMetric(flows/b.Elapsed().Seconds(), "flows/s")
}

package exp

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"slices"
	"sync"

	"floodgate/internal/app"
	"floodgate/internal/device"
	"floodgate/internal/fault"
	"floodgate/internal/forensics"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// Options scales every experiment between smoke-test and paper scale
// using a "slow-motion" model: link rates shrink by Scale while
// propagation delays and every protocol time constant stretch by
// 1/Scale, so all byte-dimensioned quantities — BDPs, windows, ECN
// thresholds, buffer sizes, flow sizes — stay at their paper values
// and the buffer/FCT *shapes* are preserved. Rack width also shrinks
// with Scale. Scale 1 is the paper's 160-host, 100/400 Gbps fabric.
type Options struct {
	// Scale in (0,1]; 0 picks the default 0.25.
	Scale float64
	// Seed drives workload generation and every stochastic tie-break.
	Seed uint64
	// Parallelism caps how many independent simulations run
	// concurrently: 0 uses every core (GOMAXPROCS), 1 reproduces the
	// serial path exactly, n > 1 uses an n-worker pool. Output is
	// bit-identical at every setting (see parallel.go).
	Parallelism int
	// Obs switches on per-run metrics sampling and timeline export
	// (see obs.go). Enabling it never changes table output.
	Obs ObsConfig
	// Shards splits each run's topology into this many partitions, one
	// engine per partition, advanced in conservative lookahead windows
	// (see shardexec.go and DESIGN.md §10). 0 and 1 both mean a single
	// unsharded engine, and so does an observed run (Obs.Dir set).
	// Output is bit-identical at every shard count.
	Shards int
	// Topo selects a large-fabric preset by name (see TopoPresets) for
	// the experiments that take one — currently only scaleincast reads
	// it, so every paper figure keeps its own fixed fabric and stays
	// byte-identical. Empty picks the experiment's default preset.
	// Unlike Scale, a preset fixes the fabric's dimensions exactly
	// (clos100k is 102,400 hosts at any Scale); Scale still applies
	// the slow-motion rate/time model on top.
	Topo string

	grid *sync.Map // the runs and tables a batch shares (reduced, runByID)
}

// Validate is the one home of the option rules: it names every bad
// field, each with the floodsim flag that sets it. Every entry point
// checks it before it simulates: RunByID, RunExperiments, RunFlowFile
// and RunFaultScenario return its error; Experiment.Run and Run (through
// RunConfig.Validate) panic with it.
func (o Options) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf("exp: "+format, args...)) }
	if !(o.Scale >= 0 && o.Scale <= 1) { // NaN too
		bad("Options.Scale (-scale) must be in (0, 1], or 0 for the default 0.25; got %v", o.Scale)
	}
	if o.Parallelism < 0 {
		bad("Options.Parallelism (-par) must be non-negative, got %d", o.Parallelism)
	}
	if o.Shards < 0 {
		bad("Options.Shards (-shards) must be non-negative, got %d", o.Shards)
	}
	if o.Obs.Period < 0 {
		bad("Options.Obs.Period (-sample) must be non-negative, got %v", o.Obs.Period)
	}
	if o.Obs.Period > 0 && !o.Obs.Enabled() {
		bad("Options.Obs.Period (-sample) needs Options.Obs.Dir (-obs): it is the sampling period of the metrics export")
	}
	if o.Topo != "" && !slices.Contains(presetNames(), o.Topo) {
		bad("unknown Options.Topo (-topo) %q (have %v)", o.Topo, presetNames())
	}
	return errors.Join(errs...)
}

// norm fills the defaults (Scale 0.25, Seed 1). Options are normalised
// once, where they enter the package: the Experiment.Run method,
// RunByID, RunExperiments, Run, RunFlowFile, RunFaultScenario and
// DCQCN. Runners and helpers take them as given.
func (o Options) norm() Options {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// shards is the engine count of one run: Shards, or 1 when it is 0 or
// the run is observed (the sampler and the trace ring read one engine;
// every output is the same at any shard count).
func (o Options) shards() int {
	if o.Shards < 1 || o.Obs.Enabled() {
		return 1
	}
	return o.Shards
}

// hostsPerToR maps scale to rack width (paper: 16). The floor of 6
// keeps a rack's incast share (hosts × 35 MTU) above the per-dst
// Floodgate window so source-side taming stays observable.
func (o Options) hostsPerToR() int {
	h := int(16*o.Scale + 0.5)
	if h < 6 {
		h = 6
	}
	return h
}

// rate scales a paper link rate down.
func (o Options) rate(full units.BitRate) units.BitRate {
	return units.BitRate(float64(full) * o.Scale)
}

// stretch expands a paper time constant (durations, timer periods).
func (o Options) stretch(full units.Duration) units.Duration {
	return units.Duration(float64(full) / o.Scale)
}

// windowOverride, when positive, replaces every experiment's workload
// window. It exists for the test suite's smoke pass, which runs all
// experiments on a budget; production paths never set it.
var windowOverride units.Duration

// clusterBuilt, when set, is handed every run's config and cluster
// before anything is registered on the cluster. Test-only, like windowOverride: the eager-vs-lazy
// oracle (export_test.go) mints every device through it.
var clusterBuilt func(RunConfig, *device.Cluster)

// duration is the workload window. It stays at the paper's wall-clock
// value at every scale: with the slow-motion clock this covers fewer
// (but still hundreds of) RTTs, keeping total event counts roughly
// proportional to Scale².
func (o Options) duration(full units.Duration) units.Duration {
	if windowOverride > 0 {
		return windowOverride
	}
	return full
}

// spines scales the core layer with rack width, exactly preserving the
// paper's non-blocking ratio (16 hosts × 100G = 4 spines × 400G): one
// spine per four hosts per rack. Fewer spines also shrink the
// aggregate of per-spine Floodgate windows, keeping the mechanism's
// engagement condition scale-invariant.
func (o Options) spines() int {
	h := o.hostsPerToR()
	s := (h + 3) / 4
	if s < 1 {
		s = 1
	}
	return s
}

// bufferSize scales the 20MB shared switch buffer with rack width so
// the buffer-pressure ratio (offered incast bytes vs buffer) matches
// the paper's.
func (o Options) bufferSize() units.ByteSize {
	return units.ByteSize(float64(20*units.MB) * float64(o.hostsPerToR()) / 16)
}

// leafSpineConfig is the §6 fabric's config at this scale. Figures that
// vary the fabric (ToR count, oversubscription) tweak it and Build.
func (o Options) leafSpineConfig() topo.LeafSpineConfig {
	c := topo.DefaultLeafSpine()
	c.HostsPerToR = o.hostsPerToR()
	c.Spines = o.spines()
	c.HostRate = o.rate(c.HostRate)
	c.SpineRate = o.rate(c.SpineRate)
	c.Prop = o.stretch(c.Prop)
	return c
}

// leafSpine builds the §6 fabric at this scale.
func (o Options) leafSpine() *topo.Topology { return o.leafSpineConfig().Build() }

// fatTree builds the §6.2 8-ary fabric at this scale.
func (o Options) fatTree() *topo.Topology {
	c := topo.DefaultFatTree()
	c.HostsPerToR = max(int(4*o.Scale+0.5), 2)
	return buildClos(c, o)
}

// RunConfig assembles one simulation run.
type RunConfig struct {
	Topo     *topo.Topology
	Scheme   Scheme
	Specs    []workload.FlowSpec
	Duration units.Duration // workload window; the run drains afterwards
	Drain    units.Duration // extra time allowed for completions (default 4x)
	Seed     uint64
	Opt      Options // supplies the time-stretch for protocol timers

	BufferSize     units.ByteSize
	CreditLossRate float64           // Fig 12: drop credits and switchSYNs between switches
	ECN            *device.ECNConfig // override scheme default
	BinWidth       units.Duration

	// Faults injects deterministic link/switch failures (see
	// internal/fault). Nil runs a healthy fabric. A plan, even an empty
	// one, also arms the progress watchdog: no payload delivered for
	// 4×RTO stops the run with a StallDiagnosis instead of burning the
	// time bound.
	Faults *fault.Plan

	// App overlays the closed-loop application plane (see internal/app):
	// requests, deadlines, retries, hedging and circuit breaking on top
	// of (or instead of) the open-loop Specs. Nil leaves every existing
	// run byte-identical.
	App *app.Config
	// Source streams additional open-loop flow specs (e.g. from an NDJSON
	// file via workload.OpenSpecFile); Run drains it before the first
	// event at 32 bytes per spec. Specs must arrive in non-decreasing Start
	// order, after Specs' latest start. SourceLabel names it in hash labels.
	Source      workload.SpecSource
	SourceLabel string
}

// Validate rejects configurations that would misrun silently.
func (rc RunConfig) Validate() error {
	if rc.Topo == nil {
		return fmt.Errorf("exp: RunConfig.Topo is nil")
	}
	if rc.Duration <= 0 {
		return fmt.Errorf("exp: RunConfig.Duration must be positive, got %v", rc.Duration)
	}
	if rc.Drain < 0 {
		return fmt.Errorf("exp: RunConfig.Drain must be non-negative, got %v", rc.Drain)
	}
	if !(rc.CreditLossRate >= 0 && rc.CreditLossRate <= 1) { // NaN too
		return fmt.Errorf("exp: RunConfig.CreditLossRate %g outside [0, 1]", rc.CreditLossRate)
	}
	if rc.BufferSize < 0 {
		return fmt.Errorf("exp: RunConfig.BufferSize must be non-negative, got %v", rc.BufferSize)
	}
	if rc.BinWidth < 0 {
		return fmt.Errorf("exp: RunConfig.BinWidth must be non-negative, got %v", rc.BinWidth)
	}
	if rc.Faults != nil {
		if err := rc.Faults.Validate(); err != nil {
			return err
		}
		if err := rc.Faults.Resolve(rc.Topo); err != nil {
			return err
		}
	}
	if rc.App != nil {
		if rc.App.Requests <= 0 {
			return fmt.Errorf("exp: RunConfig.App.Requests must be positive, got %d", rc.App.Requests)
		}
		if rc.App.Interval <= 0 {
			return fmt.Errorf("exp: RunConfig.App.Interval must be positive, got %v", rc.App.Interval)
		}
		if rc.App.Deadline <= 0 {
			return fmt.Errorf("exp: RunConfig.App.Deadline must be positive, got %v", rc.App.Deadline)
		}
	}
	return rc.Opt.Validate()
}

// RunResult carries the collector plus run metadata.
type RunResult struct {
	Scheme string
	// Stats is the (shard-merged) collector; at Shards <= 1 it is simply
	// the run's only collector.
	Stats *stats.Collector
	// Net is shard 0's network: at Shards <= 1 it is the whole
	// simulation (the historical API). Sharded aggregates live on
	// Cluster and the RunResult helpers below.
	Net     *device.Network
	Cluster *device.Cluster

	Duration  units.Duration // workload window
	Completed int
	Total     int

	// Stalled reports the progress watchdog tripped; Diagnosis then
	// explains where the undelivered bytes were stuck.
	Stalled   bool
	Diagnosis *StallDiagnosis

	// Forensics is the merged causal-forensics report; nil unless
	// Options.Obs.Forensics was set.
	Forensics *forensics.Report

	// SLO scores the closed-loop application plane; nil unless
	// RunConfig.App was set. AppRecords is the per-request outcome
	// detail behind it, in request order.
	SLO        *app.SLO
	AppRecords []app.Record

	// Census is a sharded run's barrier census; nil at Shards <= 1.
	Census *BarrierCensus
}

// shardCount is one shard's flow-completion counter. Each shard gets
// its own heap allocation — not a slot in a shared slice — so the hot
// OnFlowDone increments of different shards never touch the same cache
// line, and no mutable value is aliased across shard Networks (the
// shardsafety lint rule's contract). The coordinator sums the counters
// only at barrier windows, where the shard engines are quiescent.
type shardCount struct {
	n int
	_ [120]byte // pad past a cache line so adjacent size-class allocations cannot share one
}

// DeliveredBytes is the payload delivered across every shard.
func (r *RunResult) DeliveredBytes() units.ByteSize { return r.Cluster.DeliveredBytes() }

// FaultStats aggregates fault counters across every shard.
func (r *RunResult) FaultStats() device.FaultStats { return r.Cluster.FaultStats() }

// Processed is the executed event count summed over the shard engines.
func (r *RunResult) Processed() uint64 { return r.Cluster.Processed() }

// Run executes one configured simulation: install the workload, run
// the workload window plus drain time (stopping early once every flow
// completes), close open statistics, and report. Invalid configs and
// internal failures panic with a *RunError naming the run's content
// hash; the parallel executor recovers it at the run boundary so one
// faulting run cannot kill a sweep.
func Run(rc RunConfig) *RunResult {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(*RunError); ok {
				panic(v)
			}
			panic(&RunError{ConfigHash: runKey(rc), Value: v, Stack: string(debug.Stack())})
		}
	}()
	if err := rc.Validate(); err != nil {
		panic(err)
	}
	opt := rc.Opt.norm()
	k := opt.shards()
	engines := make([]*sim.Engine, k)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	// Unset RED/ECN thresholds, PFC alpha and the bin width take
	// device.Config's and stats.NewCollector's paper defaults.
	ecn := device.ECNConfig{Enable: rc.Scheme.ECN}
	if rc.ECN != nil {
		ecn = *rc.ECN
	}
	cfg := device.Config{
		Topo:           rc.Topo,
		Stats:          stats.NewCollector(rc.BinWidth),
		Seed:           rc.Seed ^ 0x5eed,
		BufferSize:     rc.BufferSize,
		RTO:            opt.stretch(units.Millisecond),
		CNPInterval:    opt.stretch(50 * units.Microsecond),
		PFC:            !rc.Scheme.NDP,
		NDP:            rc.Scheme.NDP,
		ECN:            ecn,
		INT:            rc.Scheme.INT,
		CC:             rc.Scheme.CC,
		FC:             rc.Scheme.FC,
		QueuesPerPort:  rc.Scheme.QueuesPerPort,
		CreditLossRate: rc.CreditLossRate,
	}
	if cfg.BufferSize == 0 {
		cfg.BufferSize = opt.bufferSize()
	}
	// Shard 0's observers; NewCluster forks them per shard (device/observe.go).
	// The registry, sampler and ring are private to the run; sampler ticks
	// only read state, so -obs cannot change the outcome (DESIGN.md §8), and
	// shards() keeps an observed run to one engine. The recorder forks and
	// is read back only after Finalize, so forensics composes with Shards > 1.
	var obs *obsRun
	if opt.Obs.Enabled() {
		obs = newObsRun(rc, opt, engines[0])
		cfg.Metrics, cfg.Trace = device.NewNetMetrics(obs.reg), obs.tbuf
	}
	if opt.Obs.Forensics {
		cfg.Forensics = forensics.NewRecorder()
	}
	cluster := device.NewCluster(cfg, engines, topo.Partition(rc.Topo, k))
	if clusterBuilt != nil {
		clusterBuilt(rc, cluster)
	}
	cluster.InstallFaults(rc.Faults, rc.Seed)
	if obs != nil {
		obs.start()
	}

	// Log the whole workload up front (FlowID = global spec order) and let
	// the per-shard injection chains mint and start flows at their Start
	// times: event queues stay shallow and flow state follows the flows in
	// flight even for millions of arrivals. Completion is counted per shard
	// (a flow finishes on its receiver's shard), aggregated at barriers.
	total := len(rc.Specs)
	for _, s := range rc.Specs {
		cluster.AddFlow(s.Src, s.Dst, s.Size, s.Start, s.Cat)
	}
	if rc.Source != nil {
		// Drained here, before the run; each spec costs only a log record.
		for {
			s, ok, err := rc.Source.Next()
			if err != nil {
				panic(fmt.Sprintf("exp: flow source %q: %v", rc.SourceLabel, err))
			}
			if !ok {
				break
			}
			cluster.AddFlow(s.Src, s.Dst, s.Size, s.Start, s.Cat)
			total++
		}
	}
	// The app plane registers its attempt flows after the open-loop
	// workload (deferred: injection skips them, Plane launches them).
	var dispatch *app.Dispatch
	if rc.App != nil {
		reqs := app.GenerateRequests(rc.Topo, *rc.App, rc.Seed^0xa44)
		dispatch = app.Build(cluster, reqs, *rc.App)
	}
	cluster.SealFlows()
	var planes []*app.Plane
	if dispatch != nil {
		total += dispatch.NumRequests()
		planes = make([]*app.Plane, k)
		for i, n := range cluster.Nets {
			planes[i] = app.NewPlane(n, dispatch)
		}
	}
	done := make([]*shardCount, k)
	for i, n := range cluster.Nets {
		sd := &shardCount{}
		done[i] = sd
		if planes != nil {
			pl := planes[i]
			n.OnFlowDone = func(f *device.Flow, now units.Time) {
				if f.Attempt == 0 {
					sd.n++
				}
				pl.OnFlowDone(f, now)
			}
		} else {
			n.OnFlowDone = func(*device.Flow, units.Time) { sd.n++ }
		}
	}
	doneCount := func() int {
		d := 0
		for _, c := range done {
			d += c.n
		}
		// Each request is owned by exactly one shard's plane, so the sum
		// counts every resolved request once; resolution is monotone, so
		// the barrier read is a valid progress signal.
		for _, pl := range planes {
			d += pl.Resolved()
		}
		return d
	}

	drain := rc.Drain
	if drain == 0 {
		// DCQCN's additive recovery is slow on the stretched clock;
		// leave generous room for laggards (the run stops at the first
		// barrier after every flow completes, so idle drain is cheap).
		drain = 4*rc.Duration + 400*units.Millisecond
	}

	// Progress watchdog: faulted runs can wedge in ways loss-free runs
	// cannot (dead links, restarted peers), so they get one, and only
	// they. Stall detection runs at barriers (see shardexec.go).
	var horizon units.Duration
	if rc.Faults != nil {
		horizon = 4 * cfg.RTO
	}
	w := runWindows(cluster, units.Time(rc.Duration+drain), horizon, doneCount, total)
	cluster.Finalize()
	var frep *forensics.Report
	if opt.Obs.Forensics {
		frep = forensics.BuildReport(cluster.Recorders(), cluster.FlowMetas())
	}
	if obs != nil {
		if err := obs.export(frep); err != nil {
			panic(fmt.Sprintf("exp: observability export failed: %v", err))
		}
	}
	res := &RunResult{
		Scheme:    rc.Scheme.Name,
		Stats:     cluster.MergedStats(),
		Net:       cluster.Nets[0],
		Cluster:   cluster,
		Duration:  rc.Duration,
		Completed: doneCount(),
		Total:     total,
		Stalled:   w.stalled,
		Diagnosis: w.diagnosis,
		Forensics: frep,
		Census:    w.census,
	}
	if w.census != nil && opt.Obs.Experiment != "" {
		// floodsim's census line (RunByID stamps the id), on the log.
		log.Printf("exp: %s %s barrier census (ceiling %.2fx): %+v", opt.Obs.Experiment,
			rc.Scheme.Name, float64(cluster.Processed())/float64(w.census.Critical), *w.census)
	}
	if planes != nil {
		res.AppRecords = app.Collect(planes)
		slo := app.BuildSLO(res.AppRecords, rc.Duration)
		res.SLO = &slo
	}
	return res
}

// The run vocabulary every experiment is built from: the §6.1 incast
// mix (mixRun), the same mix in the PFC-storm regime (stormRun), pure
// Poisson (poissonRun), and the t=0 burst (burstSpecs) from a sender
// list. Each returns a value the caller adjusts (BufferSize, Drain,
// Faults, CreditLossRate, ...) before handing it to Run.

// mixRun is the §6.1 incast-mix run of s on tp over the standard window.
func mixRun(o Options, tp *topo.Topology, cdf *workload.CDF, s Scheme) RunConfig {
	dur := o.duration(fullIncastMixDuration)
	return RunConfig{
		Topo: tp, Scheme: s, Specs: incastMixSpecs(tp, cdf, dur, o.Seed, incastDegree(tp)),
		Duration: dur, Seed: o.Seed, Opt: o,
	}
}

// stormRun is mixRun in the PFC-storm regime: the buffer pinned to one
// incast event's volume (see stressBuffer).
func stormRun(o Options, tp *topo.Topology, cdf *workload.CDF, s Scheme) RunConfig {
	rc := mixRun(o, tp, cdf, s)
	rc.BufferSize = stressBuffer(tp)
	return rc
}

// poissonRun is the pure-Poisson run (Fig 22, compat): cdf at 0.8 load
// among every host, no incast, over the standard window.
func poissonRun(o Options, tp *topo.Topology, cdf *workload.CDF, s Scheme) RunConfig {
	dur := o.duration(fullIncastMixDuration)
	specs := workload.Poisson(workload.PoissonConfig{
		CDF: cdf, Load: 0.8, Hosts: tp.Hosts, HostRate: tp.Node(tp.Hosts[0]).Ports[0].Rate, Until: dur,
	}, sim.NewRand(o.Seed))
	return RunConfig{Topo: tp, Scheme: s, Specs: specs, Duration: dur, Seed: o.Seed, Opt: o}
}

// incastMixSpecs builds the paper's default §6 workload: Poisson
// background at 0.8 load over the given CDF, plus periodic 30–40 MTU
// incast at destination load 0.5, victims categorised by rack.
func incastMixSpecs(tp *topo.Topology, cdf *workload.CDF, dur units.Duration, seed uint64, degree int) []workload.FlowSpec {
	r := sim.NewRand(seed)
	hostRate := tp.Node(tp.Hosts[0]).Ports[0].Rate
	dst := tp.Hosts[len(tp.Hosts)-1]
	poisson := workload.Poisson(workload.PoissonConfig{
		CDF: cdf, Load: 0.8,
		Hosts: tp.Hosts, HostRate: hostRate,
		ExcludeDst: map[topoNodeID]bool{dst: true},
		Until:      dur,
		Categorize: workload.RackVictimCategorizer(tp, dst),
	}, r.Fork())
	incast := workload.Incast(workload.IncastConfig{
		Dst: dst, Senders: incastSenders(tp),
		Degree: degree, MinSize: 30 * mtu, MaxSize: 40 * mtu,
		Load: 0.5, DstRate: hostRate, Until: dur,
	}, r.Fork())
	return workload.Merge(poisson, incast)
}

// incastSenders is the incast destination's (the last host's)
// cross-rack sender set: every host outside its rack.
func incastSenders(tp *topo.Topology) []topoNodeID {
	return workload.CrossRackSenders(tp, tp.Hosts[len(tp.Hosts)-1])
}

// burstSpecs is the pure incast burst: each of srcs sends one 30–40
// MTU flow to the last host at t=0, sizes drawn from seed in srcs
// order.
func burstSpecs(tp *topo.Topology, seed uint64, srcs []topoNodeID) []workload.FlowSpec {
	r := sim.NewRand(seed)
	dst := tp.Hosts[len(tp.Hosts)-1]
	specs := make([]workload.FlowSpec, 0, len(srcs))
	for _, src := range srcs {
		size := 30*mtu + units.ByteSize(r.Int63n(int64(10*mtu)+1))
		specs = append(specs, workload.FlowSpec{Src: src, Dst: dst, Size: size, Cat: catIncast})
	}
	return specs
}

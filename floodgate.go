// Package floodgate is a from-scratch reproduction of "Floodgate:
// Taming Incast in Datacenter Networks" (Liu et al., CoNEXT 2021): a
// switch-based per-hop, per-destination flow control evaluated on a
// packet-level event-driven datacenter simulator, together with the
// congestion-control protocols it is carried on (DCQCN, DCTCP, TIMELY,
// HPCC, Swift) and the flow-control baselines the paper compares
// against (BFC, NDP, PFC-with-tag).
//
// Three levels of API:
//
//   - Experiments: RunExperiment replays any table or figure of the
//     paper's evaluation and returns the same rows/series.
//
//   - Scenarios: Run executes one simulation assembled from a
//     topology, a Scheme (congestion control × flow control) and a
//     workload; schemes and workloads are composable.
//
//   - Devices: NewNetwork exposes the raw simulator (switches, hosts,
//     flows) for custom studies.
//
// The facade re-exports what the CLI, the README and the package's
// tests and Examples use; everything else stays in the internal
// packages it comes from.
//
// Everything is deterministic given (configuration, seed).
package floodgate

import (
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/exp"
	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/trace"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// NodeID identifies a host or switch.
type NodeID = packet.NodeID

// ---- Units ----

// Core quantities (picosecond time, bits per second, bytes).
type (
	Time     = units.Time
	Duration = units.Duration
	BitRate  = units.BitRate
	ByteSize = units.ByteSize
)

// Common constants re-exported for configuration literals.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Gbps        = units.Gbps
	KB          = units.KB
)

// FromNanos converts a nanosecond count (e.g. time.Duration's
// Nanoseconds) to a simulation Duration.
var FromNanos = units.FromNanos

// ---- Experiments (the paper's evaluation) ----

// Options scales experiments between smoke test and paper scale (see
// DESIGN.md §"slow-motion scaling") and sets the run-level parallelism
// (Options.Parallelism: 0 = all cores, 1 = serial; output is
// bit-identical at every setting).
type Options = exp.Options

// Table is one rendered experiment result.
type Table = exp.Table

// Experiment is a registered paper figure/table reproduction.
type Experiment = exp.Experiment

// Experiments lists every reproducible figure and table in paper order.
func Experiments() []Experiment { return exp.List() }

// RunExperiment reproduces one figure/table by id (e.g. "fig10",
// "table2"); see Experiments for the catalogue. Independent
// simulations within the experiment run across a worker pool sized by
// Options.Parallelism. Bad options return Options.Validate's error,
// and a panic inside the experiment returns as a *RunError.
func RunExperiment(id string, o Options) ([]Table, error) {
	return exp.RunByID(id, o)
}

// RunExperiments executes several experiments, overlapping all their
// simulations through one shared worker pool, and emits each
// experiment's tables strictly in the order given. With
// Options.Parallelism = 1 experiments run back to back, serially.
func RunExperiments(ids []string, o Options, emit func(id string, tables []Table, err error)) {
	exp.RunExperiments(ids, o, emit)
}

// ObsConfig (Options.Obs) switches on per-run metrics sampling and
// timeline export: NDJSON/CSV time series of engine, device and
// Floodgate instruments plus a Chrome trace_event JSON that loads in
// Perfetto. Enabling it never changes a run's tables, and output files
// are byte-identical at any Options.Parallelism (see DESIGN.md §8).
type ObsConfig = exp.ObsConfig

// ---- Scenarios ----

// Scheme is a transport/flow-control combination.
type Scheme = exp.Scheme

// DCQCN is the paper's baseline scheme; the other congestion controls
// are reached through experiments.
var DCQCN = exp.DCQCN

// WithFloodgate layers the practical Floodgate design over a scheme.
func WithFloodgate(o Options, s Scheme, baseBDP ByteSize) Scheme {
	return exp.WithFloodgate(o, s, baseBDP)
}

// FloodgateConfig is the switch-module configuration (§4 parameters).
type FloodgateConfig = core.Config

// Floodgate design modes.
const (
	Practical = core.Practical
	Ideal     = core.Ideal
)

// DefaultFloodgateConfig returns the paper's §6 binding.
func DefaultFloodgateConfig(baseBDP ByteSize) FloodgateConfig { return core.DefaultConfig(baseBDP) }

// IdealFloodgateConfig returns the strawman binding.
func IdealFloodgateConfig(baseBDP ByteSize) FloodgateConfig { return core.IdealConfig(baseBDP) }

// RunConfig assembles one simulation run; RunResult carries its
// statistics collector.
type (
	RunConfig = exp.RunConfig
	RunResult = exp.RunResult
)

// Run executes one simulation run to completion (workload window plus
// drain) and returns the collected statistics.
func Run(rc RunConfig) *RunResult { return exp.Run(rc) }

// ---- Faults ----

// FaultPlan schedules deterministic link/switch failures for a run
// (RunConfig.Faults or Network.InstallFaults): timed link-down/up and
// switch-restart events plus optional Gilbert–Elliott burst loss.
// Same plan + same seed = bit-identical runs at any parallelism.
type (
	FaultPlan = fault.Plan
	FaultLink = fault.Link
)

// FaultFlap builds the event sequence for a repeatedly flapping link;
// BurstWithMeanLoss builds a bursty loss chain with a given mean rate.
var (
	FaultFlap         = fault.Flap
	BurstWithMeanLoss = fault.BurstWithMeanLoss
)

// StallDiagnosis explains a tripped progress watchdog
// (RunResult.Diagnosis); RunError is the structured panic the executor
// recovers at the run boundary.
type (
	StallDiagnosis = exp.StallDiagnosis
	RunError       = exp.RunError
)

// FaultScenarioNames lists the named fault scenarios of the
// "faultmatrix" experiment (floodsim -faults).
var FaultScenarioNames = exp.FaultScenarioNames

// RunFaultScenario runs one named fault scenario against DCQCN and
// DCQCN+Floodgate and returns the resulting matrix rows.
func RunFaultScenario(name string, o Options) ([]Table, error) {
	return exp.RunFaultScenario(name, o)
}

// ---- Topologies ----

// Topology is an immutable fabric with routing, built from a
// leaf–spine config (DefaultLeafSpine).
type Topology = topo.Topology

// DefaultLeafSpine returns the paper's §6 leaf–spine.
var DefaultLeafSpine = topo.DefaultLeafSpine

// TopoPresets lists the -topo preset names with one-line descriptions,
// in menu order (floodsim -topo list; only scaleincast reads
// Options.Topo).
var TopoPresets = exp.TopoPresets

// Port classes for per-hop statistics (the paper's reporting buckets).
const (
	ClassToRUp   = topo.ClassToRUp
	ClassToRDown = topo.ClassToRDown
	ClassCore    = topo.ClassCore
)

// ---- Workloads ----

// CDF is a flow-size distribution; FlowSpec one pre-generated arrival.
type (
	CDF           = workload.CDF
	FlowSpec      = workload.FlowSpec
	PoissonConfig = workload.PoissonConfig
)

// The paper's four Fig 7 workloads.
var (
	Memcached = workload.Memcached
	Workloads = workload.Workloads
)

// Workload generators.
var (
	Poisson          = workload.Poisson
	CrossRackSenders = workload.CrossRackSenders
)

// RunFlowFile replays an NDJSON flow file (one integer-valued JSON
// object per line, sorted by start_ps) against DCQCN and
// DCQCN+Floodgate and reports per-scheme FCT and goodput
// (floodsim -flows-from).
func RunFlowFile(path string, o Options) ([]Table, error) { return exp.RunFlowFile(path, o) }

// NewRand returns the deterministic random source used throughout.
func NewRand(seed uint64) *sim.Rand { return sim.NewRand(seed) }

// ---- Raw devices ----

// NetworkConfig configures the raw simulator; Network is the wired
// fabric.
type (
	NetworkConfig = device.Config
	Network       = device.Network
)

// NewNetwork wires a network from the config (Topo and Engine are
// required; see device.Config).
func NewNetwork(cfg NetworkConfig) *Network { return device.New(cfg) }

// NewEngine returns a fresh event engine.
func NewEngine() *sim.Engine { return sim.NewEngine() }

// NewFloodgate returns the per-switch Floodgate module factory for use
// in a NetworkConfig.
func NewFloodgate(cfg FloodgateConfig) device.FCFactory { return core.New(cfg) }

// ---- Statistics ----

// Category tags flows for the victim analysis.
type Category = stats.Category

// CatIncast tags the incast flows themselves.
const CatIncast = stats.CatIncast

// FCTStats reduces samples to (average, p99).
var FCTStats = stats.FCTStats

// ---- Tracing ----

// TraceBuffer is the simulator's flight recorder; TraceFilter selects
// what it retains; TraceOp names a lifecycle point.
type (
	TraceBuffer = trace.Buffer
	TraceFilter = trace.Filter
	TraceOp     = trace.Op
)

// Trace lifecycle points.
const (
	TracePark   = trace.OpPark
	TraceDrop   = trace.OpDrop
	TraceCredit = trace.OpCredit
)

// NewTraceBuffer returns a ring retaining the newest `capacity`
// matching events; attach it via NetworkConfig.Trace.
func NewTraceBuffer(capacity int, f TraceFilter) *TraceBuffer { return trace.NewBuffer(capacity, f) }

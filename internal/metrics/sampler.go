// Sampler: periodic snapshotting of a Registry on the simulation
// clock. Ticks are ordinary engine events, so sampling interleaves
// deterministically with the workload; because tick callbacks only read
// instrument state (probes must be read-only too), enabling a sampler
// changes no simulated behaviour — tables are byte-identical with
// sampling on or off.
//
//lint:hotpath tick runs on the engine event loop
package metrics

import (
	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// DefaultPeriod is used when a Sampler is built with a non-positive
// period.
const DefaultPeriod = 10 * units.Microsecond

// Sampler snapshots every registered instrument on a fixed period into
// in-memory time series (one []int64 per instrument, one entry per
// tick). Probes let callers pull external state (e.g. engine heap
// length) into gauges once per tick instead of per event.
type Sampler struct {
	eng     *sim.Engine
	reg     *Registry
	period  units.Duration
	probes  []func()
	series  [][]int64 // [instrument][tick]
	ticks   int
	started bool
}

// NewSampler builds a sampler for reg driven by eng. A non-positive
// period falls back to DefaultPeriod.
func NewSampler(eng *sim.Engine, reg *Registry, period units.Duration) *Sampler {
	if period <= 0 {
		period = DefaultPeriod
	}
	return &Sampler{eng: eng, reg: reg, period: period}
}

// AddProbe registers a read-only callback run at the start of every
// tick, before instruments are sampled. Probes must not schedule
// events or mutate simulation state.
func (s *Sampler) AddProbe(fn func()) { s.probes = append(s.probes, fn) }

// Start schedules the first tick one period from now. The registry
// must be fully populated: instruments registered after Start are not
// sampled and cause a panic at the next tick.
func (s *Sampler) Start() {
	if s.started {
		panic("metrics: sampler started twice")
	}
	s.started = true
	s.series = make([][]int64, s.reg.Len())
	s.eng.AfterArg(s.period, samplerTickFn, s)
}

// samplerTickFn is the capture-free trampoline scheduled on the engine
// (one pre-built func value, no per-tick closure allocation).
func samplerTickFn(a any) { a.(*Sampler).tick() }

func (s *Sampler) tick() {
	if len(s.series) != s.reg.Len() {
		panic("metrics: instruments registered after sampler start")
	}
	for _, p := range s.probes {
		p()
	}
	for i, in := range s.reg.instruments {
		s.series[i] = append(s.series[i], in.scalar())
	}
	s.ticks++
	s.eng.AfterArg(s.period, samplerTickFn, s)
}

// Ticks reports how many samples have been taken.
func (s *Sampler) Ticks() int { return s.ticks }

// Period returns the sampling period.
func (s *Sampler) Period() units.Duration { return s.period }

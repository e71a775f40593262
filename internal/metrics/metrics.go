// Package metrics is the simulator's always-on instrumentation layer:
// a deterministic registry of counters, gauges and fixed-bucket
// histograms keyed by small integer IDs resolved once at registration,
// so the per-event update path is a bounds-checked slice index and an
// integer add — no map lookups, no string formatting, no allocation.
// A sim-clock-driven Sampler (sampler.go) snapshots every instrument on
// a fixed period into in-memory time series, and exporters (export.go,
// chrometrace.go) render those series as NDJSON, CSV and Chrome
// trace_event JSON. Everything is integer arithmetic driven by the
// simulation clock, so enabling observability never perturbs a run and
// its output is a pure function of (configuration, seed).
//
//lint:hotpath instrument updates run once per packet event
package metrics

import "fmt"

// Kind discriminates instrument behaviour.
type Kind uint8

// Instrument kinds.
const (
	KindCounter   Kind = iota // monotonically increasing count
	KindGauge                 // instantaneous level with high-water mark
	KindHistogram             // fixed-bucket distribution
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// instrument is the shared storage cell behind the typed handles. All
// state is plain int64 so updates are single stores on the hot path.
type instrument struct {
	name    string
	unit    string
	kind    Kind
	val     int64   // counter total / gauge level / histogram count
	max     int64   // gauge high-water mark
	sum     int64   // histogram sum of observed values
	bounds  []int64 // histogram upper bounds (ascending, exclusive top)
	buckets []int64 // len(bounds)+1; last is overflow
}

// Registry owns a fixed set of instruments. All registration happens at
// setup time (before the run); the returned handles are then used on
// the hot path. Registration order is the canonical export order, so
// output is deterministic without ever ranging over a map.
type Registry struct {
	instruments []*instrument
	index       map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) register(name, unit string, kind Kind) *instrument {
	if _, dup := r.index[name]; dup {
		panic("metrics: duplicate instrument " + name)
	}
	in := &instrument{name: name, unit: unit, kind: kind}
	r.index[name] = len(r.instruments)
	r.instruments = append(r.instruments, in)
	return in
}

// Counter registers a monotonically increasing counter.
func (r *Registry) Counter(name, unit string) Counter {
	return Counter{r.register(name, unit, KindCounter)}
}

// Gauge registers an instantaneous level. Set and Add track a
// high-water mark alongside the current value.
func (r *Registry) Gauge(name, unit string) Gauge {
	return Gauge{r.register(name, unit, KindGauge)}
}

// Histogram registers a fixed-bucket distribution. bounds are ascending
// upper bounds (a value v lands in the first bucket with v <= bound);
// values above the last bound land in an implicit overflow bucket.
func (r *Registry) Histogram(name, unit string, bounds []int64) Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not strictly ascending: " + name)
		}
	}
	in := r.register(name, unit, KindHistogram)
	in.bounds = append([]int64(nil), bounds...)
	in.buckets = make([]int64, len(bounds)+1)
	return Histogram{in}
}

// Len reports the number of registered instruments.
func (r *Registry) Len() int { return len(r.instruments) }

// Counter is a nil-safe handle: the zero Counter ignores updates, so
// subsystems can carry metrics by value and run unmetered when no
// registry is attached.
type Counter struct{ c *instrument }

// Inc adds one.
func (c Counter) Inc() {
	if c.c != nil {
		c.c.val++
	}
}

// Add adds n (n must be non-negative; counters are monotone).
func (c Counter) Add(n int64) {
	if c.c != nil {
		c.c.val += n
	}
}

// Value returns the accumulated total.
func (c Counter) Value() int64 {
	if c.c == nil {
		return 0
	}
	return c.c.val
}

// Gauge is a nil-safe instantaneous level with a high-water mark.
type Gauge struct{ g *instrument }

// Set replaces the level.
func (g Gauge) Set(v int64) {
	if g.g == nil {
		return
	}
	g.g.val = v
	if v > g.g.max {
		g.g.max = v
	}
}

// Add offsets the level by d (which may be negative).
func (g Gauge) Add(d int64) {
	if g.g == nil {
		return
	}
	g.g.val += d
	if g.g.val > g.g.max {
		g.g.max = g.g.val
	}
}

// Value returns the current level.
func (g Gauge) Value() int64 {
	if g.g == nil {
		return 0
	}
	return g.g.val
}

// Max returns the high-water mark.
func (g Gauge) Max() int64 {
	if g.g == nil {
		return 0
	}
	return g.g.max
}

// Histogram is a nil-safe fixed-bucket distribution.
type Histogram struct{ h *instrument }

// Observe records one value. The bucket scan is linear: bucket counts
// are small (≤ ~16) and the branch predictor beats binary search there.
func (h Histogram) Observe(v int64) {
	if h.h == nil {
		return
	}
	in := h.h
	in.val++
	in.sum += v
	for i, b := range in.bounds {
		if v <= b {
			in.buckets[i]++
			return
		}
	}
	in.buckets[len(in.buckets)-1]++
}

// Sum returns the sum of observed values.
func (h Histogram) Sum() int64 {
	if h.h == nil {
		return 0
	}
	return h.h.sum
}

// Snapshot is a point-in-time copy of one instrument, in registration
// order, used by the exporters.
type Snapshot struct {
	Name    string
	Unit    string
	Kind    Kind
	Value   int64   // counter total / gauge level / histogram count
	Max     int64   // gauge high-water (0 otherwise)
	Sum     int64   // histogram sum (0 otherwise)
	Bounds  []int64 // histogram bounds (nil otherwise)
	Buckets []int64 // histogram buckets (nil otherwise)
}

// Snapshots copies every instrument in registration order.
func (r *Registry) Snapshots() []Snapshot {
	out := make([]Snapshot, len(r.instruments))
	for i, in := range r.instruments {
		s := Snapshot{
			Name: in.name, Unit: in.unit, Kind: in.kind,
			Value: in.val, Max: in.max, Sum: in.sum,
		}
		if in.kind == KindHistogram {
			s.Bounds = append([]int64(nil), in.bounds...)
			s.Buckets = append([]int64(nil), in.buckets...)
		}
		out[i] = s
	}
	return out
}

// scalar is the per-tick sampled value: counter cumulative total, gauge
// current level, histogram observation count.
func (in *instrument) scalar() int64 { return in.val }

// Package stats collects everything the paper's evaluation reports:
// flow completion times by traffic category, maximum buffer occupancy
// per switch and per port class, PFC pause time per fabric layer,
// per-hop queuing delay, throughput and bandwidth-breakdown time
// series, control/credit overhead, drops and retransmissions. The
// collector is updated synchronously from the single-threaded event
// loop; no locking.
package stats

import (
	"slices"
	"sort"

	"floodgate/internal/packet"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// Category re-exports the flow category carried on packets.
type Category = packet.Category

// Flow categories.
const (
	CatIncast       = packet.CatIncast
	CatVictimIncast = packet.CatVictimIncast
	CatVictimPFC    = packet.CatVictimPFC
	NumCategories   = packet.NumCategories
)

// WireClass buckets on-wire bytes for the Fig 18 stacking diagram.
type WireClass uint8

// Wire classes.
const (
	WireData   WireClass = iota // data segments (incl. retransmissions)
	WireCtrl                    // ACKs, CNPs, NACKs, pulls, pauses
	WireCredit                  // Floodgate credits and switchSYNs
	NumWireClasses
)

var wireNames = [NumWireClasses]string{"data", "ctrl", "credit"}

func (c WireClass) String() string { return wireNames[c] }

// FCTSample records one completed flow: only what completion adds. What
// the flow is (category, size, endpoints, start) has one store, the
// device's registration log, keyed by the same ID, and the category is
// also the store a sample is filed in; the finish time is Start + FCT.
type FCTSample struct {
	Flow uint64
	FCT  units.Duration
}

// Collector accumulates a simulation run's measurements.
type Collector struct {
	binWidth units.Duration

	fcts [NumCategories][]FCTSample // one store per category, sized by Reserve

	// Buffer occupancy maxima.
	maxClassBuf  [topo.NumPortClasses]units.ByteSize
	maxNetSwitch units.ByteSize // max over switches of per-switch max

	// Buffer occupancy time series per port class (Fig 16): sampled as a
	// running max within each bin.
	bufSeries [topo.NumPortClasses][]units.ByteSize

	// PFC pause time per layer and pause event count.
	pfcPause  [4]units.Duration // indexed by topo.Layer
	pfcEvents int

	// Per-hop queuing delay of non-incast data packets.
	queueDelaySum   [topo.NumPortClasses]units.Duration
	queueDelayCount [topo.NumPortClasses]int64

	// Received-byte time series per category (Fig 2) and wire-byte
	// totals per wire class summed over switch egress ports (Fig 18).
	rxSeries  [NumCategories][]units.ByteSize
	wireTotal [NumWireClasses]units.ByteSize

	Drops       int64
	Trims       int64
	Retransmits int64

	// MaxVOQInUse is the peak number of simultaneously occupied VOQs on
	// any one switch (reported by the Floodgate module).
	MaxVOQInUse int
}

// NewCollector returns a collector with the given time-series bin width.
func NewCollector(binWidth units.Duration) *Collector {
	if binWidth <= 0 {
		binWidth = 10 * units.Microsecond
	}
	return &Collector{binWidth: binWidth}
}

// BinWidth returns the time-series bin width.
func (c *Collector) BinWidth() units.Duration { return c.binWidth }

func (c *Collector) bin(t units.Time) int { return int(int64(t) / int64(c.binWidth)) }

func grow(s []units.ByteSize, idx int) []units.ByteSize {
	for len(s) <= idx {
		s = append(s, 0)
	}
	return s
}

// FlowDone records a completed flow in its category's log. The size and
// the destination's line rate are not kept (see FCTSample); the
// parameters stay for the benchmark module's callers.
func (c *Collector) FlowDone(flow uint64, cat Category, _ units.ByteSize, start, finish units.Time, _ units.BitRate) {
	c.fcts[cat] = append(c.fcts[cat], FCTSample{Flow: flow, FCT: finish.Sub(start)})
}

// Reserve makes room for n[cat] more samples of each category; a run
// reserves once, from its registration counts, so no store regrows.
func (c *Collector) Reserve(n [NumCategories]int) {
	for cat, k := range n {
		c.fcts[cat] = slices.Grow(c.fcts[cat], k)
	}
}

// SwitchBuffer reports a switch's new total buffer occupancy. Only the
// network-wide maximum is retained: the per-switch maximum never exceeds
// it, so a single comparison is an equivalent gate.
func (c *Collector) SwitchBuffer(node int32, total units.ByteSize) {
	if total > c.maxNetSwitch {
		c.maxNetSwitch = total
	}
}

// PortBuffer reports a port's new buffered byte count (egress queue
// plus VOQ bytes routed through it).
func (c *Collector) PortBuffer(now units.Time, node int32, port int32, class topo.PortClass, bytes units.ByteSize) {
	if bytes > c.maxClassBuf[class] {
		c.maxClassBuf[class] = bytes
	}
	idx := c.bin(now)
	c.bufSeries[class] = grow(c.bufSeries[class], idx)
	if bytes > c.bufSeries[class][idx] {
		c.bufSeries[class][idx] = bytes
	}
}

// PFCPaused accumulates pause time at a fabric layer.
func (c *Collector) PFCPaused(layer topo.Layer, d units.Duration) {
	c.pfcPause[layer] += d
	c.pfcEvents++
}

// QueueDelay records one data packet's queuing delay at a port class.
func (c *Collector) QueueDelay(class topo.PortClass, d units.Duration) {
	c.queueDelaySum[class] += d
	c.queueDelayCount[class]++
}

// Received adds delivered payload bytes to the per-category series.
func (c *Collector) Received(now units.Time, cat Category, bytes units.ByteSize) {
	idx := c.bin(now)
	c.rxSeries[cat] = grow(c.rxSeries[cat], idx)
	c.rxSeries[cat][idx] += bytes
}

// OnWire adds transmitted bytes (switch egress only) to the wire
// class's total. The time is not kept: nothing reads wire bytes per bin.
func (c *Collector) OnWire(_ units.Time, class WireClass, bytes units.ByteSize) {
	c.wireTotal[class] += bytes
}

// Drop, Trim and Retransmit bump the respective counters.
func (c *Collector) Drop()       { c.Drops++ }
func (c *Collector) Trim()       { c.Trims++ }
func (c *Collector) Retransmit() { c.Retransmits++ }

// VOQInUse reports a switch's current number of occupied VOQs.
func (c *Collector) VOQInUse(n int) {
	if n > c.MaxVOQInUse {
		c.MaxVOQInUse = n
	}
}

// Merge folds another collector into c. Every reduction the collector
// feeds is order-independent — FCT samples are consumed as a multiset
// (sums, sorts, percentiles), occupancy maxima merge by max, and the
// time series merge per bin (max for buffer occupancy, sum for byte
// counts) — so merging per-shard collectors in shard order yields the
// same reductions as a single-collector sequential run. The sharded
// executor relies on this to aggregate results.
func (c *Collector) Merge(o *Collector) {
	for i := Category(0); i < NumCategories; i++ {
		c.fcts[i] = append(c.fcts[i], o.fcts[i]...)
		c.rxSeries[i] = mergeBins(c.rxSeries[i], o.rxSeries[i], false)
	}
	for cl := topo.PortClass(0); cl < topo.NumPortClasses; cl++ {
		if o.maxClassBuf[cl] > c.maxClassBuf[cl] {
			c.maxClassBuf[cl] = o.maxClassBuf[cl]
		}
		c.bufSeries[cl] = mergeBins(c.bufSeries[cl], o.bufSeries[cl], true)
		c.queueDelaySum[cl] += o.queueDelaySum[cl]
		c.queueDelayCount[cl] += o.queueDelayCount[cl]
	}
	if o.maxNetSwitch > c.maxNetSwitch {
		c.maxNetSwitch = o.maxNetSwitch
	}
	for l := range c.pfcPause {
		c.pfcPause[l] += o.pfcPause[l]
	}
	c.pfcEvents += o.pfcEvents
	for w := WireClass(0); w < NumWireClasses; w++ {
		c.wireTotal[w] += o.wireTotal[w]
	}
	c.Drops += o.Drops
	c.Trims += o.Trims
	c.Retransmits += o.Retransmits
	if o.MaxVOQInUse > c.MaxVOQInUse {
		c.MaxVOQInUse = o.MaxVOQInUse
	}
}

// mergeBins combines two binned series element-wise (max or sum),
// extending dst as needed.
func mergeBins(dst, src []units.ByteSize, byMax bool) []units.ByteSize {
	if len(src) > len(dst) {
		dst = grow(dst, len(src)-1)
	}
	for i, v := range src {
		if byMax {
			if v > dst[i] {
				dst[i] = v
			}
		} else {
			dst[i] += v
		}
	}
	return dst
}

// ---- Accessors / reductions ----

// FCTs returns the samples of one category, nil when there are none.
// Like AllFCTs it may return a view of the store: read it, never write
// it (its capacity is clipped, so an append copies).
func (c *Collector) FCTs(cat Category) []FCTSample {
	if s := c.fcts[cat]; len(s) > 0 {
		return s[:len(s):len(s)]
	}
	return nil
}

// AllFCTs returns every sample, in category order: a view when one
// category holds them all, else one exactly sized copy.
func (c *Collector) AllFCTs() []FCTSample {
	n := 0
	for _, s := range c.fcts {
		n += len(s)
	}
	for cat, s := range c.fcts {
		if len(s) == n {
			return c.FCTs(Category(cat)) // nil when n == 0
		}
	}
	all := make([]FCTSample, 0, n)
	for _, s := range c.fcts {
		all = append(all, s...)
	}
	return all
}

// FCTStats reduces samples to (average, p99) durations. Zero samples
// yield zeros.
func FCTStats(samples []FCTSample) (avg, p99 units.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	ds := make([]units.Duration, len(samples))
	var sum units.Duration
	for i, s := range samples {
		ds[i] = s.FCT
		sum += s.FCT
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return sum / units.Duration(len(samples)), Percentile(ds, 0.99)
}

// Percentile returns the p-quantile (0..1) of sorted durations: the
// value at rank round(p·n), clamped to [1, n]. That is not nearest-rank
// (NearestRank's ⌈p·n⌉): at n = 174 and p = 0.99 it picks the 172nd
// value where nearest-rank picks the 173rd. Every FCT table rests on
// this rounding, so it stays.
func Percentile(sorted []units.Duration, p float64) units.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// NearestRank returns the nearest-rank permille quantile of sorted
// durations: the ⌈permille·n/1000⌉-th smallest, at least the first.
// Zero samples yield 0.
func NearestRank(sorted []units.Duration, permille int) units.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := max((permille*len(sorted)+999)/1000, 1)
	return sorted[idx-1]
}

// CDF reduces sorted durations to (value, cumulative fraction) points
// suitable for plotting; at most maxPoints evenly spaced ranks.
func CDF(sorted []units.Duration, maxPoints int) (xs []units.Duration, ys []float64) {
	n := len(sorted)
	if maxPoints <= 0 || maxPoints > n {
		maxPoints = n
	}
	for i := 0; i < maxPoints; i++ {
		rank := (i + 1) * n / maxPoints
		xs = append(xs, sorted[rank-1])
		ys = append(ys, float64(rank)/float64(n))
	}
	return xs, ys
}

// MaxSwitchBuffer returns the network-wide maximum per-switch occupancy.
func (c *Collector) MaxSwitchBuffer() units.ByteSize { return c.maxNetSwitch }

// MaxClassBuffer returns the maximum per-port occupancy seen in a class.
func (c *Collector) MaxClassBuffer(class topo.PortClass) units.ByteSize {
	return c.maxClassBuf[class]
}

// PFCPauseTime returns the accumulated pause duration at a layer.
func (c *Collector) PFCPauseTime(layer topo.Layer) units.Duration { return c.pfcPause[layer] }

// PFCEventCount returns the number of pause periods recorded.
func (c *Collector) PFCEventCount() int { return c.pfcEvents }

// AvgQueueDelay returns the mean per-packet queuing delay at a class.
func (c *Collector) AvgQueueDelay(class topo.PortClass) units.Duration {
	if c.queueDelayCount[class] == 0 {
		return 0
	}
	return c.queueDelaySum[class] / units.Duration(c.queueDelayCount[class])
}

// RxSeries returns the received-byte bins for a category.
func (c *Collector) RxSeries(cat Category) []units.ByteSize { return c.rxSeries[cat] }

// RxThroughput converts a category's bins to bit rates.
func (c *Collector) RxThroughput(cat Category) []units.BitRate {
	return toRates(c.rxSeries[cat], c.binWidth)
}

// BufSeries returns the per-bin max port occupancy of a class.
func (c *Collector) BufSeries(class topo.PortClass) []units.ByteSize {
	return c.bufSeries[class]
}

// WireTotal returns total bytes placed on switch egress wires per class.
func (c *Collector) WireTotal(class WireClass) units.ByteSize { return c.wireTotal[class] }

func toRates(bins []units.ByteSize, w units.Duration) []units.BitRate {
	out := make([]units.BitRate, len(bins))
	for i, b := range bins {
		out[i] = units.Rate(b, w)
	}
	return out
}

// Package workload generates the paper's traffic: Poisson-arrival
// background flows drawn from the four flow-size distributions of
// Fig 7 (Memcached, Web Server, Hadoop, Web Search), plus the periodic
// incast patterns of §6. Workloads are pre-generated into FlowSpec
// lists from a seed, so every compared scheme replays byte-identical
// arrivals.
package workload

import (
	"fmt"
	"sort"

	"floodgate/internal/sim"
	"floodgate/internal/units"
)

// CDFPoint is one knot of a flow-size CDF.
type CDFPoint struct {
	Size units.ByteSize
	P    float64
}

// CDF is a piecewise-linear flow-size distribution.
type CDF struct {
	Name string
	Pts  []CDFPoint
}

// NewCDF validates and returns a distribution.
func NewCDF(name string, pts []CDFPoint) *CDF {
	if len(pts) < 2 {
		panic("workload: CDF needs at least two points")
	}
	for i, p := range pts {
		if !(p.P >= 0 && p.P <= 1) { // NaN too
			panic(fmt.Sprintf("workload: CDF %s point %d probability %v out of range", name, i, p.P))
		}
		if i > 0 && (p.Size <= pts[i-1].Size || p.P < pts[i-1].P) {
			panic(fmt.Sprintf("workload: CDF %s not monotone at point %d", name, i))
		}
	}
	if pts[0].P != 0 || pts[len(pts)-1].P != 1 {
		panic(fmt.Sprintf("workload: CDF %s must span [0,1]", name))
	}
	return &CDF{Name: name, Pts: pts}
}

// Sample draws one flow size.
func (c *CDF) Sample(r *sim.Rand) units.ByteSize {
	u := r.Float64()
	i := sort.Search(len(c.Pts), func(i int) bool { return c.Pts[i].P >= u })
	if i == 0 {
		return c.Pts[0].Size
	}
	lo, hi := c.Pts[i-1], c.Pts[i]
	if hi.P == lo.P {
		return hi.Size
	}
	frac := (u - lo.P) / (hi.P - lo.P)
	sz := lo.Size + units.ByteSize(frac*float64(hi.Size-lo.Size))
	if sz < 1 {
		sz = 1
	}
	return sz
}

// Mean returns the expected flow size in bytes.
func (c *CDF) Mean() float64 {
	var m float64
	for i := 1; i < len(c.Pts); i++ {
		lo, hi := c.Pts[i-1], c.Pts[i]
		m += (hi.P - lo.P) * float64(lo.Size+hi.Size) / 2
	}
	return m
}

// Quantile returns the size at cumulative probability p.
func (c *CDF) Quantile(p float64) units.ByteSize {
	i := sort.Search(len(c.Pts), func(i int) bool { return c.Pts[i].P >= p })
	if i == 0 {
		return c.Pts[0].Size
	}
	if i >= len(c.Pts) {
		return c.Pts[len(c.Pts)-1].Size
	}
	lo, hi := c.Pts[i-1], c.Pts[i]
	if hi.P == lo.P {
		return hi.Size
	}
	frac := (p - lo.P) / (hi.P - lo.P)
	return lo.Size + units.ByteSize(frac*float64(hi.Size-lo.Size))
}

// The four Fig 7 workloads, re-encoded from the published
// distributions (Homa's Memcached trace, Facebook's Web/Hadoop
// measurements, DCTCP's Web Search). Shapes — tiny-flow-dominated
// Memcached versus heavy-tailed others — are what the evaluation
// depends on.
var (
	// Memcached: almost everything under 1 KB.
	Memcached = NewCDF("Memcached", []CDFPoint{
		{50, 0}, {100, 0.25}, {200, 0.55}, {350, 0.80},
		{512, 0.90}, {1 * units.KB, 0.97}, {10 * units.KB, 0.997},
		{64 * units.KB, 1},
	})

	// WebServer: small objects with a moderate tail to ~5 MB.
	WebServer = NewCDF("WebServer", []CDFPoint{
		{100, 0}, {300, 0.30}, {1 * units.KB, 0.55}, {3 * units.KB, 0.70},
		{10 * units.KB, 0.80}, {30 * units.KB, 0.90}, {100 * units.KB, 0.95},
		{1 * units.MB, 0.99}, {5 * units.MB, 1},
	})

	// Hadoop: shuffle traffic, long tail to tens of MB.
	Hadoop = NewCDF("Hadoop", []CDFPoint{
		{100, 0}, {300, 0.10}, {1 * units.KB, 0.40}, {3 * units.KB, 0.60},
		{10 * units.KB, 0.75}, {100 * units.KB, 0.90}, {1 * units.MB, 0.95},
		{10 * units.MB, 0.99}, {30 * units.MB, 1},
	})

	// WebSearch: the DCTCP distribution, large-flow dominated.
	WebSearch = NewCDF("WebSearch", []CDFPoint{
		{6 * units.KB, 0}, {10 * units.KB, 0.15}, {20 * units.KB, 0.20},
		{30 * units.KB, 0.30}, {50 * units.KB, 0.40}, {80 * units.KB, 0.53},
		{200 * units.KB, 0.60}, {1 * units.MB, 0.70}, {2 * units.MB, 0.80},
		{5 * units.MB, 0.90}, {10 * units.MB, 0.97}, {30 * units.MB, 1},
	})
)

// Workloads lists the four Fig 7 distributions in paper order.
var Workloads = []*CDF{Memcached, WebServer, Hadoop, WebSearch}

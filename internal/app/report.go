package app

import (
	"sort"

	"floodgate/internal/stats"
	"floodgate/internal/units"
)

// Record is the terminal outcome of one request, merged across shards
// by request index (each request is owned by exactly one shard, so the
// merge is a disjoint fill — deterministic for any partition).
type Record struct {
	Start, End units.Time
	OK         bool // every worker replied
	Shed       bool // rejected by an open circuit breaker
	Attempts   int  // including the first (0 when shed or never injected)
	Hedges     int
	Timeouts   int
	RespBytes  units.ByteSize // counted response payload (OK requests)
}

// SLO is the service-level scorecard of one closed-loop run.
type SLO struct {
	Requests  int
	Completed int // every worker replied
	Failed    int // exhausted attempts/budget short of a reply
	Shed      int // rejected by an open breaker
	Unfired   int // never injected (run ended first)

	P50, P99, P999 units.Duration // completed-request latency
	TimeoutRate    float64        // requests with >= 1 deadline expiry
	Amplification  float64        // attempts per injected request
	Hedges         int
	Goodput        units.BitRate // counted response payload / duration
	ShedRate       float64
}

// Collect merges the per-shard planes' request outcomes into one
// Record slice in request order.
func Collect(planes []*Plane) []Record {
	if len(planes) == 0 {
		return nil
	}
	recs := make([]Record, planes[0].d.NumRequests())
	for _, p := range planes {
		for _, rs := range p.reqs {
			recs[rs.idx] = Record{
				Start: rs.start, End: rs.end,
				OK: rs.ok, Shed: rs.shed,
				Attempts: rs.attempts, Hedges: rs.hedges,
				Timeouts: rs.timeouts, RespBytes: rs.respRecv,
			}
		}
	}
	return recs
}

// BuildSLO scores the records over the run duration.
func BuildSLO(recs []Record, dur units.Duration) SLO {
	s := SLO{Requests: len(recs)}
	var lats []units.Duration
	var bytes units.ByteSize
	injected, attempts := 0, 0
	timedOut := 0
	for i := range recs {
		r := &recs[i]
		switch {
		case r.Shed:
			s.Shed++
		case r.Attempts == 0:
			s.Unfired++
		case r.OK:
			s.Completed++
			lats = append(lats, r.End.Sub(r.Start))
			bytes += r.RespBytes
		default:
			s.Failed++
		}
		if r.Attempts > 0 {
			injected++
			attempts += r.Attempts
		}
		if r.Timeouts > 0 {
			timedOut++
		}
		s.Hedges += r.Hedges
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		s.P50 = stats.NearestRank(lats, 500)
		s.P99 = stats.NearestRank(lats, 990)
		s.P999 = stats.NearestRank(lats, 999)
	}
	if n := s.Requests - s.Unfired; n > 0 {
		s.TimeoutRate = float64(timedOut) / float64(n)
		s.ShedRate = float64(s.Shed) / float64(n)
	}
	if injected > 0 {
		s.Amplification = float64(attempts) / float64(injected)
	}
	s.Goodput = units.Rate(bytes, dur)
	return s
}

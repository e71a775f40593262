package exp

import (
	"runtime"
	"sort"
	"testing"

	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// registrationMeter wraps a spec source and reads the allocator at its
// first Next and at the Next that reports exhaustion — the same bracket
// the ledger's device.register span uses.
type registrationMeter struct {
	workload.SpecSource
	started      bool
	first, after runtime.MemStats
}

func (m *registrationMeter) Next() (workload.FlowSpec, bool, error) {
	if !m.started {
		m.started = true
		runtime.ReadMemStats(&m.first)
	}
	s, ok, err := m.SpecSource.Next()
	if !ok {
		runtime.ReadMemStats(&m.after)
	}
	return s, ok, err
}

// TestFlowStateFollowsLiveFlows is the flow-side twin of core's
// TestStateFollowsActiveDestinations: on a Memcached Poisson run,
// per-flow state must follow the flows in flight, not the flows
// registered. Registration may cost a log record per flow and no more;
// Flow objects (with their controllers) may number a few per cent of the
// flows, within twice the peak of simultaneously unfinished flows — an
// object outlives its flow's completion only by the final ACK's trip
// back.
func TestFlowStateFollowsLiveFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	rc, specs := flowChurnConfig(Options{Scale: 0.1, Seed: 1}.norm())
	meter := &registrationMeter{SpecSource: &workload.SliceSource{Specs: specs}}
	rc.Source = meter
	res := Run(rc)
	if res.Total != len(specs) || res.Completed != res.Total || res.Total < 100000 {
		t.Fatalf("completed %d of %d flows (%d specs); want all of at least 100000", res.Completed, res.Total, len(specs))
	}

	perFlow := float64(meter.after.TotalAlloc-meter.first.TotalAlloc) / float64(res.Total)
	if perFlow > 48 {
		t.Errorf("registration allocated %.1f B/flow, want <= 48 (a 32 B log record): something per-flow is built before the flow starts", perFlow)
	}

	// Peak of flows started and not yet finished, from the FCT samples.
	type edge struct {
		at    units.Time
		delta int
	}
	var edges []edge
	for _, s := range res.Stats.AllFCTs() {
		edges = append(edges, edge{s.Start, +1}, edge{s.Finish, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta > edges[j].delta
	})
	peak, open := 0, 0
	for _, e := range edges {
		if open += e.delta; open > peak {
			peak = open
		}
	}

	objects := res.Cluster.FlowObjects()
	t.Logf("%d flows: %.1f B/flow at registration, %d Flow objects built, peak %d unfinished", res.Total, perFlow, objects, peak)
	if objects == 0 || objects*20 > res.Total {
		t.Errorf("%d Flow objects built for %d flows, want at most 5%%: flow state is following the registered flows", objects, res.Total)
	}
	if objects > 2*peak {
		t.Errorf("%d Flow objects built, more than twice the peak of %d unfinished flows: finished flows are not recycled promptly", objects, peak)
	}
}

package exp

import (
	"fmt"

	"floodgate/internal/app"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// This file is the closed-loop SLO experiment (beyond the paper): the
// partition-aggregate application plane (internal/app) run as the
// *victim* of a PFC storm. An open-loop periodic incast (the §6.1
// incast component, full cross-rack degree at destination load 0.8)
// hammers the last host in the PFC-storm buffer regime; the
// application's clients are that host's rack mates, so their
// cross-rack request/response traffic is exactly the collateral an
// untamed incast head-of-line blocks (Table 2: DCQCN pauses core
// ports for hundreds of µs per window, Floodgate pauses nothing).
// With tight deadlines those pauses turn into timeouts, and the
// application *retries into the storm* — attempts/request climb above
// 1 and misses compound — while under Floodgate the same fan-in
// stays inside the deadline. FCT tables can't show this; only
// request-level scoring can.

// sloRequests is the closed-loop request count per run.
const sloRequests = 16

// sloIdeal is the back-of-envelope quiet-path delivery time of one
// request: fan mean-size responses serialized at the client's line
// rate, plus one stretched base RTT of slack. Deadlines are expressed
// as multiples of it so the "tight"/"loose" labels mean the same
// thing at every Scale.
func sloIdeal(tp *topo.Topology, fan int) units.Duration {
	h := tp.Node(tp.Hosts[0])
	rate := h.Ports[0].Rate
	// Per-response serialization first, then the fan multiple — the
	// other association overflows int64 picoseconds at full fan-in.
	ser := units.Duration(fan) * units.Duration(int64(35*mtu)*8*int64(units.Second)/int64(rate))
	rtt := 2 * 4 * (h.Ports[0].Prop + units.TxTime(mtu, rate))
	return ser + rtt
}

// sloStormSpecs is the open-loop storm: the §6.1 periodic incast
// component alone, full cross-rack degree into the last host at
// destination load 0.8. No Poisson background — every byte on the
// wire is either storm or closed-loop traffic, so a deadline miss
// attributes cleanly to the storm's PFC collateral rather than to
// generic queueing.
func sloStormSpecs(tp *topo.Topology, dur units.Duration, seed uint64) []workload.FlowSpec {
	r := sim.NewRand(seed)
	hostRate := tp.Node(tp.Hosts[0]).Ports[0].Rate
	dst := tp.Hosts[len(tp.Hosts)-1]
	return workload.Incast(workload.IncastConfig{
		Dst: dst, Senders: incastSenders(tp),
		Degree: incastDegree(tp), MinSize: 30 * mtu, MaxSize: 40 * mtu,
		Load: 0.8, DstRate: hostRate, Until: dur,
	}, r.Fork())
}

// sloCell is one run of the matrix.
type sloCell struct {
	fanLabel string
	fan      int
	dlLabel  string
	dlMult   float64
	scheme   Scheme
	policy   app.RetryPolicy
}

// sloAppConfig assembles the cell's app config. Arrivals are spaced
// evenly across the storm window (but never tighter than 2× the
// fan-in's ideal delivery time, so the closed loop cannot congest its
// own client link); every cell offers the same load and only the SLO
// target moves.
func sloAppConfig(tp *topo.Topology, c sloCell, dur units.Duration) *app.Config {
	ideal := sloIdeal(tp, c.fan)
	interval := dur / sloRequests
	if interval < 2*ideal {
		interval = 2 * ideal
	}
	return &app.Config{
		Requests: sloRequests,
		Interval: interval,
		FanIn:    c.fan,
		Deadline: units.Duration(c.dlMult * float64(ideal)),
		Policy:   c.policy,
		Breaker:  app.Breaker{Cooldown: 8 * ideal},
	}
}

// sloRun is one cell's run: the open-loop storm in the stress-buffer
// regime (the same buffer-pressure ratio the Fig 2/9/Table 2 runs
// use) with the closed-loop plane overlaid as victim traffic. The
// simulation window extends past the storm so the last request can
// burn all its attempts before scoring.
func sloRun(o Options, c sloCell) RunConfig {
	tp := o.leafSpine()
	dur := o.duration(fullIncastMixDuration)
	cfg := sloAppConfig(tp, c, dur)
	last := units.Duration(cfg.Requests-1) * cfg.Interval
	if last < dur {
		last = dur
	}
	tail := units.Duration(app.MaxAttempts)*cfg.Deadline + o.stretch(200*units.Microsecond)
	return RunConfig{
		Topo: tp, Scheme: c.scheme,
		Specs:    sloStormSpecs(tp, dur, o.Seed),
		Duration: last + tail,
		Seed:     o.Seed, Opt: o,
		BufferSize: stressBuffer(tp),
		App:        cfg,
	}
}

// sloRows renders the cells' SLO scorecards. A cell two tables list
// runs once per batch (reduced).
func sloRows(o Options, cells []sloCell) [][]string {
	return runJobs(o, len(cells), func(i int) []string {
		c := cells[i]
		return append([]string{c.fanLabel, c.dlLabel, c.scheme.Name, c.policy.Name()},
			reduced(o, "slo", sloRun(o, c), sloScore)...)
	})
}

// sloScore is a run's scorecard columns. The trailing pfc column is the
// run's total PFC pause time — the causal covariate the timeout rate
// tracks.
func sloScore(res *RunResult) []string {
	s := res.SLO
	pfc := res.Stats.PFCPauseTime(topo.LayerHost) +
		res.Stats.PFCPauseTime(topo.LayerToR) +
		res.Stats.PFCPauseTime(topo.LayerCore)
	return []string{
		fmt.Sprintf("%d/%d", s.Completed, s.Requests),
		fmtDur(s.P50), fmtDur(s.P99), fmtDur(s.P999),
		fmt.Sprintf("%.1f%%", 100*s.TimeoutRate),
		fmt.Sprintf("%.2fx", s.Amplification),
		fmt.Sprintf("%d", s.Hedges),
		fmt.Sprintf("%.1f%%", 100*s.ShedRate),
		fmtRate(s.Goodput),
		fmtDur(pfc),
	}
}

var sloHeader = []string{"fanin", "deadline", "scheme", "policy", "ok",
	"p50", "p99", "p999", "timeout", "amp", "hedges", "shed", "goodput", "pfc"}

// SLOIncast runs the closed-loop SLO matrix: schemes × fan-in ×
// deadline with exponential backoff, plus a retry-policy comparison
// at the tightest cell.
func SLOIncast(o Options) []Table {
	pair := schemePair(o, DCQCN, o.leafSpine())
	backoff := func() app.RetryPolicy {
		return app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}
	}
	var cells []sloCell
	for _, fan := range []int{4, 8} {
		for _, dl := range []struct {
			label string
			mult  float64
		}{{"tight(1.5x)", 1.5}, {"loose(8x)", 8}} {
			for _, s := range pair {
				cells = append(cells, sloCell{fmt.Sprintf("%d", fan), fan, dl.label, dl.mult, s, backoff()})
			}
		}
	}
	matrix := Table{
		Title:  "Closed-loop SLO under a PFC storm: schemes x fan-in x deadline",
		Header: sloHeader,
	}
	matrix.Rows = sloRows(o, cells)
	matrix.Comment = "extension: with tight deadlines DCQCN's PFC storm turns into timeouts and the app retries into it (amp > 1.00x); Floodgate pauses nothing, so the same fan-in stays inside the deadline"

	// Policy comparison at the hardest cell: widest fan-in, tight deadline.
	policies := []app.RetryPolicy{
		app.FixedRetry{},
		backoff(),
		app.Hedged{ExpBackoff: app.ExpBackoff{Base: o.stretch(25 * units.Microsecond)}},
	}
	var pcells []sloCell
	for _, s := range pair {
		for _, p := range policies {
			pcells = append(pcells, sloCell{"8", 8, "tight(1.5x)", 1.5, s, p})
		}
	}
	ptab := Table{
		Title:  "Retry policy comparison (fan-in 8, tight deadline)",
		Header: sloHeader,
	}
	ptab.Rows = sloRows(o, pcells)
	ptab.Comment = "fixed immediate retry re-joins the storm; jittered backoff decorrelates it; hedging trades extra attempts for tail latency"
	return []Table{matrix, ptab}
}

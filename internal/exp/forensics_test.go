package exp

import (
	"strings"
	"testing"

	"floodgate/internal/fault"
	"floodgate/internal/forensics"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// forensicsIncastRun executes the pure-incast stress (every cross-rack
// host to one victim at t=0) with forensics recording on, under
// DCQCN+Floodgate or plain DCQCN.
func forensicsIncastRun(t *testing.T, o Options, fg bool) *RunResult {
	t.Helper()
	o = o.norm()
	o.Obs.Forensics = true
	tp := o.leafSpine()
	s := DCQCN(o)
	if fg {
		s = WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
	}
	res := Run(RunConfig{
		Topo: tp, Scheme: s, Specs: burstSpecs(tp, o.Seed, incastSenders(tp)),
		Duration: 2 * units.Millisecond, Seed: o.Seed, Opt: o,
	})
	if res.Completed != res.Total {
		t.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
	}
	if res.Forensics == nil {
		t.Fatal("no forensics report despite Obs.Forensics")
	}
	return res
}

// assertBudgetTiles checks every completed flow's ten wait-state
// components sum exactly to its FCT (CompWire is the non-negative
// residual, so any over-attribution breaks the equality), and that the
// report accounts for every flow of the run.
func assertBudgetTiles(t *testing.T, res *RunResult) (sawVOQ, sawQueue bool) {
	t.Helper()
	rep := res.Forensics
	done := 0
	for i := range rep.Flows {
		fb := &rep.Flows[i]
		if !fb.Done {
			continue
		}
		done++
		if fb.FCT <= 0 {
			t.Fatalf("flow %d: non-positive FCT %v", fb.ID, fb.FCT)
		}
		var sum units.Duration
		for c := forensics.Comp(0); c < forensics.NumComps; c++ {
			if fb.Comp[c] < 0 {
				t.Fatalf("flow %d: negative %s component %v", fb.ID, c, fb.Comp[c])
			}
			sum += fb.Comp[c]
		}
		if sum != fb.FCT {
			t.Fatalf("flow %d: components sum to %v, FCT is %v (over-attribution of %v)",
				fb.ID, sum, fb.FCT, sum-fb.FCT)
		}
		if fb.Comp[forensics.CompVOQ] > 0 || fb.Comp[forensics.CompCredit] > 0 {
			sawVOQ = true
		}
		if fb.Comp[forensics.CompQueue] > 0 {
			sawQueue = true
		}
	}
	// Finished flows' objects are recycled during the run; the report
	// must still account for every one of them (from the log).
	if len(rep.Flows) != res.Total || done != res.Completed || done == 0 {
		t.Fatalf("budget covers %d flows, %d done; the run had %d, %d completed", len(rep.Flows), done, res.Total, res.Completed)
	}
	return sawVOQ, sawQueue
}

// TestForensicsBudgetTilesFCT is the attribution soundness check: in a
// loss-free run every completed flow's wait-state components must sum
// exactly to its FCT, and the Floodgate incast must surface the
// mechanism itself — parked time, credit waits and at least one
// window-exhaustion episode.
func TestForensicsBudgetTilesFCT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	t.Run("restart under PFC", func(t *testing.T) { assertBudgetTiles(t, restartUnderPFCRun(t)) })
	res := forensicsIncastRun(t, Options{Scale: 0.1, Seed: 1}, true)
	rep := res.Forensics
	sawVOQ, sawQueue := assertBudgetTiles(t, res)
	if !sawQueue {
		t.Error("incast produced no queueing attribution")
	}
	if !sawVOQ {
		t.Error("Floodgate incast produced no VOQ/credit attribution")
	}
	if rep.TotalParked <= 0 {
		t.Error("Floodgate incast parked nothing")
	}
	if len(rep.Episodes) == 0 {
		t.Fatal("no window-exhaustion episodes detected under Floodgate incast")
	}
	for i := range rep.Episodes {
		ep := &rep.Episodes[i]
		if ep.Open() {
			t.Errorf("episode %d left open at run end (switch %d dst %d)", i, ep.Switch, ep.Dst)
			continue
		}
		if ep.End < ep.Start {
			t.Errorf("episode %d ends before it starts: [%v, %v]", i, ep.Start, ep.End)
		}
		if ep.PeakParked <= 0 {
			t.Errorf("episode %d has no parked bytes", i)
		}
		if len(ep.Victims) == 0 {
			t.Errorf("episode %d has no victim flows", i)
		}
	}
	if !strings.Contains(rep.Summary(), "p99 flow") {
		t.Errorf("summary missing the p99 breakdown:\n%s", rep.Summary())
	}
}

// restartUnderPFCRun is TestForensicsBudgetTilesFCT's second input: a
// ToR restarts while its uplink egress is PFC-paused, which closes that
// port's pause clock from the fault plane rather than from a resume
// frame. Two racks send 2 MB flows through one spine whose links run at
// host rate, so the spine — never the uncongested destination rack —
// fills and pauses both uplinks. The flows are long enough that the
// restart's go-back-N rewinds happen before any final segment exists, so
// the budget must still tile.
func restartUnderPFCRun(t *testing.T) *RunResult {
	t.Helper()
	o := Options{Scale: 1, Seed: 1}.norm()
	o.Obs.Forensics = true
	c := topo.DefaultLeafSpine()
	c.Spines, c.ToRs, c.HostsPerToR, c.SpineRate = 1, 3, 4, c.HostRate
	tp := c.Build()
	var specs []workload.FlowSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, workload.FlowSpec{Src: tp.Hosts[i], Dst: tp.Hosts[8+i%4], Size: 2 * units.MB, Cat: catIncast})
	}
	const at = 80 * units.Microsecond
	rc := RunConfig{
		Topo: tp, Scheme: DCQCN(o), Specs: specs, BufferSize: 200 * units.KB,
		Duration: at, Drain: units.Nanosecond, Seed: o.Seed, Opt: o,
	}
	// The fault-free twin, stopped at the restart instant: the only
	// paused switch egresses are the two uplinks (no spine egress has
	// ever been paused).
	dry := Run(rc)
	if ss := dry.Net.StallSnapshot(); ss.PausedSwitchPorts != 2 || dry.Stats.PFCPauseTime(topo.LayerCore) != 0 {
		t.Fatalf("scenario moved: %d switch ports paused at %v, spine pause time %v; want the two ToR uplinks only",
			ss.PausedSwitchPorts, at, dry.Stats.PFCPauseTime(topo.LayerCore))
	}
	srcToR := tp.Node(tp.Hosts[0]).Ports[0].Peer
	rc.Duration, rc.Drain = 2*units.Millisecond, 0
	rc.Faults = &fault.Plan{Events: []fault.Event{{At: units.Time(at), Kind: fault.SwitchRestart, Node: srcToR}}}
	res := Run(rc)
	if res.Completed != res.Total || res.FaultStats().Restarts != 1 || res.Stats.Drops == 0 {
		t.Fatalf("restart run: %d/%d flows, %d restarts, %d drops", res.Completed, res.Total, res.FaultStats().Restarts, res.Stats.Drops)
	}
	return res
}

// TestForensicsBaselineNoParking pins the negative control: without a
// flow-control module nothing can be parked, so the DCQCN baseline
// must report zero parked time, zero episodes and zero VOQ/credit
// attribution on every flow.
func TestForensicsBaselineNoParking(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	res := forensicsIncastRun(t, Options{Scale: 0.1, Seed: 1}, false)
	rep := res.Forensics
	if rep.TotalParked != 0 {
		t.Errorf("baseline parked %v, want 0", rep.TotalParked)
	}
	if len(rep.Episodes) != 0 {
		t.Errorf("baseline detected %d episodes, want 0", len(rep.Episodes))
	}
	for i := range rep.Flows {
		fb := &rep.Flows[i]
		if fb.Comp[forensics.CompVOQ] != 0 || fb.Comp[forensics.CompCredit] != 0 || fb.Parked != 0 {
			t.Fatalf("flow %d: VOQ/credit attribution without flow control: voq=%v credit=%v parked=%v",
				fb.ID, fb.Comp[forensics.CompVOQ], fb.Comp[forensics.CompCredit], fb.Parked)
		}
	}
}

// TestForensicsNoSimImpact pins the zero-observer-effect contract at
// the run level: forensics on and off must execute the identical
// simulation (same completions, delivered bytes, executed events and
// final clock), and off must mean off — no recorder built on any
// shard, no report returned — so every data-path hook stays the single
// nil check floodlint's hotpath rule holds it to.
func TestForensicsNoSimImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	for _, shards := range []int{1, 2} {
		o := Options{Scale: 0.1, Seed: 1, Shards: shards}.norm()
		run := func(forensicsOn bool) *RunResult {
			oo := o
			oo.Obs.Forensics = forensicsOn
			tp := oo.leafSpine()
			return Run(RunConfig{
				Topo: tp, Scheme: WithFloodgate(oo, DCQCN(oo), baseBDPOf(tp)),
				Specs:    burstSpecs(tp, oo.Seed, incastSenders(tp)),
				Duration: 2 * units.Millisecond, Seed: oo.Seed, Opt: oo,
			})
		}
		off, on := run(false), run(true)
		if off.Forensics != nil || on.Forensics == nil {
			t.Fatalf("shards=%d: report presence wrong: off=%v on=%v", shards, off.Forensics != nil, on.Forensics != nil)
		}
		if rs := off.Cluster.Recorders(); len(rs) != 0 {
			t.Errorf("shards=%d: %d shards built a recorder with forensics off", shards, len(rs))
		}
		if off.Completed != on.Completed || off.Total != on.Total {
			t.Errorf("shards=%d: completions differ: %d/%d vs %d/%d", shards, off.Completed, off.Total, on.Completed, on.Total)
		}
		if off.DeliveredBytes() != on.DeliveredBytes() {
			t.Errorf("shards=%d: delivered bytes differ: %v vs %v", shards, off.DeliveredBytes(), on.DeliveredBytes())
		}
		if off.Processed() != on.Processed() {
			t.Errorf("shards=%d: executed events differ: %d vs %d", shards, off.Processed(), on.Processed())
		}
		if off.Net.Eng.Now() != on.Net.Eng.Now() {
			t.Errorf("shards=%d: final clocks differ: %v vs %v", shards, off.Net.Eng.Now(), on.Net.Eng.Now())
		}
	}
}

// TestForensicsShardDeterminism is the load-bearing determinism gate:
// the forensics NDJSON (and the human summary) must be bit-identical
// across every shard count. The per-shard sibling recorders see
// different interleavings of the same global event order;
// BuildReport's merge must erase the partition entirely.
func TestForensicsShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	var wantNDJSON, wantSummary string
	for _, shards := range []int{1, 2, 4} {
		res := forensicsIncastRun(t, Options{Scale: 0.1, Seed: 1, Shards: shards}, true)
		var b strings.Builder
		if err := res.Forensics.WriteNDJSON(&b); err != nil {
			t.Fatal(err)
		}
		got, sum := b.String(), res.Forensics.Summary()
		if wantNDJSON == "" {
			wantNDJSON, wantSummary = got, sum
			if !strings.Contains(got, `"type":"episode"`) {
				t.Fatalf("reference NDJSON has no episodes:\n%s", got)
			}
			continue
		}
		if got != wantNDJSON {
			t.Errorf("NDJSON differs at shards=%d (%d vs %d bytes)", shards, len(got), len(wantNDJSON))
		}
		if sum != wantSummary {
			t.Errorf("summary differs at shards=%d:\n%s\nvs\n%s", shards, sum, wantSummary)
		}
	}
}

// TestForensicsNoTableImpact pins the table contract at the experiment
// level: with forensics on, fig2 appends one attribution table per
// scheme, but the base tables must remain byte-identical to the plain
// serial run recorded in testdata/identity.golden.
func TestForensicsNoTableImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	prev := windowOverride
	windowOverride = matrixWindow
	defer func() { windowOverride = prev }()
	o := identitySerial
	o.Obs.Forensics = true
	var base, budgets []Table
	for _, tb := range Fig2(o) {
		if strings.Contains(tb.Title, "FCT time budget") {
			budgets = append(budgets, tb)
		} else {
			base = append(base, tb)
		}
	}
	if len(budgets) != 2 {
		t.Fatalf("fig2 appends %d attribution tables with forensics, want one per scheme (2)", len(budgets))
	}
	checkIdentity(t, "fig2", "forensics on", base)
	for _, tb := range budgets {
		if len(tb.Rows) != int(forensics.NumComps) {
			t.Errorf("attribution table %q has %d rows, want %d", tb.Title, len(tb.Rows), forensics.NumComps)
		}
	}
}

package exp

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"floodgate/internal/fault"
	"floodgate/internal/packet"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// TestShardDeterminism is the sharded executor's acceptance gate
// (DESIGN.md §10): fig2 and fig6 tables must be byte-identical for
// every combination of shards ∈ {1, 2, 4} and par ∈ {1, 4}. The
// reference is the fully serial unsharded run, recorded in
// testdata/identity.golden; every other cell of the matrix must render
// the same bytes.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	for _, id := range []string{"fig2", "fig6"} {
		checkShardParMatrix(t, id)
	}
}

// TestShardFaultMatrixBitIdentical extends the bit-identity guarantee
// to the fault plane: the full faultmatrix experiment — link flaps and
// switch restarts landing on ToR-spine links that cross shard cuts,
// plus Gilbert–Elliott burst loss — renders the serial unsharded
// tables of testdata/identity.golden at every shard count.
func TestShardFaultMatrixBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = matrixWindow
	defer func() { windowOverride = 0 }()
	for _, shards := range []int{2, 4} {
		o := identitySerial
		o.Shards = shards
		checkIdentity(t, "faultmatrix", fmt.Sprintf("shards=%d", shards), FaultMatrix(o))
	}
}

// TestShardMinFrameLookahead pins that the barrier window is sized for
// the smallest frame the fabric emits (packet.MinFrameSize, 48 B), not
// for a 64 B control frame: a sub-64 B data frame emitted just after a
// window opens on a link that crosses the cut would otherwise reach
// the far shard before the barrier ("scheduling into the past").
func TestShardMinFrameLookahead(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	// NDP trims to bare 48 B headers and its incast mix has 49-63 B
	// data tails: fig23 crashed at -shards 2 before the fix.
	t.Run("fig23", func(t *testing.T) {
		windowOverride = matrixWindow
		defer func() { windowOverride = 0 }()
		e, _ := Lookup("fig23")
		checkIdentity(t, "fig23", "shards=2", e.Run(Options{Scale: 0.1, Seed: 1, Shards: 2}))
	})
	// Two 1-byte flows (one 49 B frame each) between racks on different
	// shards, started so that the frame leaves the source ToR (flow 0)
	// and the spine (flow 1) 1 ps after a window boundary. Whichever of
	// the two hops ECMP routes across the cut, one flow hits it at the
	// worst possible instant.
	t.Run("one-byte tail across the cut", func(t *testing.T) {
		o := Options{Scale: 1, Seed: 1}.norm()
		tp := faultTestFabric()
		shardOf := topo.Partition(tp, 2)
		src := tp.Hosts[0]
		dst := src
		for _, h := range tp.Hosts {
			if shardOf[h] != shardOf[src] {
				dst = h
				break
			}
		}
		if dst == src {
			t.Fatal("every host on one shard; test premise broken")
		}
		const frame = packet.HeaderSize + 1
		hostLink := tp.Node(src).Ports[0]
		toToR := hostLink.Prop + units.TxTime(frame, hostLink.Rate)
		var toSpine units.Duration
		tor := tp.Node(hostLink.Peer)
		for i := range tor.Ports {
			if up := &tor.Ports[i]; tp.Node(up.Peer).Kind == topo.SwitchNode {
				toSpine = up.Prop + units.TxTime(frame, up.Rate)
				break
			}
		}
		L := topo.Lookahead(tp)
		run := func(shards int) *RunResult {
			opt := o
			opt.Shards = shards
			return Run(RunConfig{
				Topo: faultTestFabric(), Scheme: DCQCN(o),
				Specs: []workload.FlowSpec{
					{Src: src, Dst: dst, Size: 1, Start: units.Time(10*L + 1 - toToR)},
					{Src: src, Dst: dst, Size: 1, Start: units.Time(50*L + 1 - toToR - toSpine)},
				},
				Duration: 100 * L, Seed: o.Seed, Opt: opt,
			})
		}
		want, got := run(1), run(2)
		if want.Completed != 2 || got.Completed != 2 {
			t.Fatalf("completed %d unsharded, %d at shards=2; want 2 and 2", want.Completed, got.Completed)
		}
		w, g := want.Stats.AllFCTs(), got.Stats.AllFCTs()
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("flow %d: shards=2 sample %+v != unsharded %+v", i, g[i], w[i])
			}
		}
	})
}

// dstCrossUplink returns an uplink of the incast destination's ToR
// whose spine lands on a different shard under Partition(tp, shards) —
// a link whose flap traffic must cross the cut.
func dstCrossUplink(t *testing.T, tp *topo.Topology, shards int) fault.Link {
	t.Helper()
	a := topo.Partition(tp, shards)
	tor := dstToR(tp)
	for i := range tp.Node(tor).Ports {
		peer := tp.Node(tor).Ports[i].Peer
		if tp.Node(peer).Kind == topo.SwitchNode && a[peer] != a[tor] {
			return fault.Link{A: tor, B: peer}
		}
	}
	t.Fatalf("shards=%d: no dst-ToR uplink crosses the cut; test premise broken", shards)
	panic("unreachable")
}

// TestShardCrossCutFlapBitIdentical flaps a link that provably crosses
// the shard cut (chosen against topo.Partition) while its spine
// restarts and burst loss runs — the storm scenario — and checks the
// sharded replicas agree with the serial run on every aggregate.
func TestShardCrossCutFlapBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 1, Seed: 7}.norm()
	mk := func(l fault.Link, shards int) RunConfig {
		tp := faultTestFabric()
		evs := fault.Flap(l, units.Time(20*units.Microsecond), 20*units.Microsecond, 80*units.Microsecond, 2)
		evs = append(evs, fault.Event{At: units.Time(150 * units.Microsecond), Kind: fault.SwitchRestart, Node: l.B})
		opt := o
		opt.Shards = shards
		return RunConfig{
			Topo:     tp,
			Scheme:   WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs:    faultTestSpecs(tp, o.Seed),
			Duration: 200 * units.Microsecond,
			Drain:    400 * units.Millisecond,
			Seed:     o.Seed,
			Opt:      opt,
			Faults:   &fault.Plan{Events: evs, Burst: fault.BurstWithMeanLoss(0.05)},
		}
	}
	for _, shards := range []int{2, 4} {
		l := dstCrossUplink(t, faultTestFabric(), shards)
		want := Run(mk(l, 1))
		if want.Completed != want.Total {
			t.Fatalf("shards=%d: serial storm run incomplete: %d/%d", shards, want.Completed, want.Total)
		}
		got := Run(mk(l, shards))
		if got.Completed != want.Completed || got.Total != want.Total {
			t.Fatalf("shards=%d: completion %d/%d != serial %d/%d",
				shards, got.Completed, got.Total, want.Completed, want.Total)
		}
		if got.DeliveredBytes() != want.DeliveredBytes() {
			t.Fatalf("shards=%d: delivered %v != serial %v", shards, got.DeliveredBytes(), want.DeliveredBytes())
		}
		if got.Stats.Drops != want.Stats.Drops || got.Stats.Trims != want.Stats.Trims {
			t.Fatalf("shards=%d: drops/trims %d/%d != serial %d/%d",
				shards, got.Stats.Drops, got.Stats.Trims, want.Stats.Drops, want.Stats.Trims)
		}
		if got.FaultStats() != want.FaultStats() {
			t.Fatalf("shards=%d: fault stats %+v != serial %+v", shards, got.FaultStats(), want.FaultStats())
		}
	}
}

// TestShardWatchdogDiagnosesWedgedShard wedges one shard of a sharded
// run (the incast destination's host link severed at t=0, so its shard
// never delivers a byte) and checks the barrier-level watchdog trips
// with the same structured diagnosis, at the same quantized stall
// time, as the unsharded run.
func TestShardWatchdogDiagnosesWedgedShard(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	run := func(shards int) *RunResult {
		return faultTestRun(t, func(rc *RunConfig) {
			dst := rc.Topo.Hosts[len(rc.Topo.Hosts)-1]
			tor := rc.Topo.Node(dst).Ports[0].Peer
			rc.Faults = &fault.Plan{Events: []fault.Event{
				{At: 0, Kind: fault.LinkDown, Link: fault.Link{A: dst, B: tor}},
			}}
			rc.Opt.Shards = shards
		})
	}
	want := run(1)
	if !want.Stalled || want.Diagnosis == nil {
		t.Fatal("unsharded wedged run did not trip the watchdog")
	}
	// Nothing is ever delivered: the trip comes between one and two
	// default horizons (4×RTO, 4 ms at scale 1) after t=0.
	if d := want.Diagnosis; d.Horizon != 4*units.Millisecond || d.At < units.Time(d.Horizon) || d.At >= units.Time(2*d.Horizon) {
		t.Fatalf("unsharded watchdog: horizon %v, tripped at %v; want 4ms and a trip within [4ms, 8ms)", d.Horizon, d.At)
	}
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if !got.Stalled || got.Diagnosis == nil {
			t.Fatalf("shards=%d: wedged run did not trip the watchdog", shards)
		}
		if *got.Diagnosis != *want.Diagnosis {
			t.Fatalf("shards=%d: diagnosis %+v != unsharded %+v", shards, *got.Diagnosis, *want.Diagnosis)
		}
		if got.Completed != 0 || got.DeliveredBytes() != 0 {
			t.Fatalf("shards=%d: severed destination completed %d flows, delivered %v",
				shards, got.Completed, got.DeliveredBytes())
		}
	}
}

// TestShardOversubscriptionClamp pins the par × shards policy, which is
// the executor's alone: when the product exceeds GOMAXPROCS the
// run-level parallelism is clamped to GOMAXPROCS/shards (floor 1)
// instead of thrashing barrier-synchronized workers against each other,
// -par 0 sizes the pool from the cores, and an observed run (one
// engine) is never clamped. Oversubscribed has a notice exactly when
// the knob was clamped below what it asked for.
func TestShardOversubscriptionClamp(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	cases := []struct {
		name            string
		par, shards, mp int
		obs             bool
		want            int
	}{
		{"serial default", 0, 1, 8, false, 8},
		{"unsharded any par", 16, 1, 8, false, 16}, // no shard goroutines to oversubscribe
		{"auto par with shards", 0, 4, 8, false, 2},
		{"auto par absorbs any shard count", 0, 16, 8, false, 1}, // time-sliced but bit-exact
		{"exact fit", 2, 4, 8, false, 2},
		{"serial run of wide shards", 1, 8, 8, false, 1},
		{"oversubscribed product", 4, 4, 8, false, 2},
		{"barely oversubscribed", 3, 3, 8, false, 2},
		{"explicit serial still oversubscribed", 1, 9, 8, false, 1},
		{"zero shards falls back to serial", 4, 0, 2, false, 4},
		{"observed runs use one engine", 8, 4, 8, true, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runtime.GOMAXPROCS(c.mp)
			o := Options{Parallelism: c.par, Shards: c.shards}
			if c.obs {
				o.Obs.Dir = "obs"
			}
			if got := o.parallelism(); got != c.want {
				t.Fatalf("par=%d shards=%d GOMAXPROCS=%d: parallelism() = %d, want %d", c.par, c.shards, c.mp, got, c.want)
			}
			asked := c.par
			if asked <= 0 {
				asked = c.mp
			}
			if notice := o.Oversubscribed(); (notice != "") != (c.want < asked) {
				t.Fatalf("par=%d shards=%d GOMAXPROCS=%d: Oversubscribed() = %q, want a notice only below the %d asked for",
					c.par, c.shards, c.mp, notice, asked)
			}
		})
	}
}

// TestShardValidation covers the shard config surface: RunConfig.Validate
// rejects a negative shard count naming the field, and Obs (one engine
// by design) combines with Shards > 1 by running that one engine, which
// every output's bit-identity across shard counts makes invisible.
func TestShardValidation(t *testing.T) {
	rc := RunConfig{Topo: faultTestFabric(), Duration: units.Millisecond}
	rc.Opt.Shards = -1
	if err := rc.Validate(); err == nil || !strings.Contains(err.Error(), "Options.Shards (-shards)") {
		t.Fatalf("negative Shards: Validate() = %v, want an error naming Options.Shards (-shards)", err)
	}
	rc.Opt.Shards = 2
	if err := rc.Validate(); err != nil || rc.Opt.shards() != 2 {
		t.Fatalf("Shards 2: Validate() = %v, shards() = %d; want accepted with 2 engines", err, rc.Opt.shards())
	}
	rc.Opt.Obs = ObsConfig{Dir: t.TempDir()}
	if err := rc.Validate(); err != nil || rc.Opt.shards() != 1 {
		t.Fatalf("Obs with Shards 2: Validate() = %v, shards() = %d; want accepted with 1 engine", err, rc.Opt.shards())
	}
}

package exp

import (
	"runtime"
	"strings"
	"testing"
)

// TestScaleIncastSmoke runs the experiment on the 128-host Clos
// preset and checks the table contract: the route-memory rows, a
// positive memory ratio, and full completion under both schemes.
func TestScaleIncastSmoke(t *testing.T) {
	windowOverride = fullScaleIncastDuration / 2
	defer func() { windowOverride = 0 }()
	o := Options{Scale: 0.25, Seed: 1, Topo: "clos"}
	tables := ScaleIncast(o)
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	mem := tables[0].String()
	for _, want := range []string{"route_bytes", "dense/structural"} {
		if !strings.Contains(mem, want) {
			t.Errorf("memory table missing %q:\n%s", want, mem)
		}
	}
	run := tables[1].String()
	for _, scheme := range []string{"DCQCN ", "DCQCN+Floodgate"} {
		if !strings.Contains(run, scheme) {
			t.Errorf("run table missing scheme %q:\n%s", scheme, run)
		}
	}
	// 128 hosts minus the destination rack leaves 120 cross-rack
	// senders; both schemes must complete all of them.
	if got := strings.Count(run, "120/120"); got != 2 {
		t.Errorf("want both schemes at 120/120 completions, saw %d:\n%s", got, run)
	}
}

// TestScaleIncastCompletes is the acceptance run: the 102,400-host
// Clos builds, routes and completes the canonical incast in one
// process with route memory that would be impossible dense, and the
// Floodgate cell's live heap — fabric, devices, flow-control tables and
// collectors, measured while its result is still referenced — stays
// inside 25 MB: the topology's node and port arenas, plus devices for
// the few hundred nodes the incast touches, each holding its one
// destination's Floodgate state inline and a record only for the ports
// a frame crossed (at most 2,000 of the 29,268 those switches have). It
// measures 21.1 MB; with every port of a minted switch built (and a
// 24-byte router record per host) it held 31.0 MB, with
// 64-bit topology records and per-port copies of them in every switch
// port ≈43 MB, with a 256-entry page minted per touched switch
// and windowed ingress port for that one destination ≈63 MB, and with
// every device of the fabric built up front ≈160 MB. (The budget used to be
// read after ScaleIncast had returned only strings, when HeapAlloc is
// ≈90 KB whatever the run held; per-ingress-port credit rows sized by
// node count put this cell at 553 MB and it passed.) The budget is the
// run's own: the live heap after it minus a GC'd baseline taken just
// before it, so what other tests of the process leave reachable does not
// count against it.
func TestScaleIncastCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-host simulation")
	}
	o := Options{Scale: 0.25, Seed: 1, Topo: "clos100k"}
	tables := ScaleIncast(o)
	mem := tables[0].String()
	for _, want := range []string{"102400", "structural"} {
		if !strings.Contains(mem, want) {
			t.Fatalf("memory table missing %q:\n%s", want, mem)
		}
	}
	run := tables[1].String()
	if got := strings.Count(run, "256/256"); got != 2 {
		t.Fatalf("want both schemes at 256/256 completions, saw %d:\n%s", got, run)
	}
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	res := runScaleIncastFloodgate(t, o.norm())
	runtime.GC()
	const budget = 25_000_000
	heap := res.Net.SnapshotMemStats() - int64(base.HeapAlloc)
	t.Logf("live heap %d bytes (budget %d; baseline %d)", heap, budget, base.HeapAlloc)
	if heap > budget {
		t.Fatalf("live heap %d bytes exceeds the %d-byte scaleincast budget", heap, budget)
	}
	records, ports := 0, 0
	for _, sw := range res.Net.Switches {
		for i := 0; sw != nil && i < len(sw.Node().Ports); i++ {
			ports++
			if sw.PortMinted(i) {
				records++
			}
		}
	}
	t.Logf("%d switch-port records of the minted switches' %d ports", records, ports)
	if records > 2000 {
		t.Fatalf("%d switch-port records (of %d ports), want at most 2,000: ports mint on first touch", records, ports)
	}
	runtime.KeepAlive(res)
}

// TestScaleIncastShardDeterminism extends the bit-identity matrix to
// the new experiment: the scaleincast tables render byte-identical
// at every shards × par combination on the Clos preset.
func TestScaleIncastShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullScaleIncastDuration / 2
	defer func() { windowOverride = 0 }()
	base := Options{Scale: 0.1, Seed: 1, Parallelism: 1, Shards: 1, Topo: "clos"}
	want := renderAll(ScaleIncast(base))
	for _, shards := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			o := base
			o.Shards, o.Parallelism = shards, par
			if o == base {
				continue
			}
			if got := renderAll(ScaleIncast(o)); got != want {
				t.Fatalf("shards=%d par=%d diverges from serial unsharded:\n--- want ---\n%s\n--- got ---\n%s",
					shards, par, want, got)
			}
		}
	}
}

// TestScaleTopoPresets pins the preset menu and the unknown-name
// error path floodsim's -topo validation rides on.
func TestScaleTopoPresets(t *testing.T) {
	o := Options{Scale: 0.25, Seed: 1}.norm()
	names := map[string]int{}
	for _, p := range TopoPresets() {
		names[p[0]]++
		if p[1] == "" {
			t.Errorf("preset %q has no description", p[0])
		}
	}
	for _, want := range []string{"clos", "clos100k", "fattree16", "fattree32"} {
		if names[want] != 1 {
			t.Errorf("preset %q listed %d times, want once", want, names[want])
		}
	}
	if _, _, err := o.scaleTopo("clos"); err != nil {
		t.Errorf("default preset failed: %v", err)
	}
	o.Topo = "bogus"
	if _, _, err := o.scaleTopo("clos"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown preset error = %v, want mention of bogus", err)
	}
	// Presets fix their dimensions; Scale only slows the clock.
	o.Topo = "fattree16"
	tp, name, err := o.scaleTopo("clos")
	if err != nil || name != "fattree16" {
		t.Fatalf("scaleTopo = %q, %v", name, err)
	}
	if got := tp.NumHosts(); got != 1024 {
		t.Errorf("fattree16 hosts = %d, want 1024 regardless of scale", got)
	}
}

// TestScaleGauges checks the deterministic scale gauges a run
// publishes and the explicit heap snapshot: route_bytes matches the
// topology's router, bytes/host stays flat across fabric sizes
// (O(total ports) routing), and SnapshotMemStats populates the heap
// gauge only when called.
func TestScaleGauges(t *testing.T) {
	windowOverride = fullScaleIncastDuration / 4
	defer func() { windowOverride = 0 }()
	// The gauges live on the obs metrics registry; unmetered runs keep
	// the inert zero-value bundle, so enable obs for this run.
	o := Options{Scale: 0.25, Seed: 1, Obs: ObsConfig{Dir: t.TempDir()}}.norm()
	tp, _, err := o.scaleTopo("clos")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(RunConfig{
		Topo: tp, Scheme: DCQCN(o), Specs: burstSpecs(tp, o.Seed, spreadSenders(tp, 32)),
		Duration: o.duration(fullScaleIncastDuration), Seed: o.Seed, Opt: o,
	})
	m := res.Net.Metrics
	if got := m.ScaleHosts.Value(); got != int64(tp.NumHosts()) {
		t.Errorf("scale.hosts = %d, want %d", got, tp.NumHosts())
	}
	if got := m.ScaleRouteBytes.Value(); got != tp.RouteBytes() {
		t.Errorf("scale.route_bytes = %d, want %d", got, tp.RouteBytes())
	}
	if got := m.ScaleBytesPerHost.Value(); got <= 0 || got > 4096 {
		t.Errorf("scale.bytes_per_host = %d, want small positive", got)
	}
	if got := m.ScaleHeapBytes.Value(); got != 0 {
		t.Errorf("scale.heap_bytes = %d before snapshot, want 0 (never set on table paths)", got)
	}
	if heap := res.Net.SnapshotMemStats(); heap <= 0 || m.ScaleHeapBytes.Value() != heap {
		t.Errorf("SnapshotMemStats: returned %d, gauge %d", heap, m.ScaleHeapBytes.Value())
	}
}

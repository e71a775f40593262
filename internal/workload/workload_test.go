package workload

import (
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

func TestCDFValidation(t *testing.T) {
	for _, bad := range [][]CDFPoint{
		{{100, 0}},                         // too few
		{{100, 0.1}, {200, 1}},             // does not start at 0
		{{100, 0}, {200, 0.9}},             // does not end at 1
		{{100, 0}, {50, 1}},                // sizes not increasing
		{{100, 0}, {200, 0.5}, {300, 0.4}}, // P not monotone
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid CDF %v accepted", bad)
				}
			}()
			NewCDF("bad", bad)
		}()
	}
}

func TestSampleWithinSupport(t *testing.T) {
	r := sim.NewRand(1)
	for _, c := range Workloads {
		lo := c.Pts[0].Size
		hi := c.Pts[len(c.Pts)-1].Size
		for i := 0; i < 10000; i++ {
			s := c.Sample(r)
			if s < lo || s > hi {
				t.Fatalf("%s sample %d outside [%d,%d]", c.Name, s, lo, hi)
			}
		}
	}
}

func TestEmpiricalMeanMatchesAnalytic(t *testing.T) {
	r := sim.NewRand(2)
	for _, c := range Workloads {
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			sum += float64(c.Sample(r))
		}
		emp := sum / n
		ana := c.Mean()
		if emp < 0.95*ana || emp > 1.05*ana {
			t.Fatalf("%s: empirical mean %.0f vs analytic %.0f", c.Name, emp, ana)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	// The paper's Fig 7 claims: Memcached flows are mostly < 1KB; the
	// other three are dominated (in bytes) by a small fraction of large
	// flows.
	if q := Memcached.Quantile(0.95); q > units.KB {
		t.Fatalf("Memcached p95 = %v, want <= 1KB", q)
	}
	for _, c := range []*CDF{WebServer, Hadoop, WebSearch} {
		if c.Quantile(0.5) >= units.ByteSize(c.Mean()) {
			t.Fatalf("%s: median %v should sit below mean %.0f (heavy tail)", c.Name, c.Quantile(0.5), c.Mean())
		}
	}
	if WebSearch.Mean() < 10*Memcached.Mean() {
		t.Fatal("WebSearch should dwarf Memcached in mean size")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		p1 := float64(a) / 255
		p2 := float64(b) / 255
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Hadoop.Quantile(p1) <= Hadoop.Quantile(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Memcached", "WebServer", "Hadoop", "WebSearch"} {
		c, err := ByName(name)
		if err != nil || c.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func hosts(n int) []packet.NodeID {
	out := make([]packet.NodeID, n)
	for i := range out {
		out[i] = packet.NodeID(i + 100)
	}
	return out
}

func TestPoissonLoad(t *testing.T) {
	cfg := PoissonConfig{
		CDF: WebServer, Load: 0.8,
		Hosts: hosts(16), HostRate: 100 * units.Gbps,
		Until: 10 * units.Millisecond,
	}
	specs := Poisson(cfg, sim.NewRand(3))
	var total units.ByteSize
	for _, s := range specs {
		total += s.Size
		if s.Src == s.Dst {
			t.Fatal("self flow generated")
		}
		if s.Start < 0 || s.Start > units.Time(cfg.Until) {
			t.Fatalf("start %v out of range", s.Start)
		}
	}
	// Offered bytes should hit load*rate*hosts*duration within 10%.
	want := 0.8 * float64(100*units.Gbps) / 8 * cfg.Until.Seconds() * 16
	got := float64(total)
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("offered bytes %.3g, want ~%.3g", got, want)
	}
}

func TestPoissonArrivalsAreExponential(t *testing.T) {
	cfg := PoissonConfig{
		CDF: Memcached, Load: 0.5,
		Hosts: hosts(8), HostRate: 10 * units.Gbps,
		Until: 100 * units.Millisecond,
	}
	specs := Poisson(cfg, sim.NewRand(4))
	if len(specs) < 1000 {
		t.Fatalf("too few arrivals: %d", len(specs))
	}
	// CV of exponential inter-arrivals is 1.
	var gaps []float64
	for i := 1; i < len(specs); i++ {
		gaps = append(gaps, float64(specs[i].Start-specs[i-1].Start))
	}
	var mean, varr float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		varr += (g - mean) * (g - mean)
	}
	varr /= float64(len(gaps))
	cv := varr / (mean * mean)
	if cv < 0.8 || cv > 1.2 {
		t.Fatalf("inter-arrival CV^2 = %.2f, want ~1", cv)
	}
}

func TestPoissonExcludesDst(t *testing.T) {
	ex := map[packet.NodeID]bool{hosts(4)[0]: true}
	cfg := PoissonConfig{
		CDF: Memcached, Load: 0.5, Hosts: hosts(4), HostRate: units.Gbps,
		Until: 50 * units.Millisecond, ExcludeDst: ex,
	}
	for _, s := range Poisson(cfg, sim.NewRand(5)) {
		if ex[s.Dst] {
			t.Fatal("excluded destination used")
		}
	}
}

func TestIncastPattern(t *testing.T) {
	cfg := IncastConfig{
		Dst: 1, Senders: hosts(64), Degree: 32,
		MinSize: 30 * packet.MTU, MaxSize: 40 * packet.MTU,
		Load: 0.5, DstRate: 100 * units.Gbps,
		Until: 5 * units.Millisecond,
	}
	specs := Incast(cfg, sim.NewRand(6))
	if len(specs) == 0 {
		t.Fatal("no incast flows")
	}
	events := map[units.Time]int{}
	var total units.ByteSize
	for _, s := range specs {
		if s.Dst != 1 || s.Cat != packet.CatIncast {
			t.Fatalf("bad spec %+v", s)
		}
		if s.Size < 30*packet.MTU || s.Size > 40*packet.MTU {
			t.Fatalf("size %v outside 30-40 MTU", s.Size)
		}
		events[s.Start]++
		total += s.Size
	}
	for at, n := range events {
		if n != 32 {
			t.Fatalf("event at %v has %d senders, want 32", at, n)
		}
	}
	want := 0.5 * float64(100*units.Gbps) / 8 * cfg.Until.Seconds()
	if got := float64(total); got < 0.7*want || got > 1.3*want {
		t.Fatalf("incast offered load %.3g, want ~%.3g", got, want)
	}
}

func TestIncastUnsetFieldsReturnNil(t *testing.T) {
	base := IncastConfig{
		Dst: 1, Senders: hosts(8), Degree: 4,
		MinSize: 30 * packet.MTU, MaxSize: 40 * packet.MTU,
		Load: 0.5, DstRate: 100 * units.Gbps,
		Until: units.Duration(units.Millisecond),
	}
	zero := func(f func(*IncastConfig)) IncastConfig { c := base; f(&c); return c }
	for name, cfg := range map[string]IncastConfig{
		// Zero sizes or rate made the interval zero and the generation
		// loop endless; all unset required fields must yield nil.
		"sizes":   zero(func(c *IncastConfig) { c.MinSize, c.MaxSize = 0, 0 }),
		"rate":    zero(func(c *IncastConfig) { c.DstRate = 0 }),
		"degree":  zero(func(c *IncastConfig) { c.Degree = 0 }),
		"load":    zero(func(c *IncastConfig) { c.Load = 0 }),
		"senders": zero(func(c *IncastConfig) { c.Senders = nil }),
	} {
		if specs := Incast(cfg, sim.NewRand(6)); specs != nil {
			t.Errorf("%s unset: got %d specs, want nil", name, len(specs))
		}
	}
}

func TestSuccessiveIncastDistinctDsts(t *testing.T) {
	hs := hosts(10)
	specs := SuccessiveIncast(hs, 5, units.Duration(100*units.Microsecond), 30*packet.MTU, 40*packet.MTU, sim.NewRand(7))
	byStart := map[units.Time]packet.NodeID{}
	for _, s := range specs {
		if s.Src == s.Dst {
			t.Fatal("victim sends to itself")
		}
		if prev, ok := byStart[s.Start]; ok && prev != s.Dst {
			t.Fatal("one event has two destinations")
		}
		byStart[s.Start] = s.Dst
	}
	if len(byStart) != 5 {
		t.Fatalf("%d events, want 5", len(byStart))
	}
	seen := map[packet.NodeID]bool{}
	for _, d := range byStart {
		if seen[d] {
			t.Fatal("destination repeated across successive incasts")
		}
		seen[d] = true
	}
}

func TestMergeSorted(t *testing.T) {
	a := []FlowSpec{{Start: 5}, {Start: 1}}
	b := []FlowSpec{{Start: 3}}
	m := Merge(a, b)
	if len(m) != 3 || m[0].Start != 1 || m[1].Start != 3 || m[2].Start != 5 {
		t.Fatalf("merge wrong: %+v", m)
	}
}

func TestRackVictimCategorizer(t *testing.T) {
	tp := topo.LeafSpineConfig{
		Spines: 2, ToRs: 2, HostsPerToR: 2,
		HostRate: units.Gbps, SpineRate: units.Gbps, Prop: units.Nanosecond,
	}.Build()
	dst := tp.Hosts[3] // rack 1
	cat := RackVictimCategorizer(tp, dst)
	if cat(tp.Hosts[0], tp.Hosts[2]) != packet.CatVictimIncast {
		t.Fatal("same-rack dst should be victim of incast")
	}
	if cat(tp.Hosts[2], tp.Hosts[0]) != packet.CatVictimPFC {
		t.Fatal("other-rack dst should be victim of PFC")
	}
	senders := CrossRackSenders(tp, dst)
	if len(senders) != 2 {
		t.Fatalf("cross-rack senders = %d, want 2", len(senders))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gen := func() []FlowSpec {
		return Poisson(PoissonConfig{
			CDF: Hadoop, Load: 0.6, Hosts: hosts(8),
			HostRate: 10 * units.Gbps, Until: 10 * units.Millisecond,
		}, sim.NewRand(42))
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs", i)
		}
	}
}

// TestPoissonAllocatesOnce pins the reserved result: on the ledger's
// memcached_churn_dcqcn configuration (Memcached at load 0.8 over the
// paper's 160 hosts for 150 µs, ≈ 490,000 flows) Poisson makes one
// allocation for its receiver list and one for its result. Grown by
// append it made 37 and allocated five times what it returned. The
// collector is paused while it counts: a collection inside the measured
// call (its 15 MB result triggers one) let runtime goroutines add a
// malloc to the count (8 failures in 30 package runs on a two-core box
// with both cores otherwise busy; 0 in 55 with the collector paused).
func TestPoissonAllocatesOnce(t *testing.T) {
	tp := topo.DefaultLeafSpine().Build()
	cfg := PoissonConfig{
		CDF: Memcached, Load: 0.8,
		Hosts: tp.Hosts, HostRate: tp.Node(tp.Hosts[0]).Ports[0].Rate,
		Until: 150 * units.Microsecond,
	}
	var n int
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, func() { n = len(Poisson(cfg, sim.NewRand(1))) })
	if n < 100_000 {
		t.Fatalf("churn configuration generated only %d flows", n)
	}
	if allocs > 2 {
		t.Fatalf("Poisson made %.0f allocations for %d flows, want <= 2", allocs, n)
	}
}

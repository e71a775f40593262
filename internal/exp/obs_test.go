package exp

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"floodgate/internal/app"
	"floodgate/internal/core"
	"floodgate/internal/device"
	"floodgate/internal/fault"
	"floodgate/internal/metrics"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// obsSmokeOpts keeps the observed runs fast: coarse sampling still
// produces hundreds of ticks over fig6's 20 ms window.
func obsSmokeOpts(dir string, par int) Options {
	return Options{
		Scale: 0.1, Seed: 1, Parallelism: par,
		Obs: ObsConfig{Dir: dir, Period: 100 * units.Microsecond},
	}
}

func readDataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// checkObsExport validates fig6's whole export surface: the per-run
// NDJSON/CSV/trace files exist and parse, and the manifest's table hash
// matches the tables the run actually returned.
func checkObsExport(t *testing.T, tables []Table, files map[string][]byte) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	var ndjson, csv, traces, manifests int
	for name := range files {
		switch {
		case strings.HasSuffix(name, ".metrics.ndjson"):
			ndjson++
		case strings.HasSuffix(name, ".metrics.csv"):
			csv++
		case strings.HasSuffix(name, ".trace.json"):
			traces++
		case name == "manifest.json":
			manifests++
		}
	}
	// fig6 runs two schemes (with/without Floodgate) → two file triples.
	if ndjson != 2 || csv != 2 || traces != 2 || manifests != 1 {
		t.Fatalf("file census ndjson=%d csv=%d trace=%d manifest=%d, want 2/2/2/1 (files: %v)",
			ndjson, csv, traces, manifests, sortedKeys(files))
	}

	var m metrics.Manifest
	if err := json.Unmarshal(files["manifest.json"], &m); err != nil {
		t.Fatal(err)
	}
	if m.Format != metrics.ManifestFormat || m.Experiment != "fig6" {
		t.Errorf("manifest identity: %+v", m)
	}
	if m.TableHash != TablesHash(tables) {
		t.Errorf("manifest table hash %q != rendered tables hash %q", m.TableHash, TablesHash(tables))
	}
	if len(m.Files) != 6 {
		t.Errorf("manifest lists %d files, want 6: %v", len(m.Files), m.Files)
	}
	for _, f := range m.Files {
		if _, ok := files[f]; !ok {
			t.Errorf("manifest lists missing file %q", f)
		}
	}
	if m.SamplePeriodPs != int64(100*units.Microsecond) {
		t.Errorf("manifest period = %d ps", m.SamplePeriodPs)
	}

	// Every NDJSON stream: header first, instruments > 0, ticks > 0,
	// every line valid JSON, engine self-metrics present and live.
	for name, data := range files {
		if !strings.HasSuffix(name, ".metrics.ndjson") {
			continue
		}
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var lines []map[string]any
		for sc.Scan() {
			var obj map[string]any
			if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
				t.Fatalf("%s: bad NDJSON line: %v", name, err)
			}
			lines = append(lines, obj)
		}
		if len(lines) < 3 || lines[0]["type"] != "header" {
			t.Fatalf("%s: malformed stream (%d lines)", name, len(lines))
		}
		if lines[0]["ticks"].(float64) == 0 {
			t.Errorf("%s: sampler never ticked", name)
		}
		var sawEngine, sawProgress bool
		for _, l := range lines[1:] {
			if l["type"] == "series" && l["name"] == "engine.events_processed" {
				sawEngine = true
				samples := l["samples"].([]any)
				if len(samples) > 0 && samples[len(samples)-1].(float64) > 0 {
					sawProgress = true
				}
			}
		}
		if !sawEngine || !sawProgress {
			t.Errorf("%s: engine self-metrics missing or flat", name)
		}
	}

	// Every Chrome trace parses and is non-empty.
	for name, data := range files {
		if !strings.HasSuffix(name, ".trace.json") {
			continue
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: invalid trace JSON: %v", name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: empty timeline", name)
		}
	}
}

// obsRunDir holds the files of observedFig6's run; TestMain removes it.
var obsRunDir string

// observedFig6 runs fig6 serially with observability on (obsSmokeOpts at
// par 1) once per test binary, for TestObsSmoke, TestObsNoTableImpact
// and TestObsParallelDeterminism, and returns its tables. Its files stay
// on disk under obsRunDir: each test reads the files it needs and drops
// them, so none stays reachable for TestScaleIncastCompletes' heap
// budget to count.
var observedFig6 = sync.OnceValues(func() ([]Table, error) {
	dir, err := os.MkdirTemp("", "floodgate-obs-")
	if err != nil {
		return nil, err
	}
	obsRunDir = dir
	return RunByID("fig6", obsSmokeOpts(dir, 1))
})

// TestObsSmoke runs one real experiment with observability enabled,
// validates the whole export surface (checkObsExport) and holds its
// files to testdata/obs.golden.
func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	tables, err := observedFig6()
	if err != nil {
		t.Fatal(err)
	}
	files := readDataFiles(t, filepath.Join(obsRunDir, "fig6"))
	checkObsExport(t, tables, files)
	checkObsGolden(t, files)
}

// TestObsNoTableImpact pins the core guarantee: enabling observability
// must not change a single byte of experiment output, held to the plain
// serial run recorded in testdata/identity.golden.
func TestObsNoTableImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	observed, err := observedFig6()
	if err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, "fig6 at the obs window", "-obs par=1", observed)
}

// TestObsParallelDeterminism: all observability output must be
// byte-identical at -par 1 and -par N; the manifest may differ only in
// its recorded parallelism.
func TestObsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	tSerial, err := observedFig6()
	if err != nil {
		t.Fatal(err)
	}
	dirPar := t.TempDir()
	tPar, err := RunByID("fig6", obsSmokeOpts(dirPar, 4))
	if err != nil {
		t.Fatal(err)
	}
	if TablesHash(tSerial) != TablesHash(tPar) {
		t.Fatal("tables differ across parallelism")
	}

	serial := readDataFiles(t, filepath.Join(obsRunDir, "fig6"))
	par := readDataFiles(t, filepath.Join(dirPar, "fig6"))
	if len(serial) != len(par) {
		t.Fatalf("file sets differ: %v vs %v", sortedKeys(serial), sortedKeys(par))
	}
	for name, want := range serial {
		got, ok := par[name]
		if !ok {
			t.Errorf("parallel run missing %q", name)
			continue
		}
		if name == "manifest.json" {
			var a, b metrics.Manifest
			if err := json.Unmarshal(want, &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got, &b); err != nil {
				t.Fatal(err)
			}
			if a.Parallelism != 1 || b.Parallelism != 4 {
				t.Errorf("manifest parallelism = %d/%d, want 1/4", a.Parallelism, b.Parallelism)
			}
			b.Parallelism = a.Parallelism // the single field allowed to vary
			aj, _ := json.Marshal(a)
			bj, _ := json.Marshal(b)
			if string(aj) != string(bj) {
				t.Errorf("manifests differ beyond parallelism:\n%s\n%s", aj, bj)
			}
			continue
		}
		if string(want) != string(got) {
			t.Errorf("%q differs between -par 1 and -par 4 (%d vs %d bytes)", name, len(want), len(got))
		}
	}
}

// perturb changes each leaf reachable from v (exported fields, non-nil
// pointers and interfaces, a slice's first element) in turn, calls
// check with the leaf's path, and restores it. A path in skip, with the
// reason it may leave the key alone, is not entered; an unexported field
// must be in skip.
func perturb(t *testing.T, v reflect.Value, path string, skip map[string]string, check func(path string)) {
	t.Helper()
	if _, ok := skip[path]; ok {
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f, p := v.Type().Field(i), strings.TrimPrefix(path+"."+v.Type().Field(i).Name, ".")
			if _, ok := skip[p]; !f.IsExported() && !ok {
				t.Errorf("%s is unexported: walk it, or name why it may leave the key alone", p)
				continue
			}
			perturb(t, v.Field(i), p, skip, check)
		}
	case reflect.Pointer, reflect.Slice, reflect.Interface:
		if v.IsNil() || v.Kind() == reflect.Slice && v.Len() == 0 {
			t.Errorf("%s is empty in the base run: give it a value so its fields are walked", path)
		} else if v.Kind() == reflect.Pointer {
			perturb(t, v.Elem(), path, skip, check)
		} else if v.Kind() == reflect.Slice {
			perturb(t, v.Index(0), path+"[0]", skip, check)
		} else {
			old, cp := v.Elem(), reflect.New(v.Elem().Type()).Elem()
			cp.Set(old)
			perturb(t, cp, path, skip, func(p string) { v.Set(cp); check(p); v.Set(old) })
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		check(path)
		v.SetInt(v.Int() - 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		check(path)
		v.SetUint(v.Uint() - 1)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 0.25)
		check(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		check(path)
		v.SetString(old)
	default:
		t.Errorf("%s: cannot perturb a %s", path, v.Type())
	}
}

// TestRunKeyComplete changes one input of a run at a time, walking
// RunConfig and every scheme config by reflection, and requires a new
// key for each, so a field added later that does not reach runKey fails
// here.
func TestRunKeyComplete(t *testing.T) {
	o := smokeOpts
	tp := o.leafSpine()
	bdp := baseBDPOf(tp)
	rc := mixRun(o, tp, workload.WebServer, WithFloodgate(o, DCQCN(o), bdp))
	rc.Specs = rc.Specs[:2]
	rc.ECN = &device.ECNConfig{}
	rc.Faults = &fault.Plan{Events: []fault.Event{{}}, Burst: &fault.GilbertElliott{}}
	rc.App = &app.Config{Policy: app.ExpBackoff{}}
	base := runKey(rc)
	changes := func(path string) {
		if runKey(rc) == base {
			t.Errorf("changing %s leaves the run key alone", path)
		}
	}
	perturb(t, reflect.ValueOf(&rc).Elem(), "", map[string]string{
		"Topo.Hosts":      "the host list derives from the nodes",
		"Topo.ports":      "the port arena is the nodes' Ports, walked with them",
		"Topo.router":     "the router derives from the nodes",
		"Scheme.CC":       "a factory is keyed by Scheme.cc, walked below",
		"Scheme.FC":       "a factory is keyed by Scheme.fc, walked below",
		"Scheme.cc":       "walked below",
		"Scheme.fc":       "walked below",
		"Opt.Parallelism": "cannot change output",
		"Opt.Shards":      "cannot change output",
		"Opt.Obs":         "cannot change output",
		"Opt.grid":        "the batch's memo, not an input",
		"Source":          "SourceLabel names the stream",
	}, changes)

	// Every config a scheme constructor builds its factories from.
	for _, rc.Scheme = range []Scheme{DCQCN(o), DCTCP(o), TIMELY(o), HPCC(o), SWIFT(o), WithFloodgate(o, DCQCN(o), bdp),
		BFC(32, false, bfcThresh(tp)), WithPFCTag(DCQCN(o), bdp)} {
		for _, cfg := range []*any{&rc.Scheme.cc, &rc.Scheme.fc} {
			if *cfg != nil {
				base = runKey(rc)
				perturb(t, reflect.ValueOf(cfg).Elem(), rc.Scheme.Name+" "+reflect.TypeOf(*cfg).String(), nil, changes)
			}
		}
	}

	// The memo refuses a factory set without its config: the key could
	// not tell the run from the one it was copied from.
	rc.Scheme = DCQCN(o)
	rc.Scheme.FC = core.New(core.DefaultConfig(bdp))
	defer func() {
		if v, _ := recover().(string); !strings.Contains(v, "without the config") {
			t.Errorf("reduced memoised a run whose FC has no config beside it (panic %q)", v)
		}
	}()
	reduced(o.inBatch(), "cell", rc, newCell)
}

// TestRunKeyPinned pins two run keys: runKey walks the topology, the
// scheme and its configs by reflection, so a change to how a Topology
// lays out its nodes and ports, or to the fields of a config, must not
// move -obs file names or the memo's keys unnoticed.
func TestRunKeyPinned(t *testing.T) {
	o := smokeOpts
	tp := o.leafSpine()
	rc := mixRun(o, tp, workload.WebServer, WithFloodgate(o, DCQCN(o), baseBDPOf(tp)))
	clos := rc
	clos.Topo = topo.DefaultClos().Build()
	for _, c := range []struct {
		name string
		rc   RunConfig
		want string
	}{{"leaf-spine", rc, "3e773baebac2051f"}, {"clos", clos, "c8fd40936535289f"}} {
		if got := runKey(c.rc); got != c.want {
			t.Errorf("%s run key = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestObsLabelDeterminism requires the -obs label, the scheme's slug and
// the run key, to be a function of the run: the same run labels the
// same, a new seed labels anew, and Parallelism, Shards and Obs, which
// cannot change output, leave it alone.
func TestObsLabelDeterminism(t *testing.T) {
	o := smokeOpts
	tp := o.leafSpine()
	rc := mixRun(o, tp, workload.WebServer, WithFloodgate(o, DCQCN(o), baseBDPOf(tp)))
	label := func(rc RunConfig) string { return sanitizeLabel(rc.Scheme.Name) + "-" + runKey(rc) }
	a := label(rc)
	if b := label(rc); a != b {
		t.Fatalf("label not deterministic: %q vs %q", a, b)
	}
	if !strings.HasPrefix(a, "dcqcn-floodgate-") {
		t.Errorf("label slug = %q", a)
	}
	rc2 := rc
	rc2.Seed++
	if label(rc2) == a {
		t.Error("different seeds collide")
	}
	rc2 = rc
	rc2.Opt.Parallelism, rc2.Opt.Shards, rc2.Opt.Obs = 4, 2, ObsConfig{Dir: "obs", Period: 1, Experiment: "x", Forensics: true}
	if label(rc2) != a {
		t.Error("Parallelism, Shards or Obs moved the label")
	}
}

// TestObsLabelSweeps requires the runs of Fig 10 and Fig 18 and of Fig
// 16, 17 and 24's sweeps to keep apart under their run keys, and Fig
// 17's default rows to be the default run.
func TestObsLabelSweeps(t *testing.T) {
	o := smokeOpts
	tp := o.leafSpine()
	bdp := baseBDPOf(tp)
	key := func(tp *topo.Topology, s Scheme, ecn *device.ECNConfig) string {
		return runKey(RunConfig{Topo: tp, Scheme: s, ECN: ecn, Seed: 1, Duration: units.Millisecond, Opt: o})
	}
	distinct := func(fig string, keys []string, want int) {
		t.Helper()
		set := map[string]bool{}
		for _, k := range keys {
			set[k] = true
		}
		if len(set) != want {
			t.Errorf("%s: %d runs take %d keys, want %d: %v", fig, len(keys), len(set), want, keys)
		}
	}
	ideal := core.IdealConfig(bdp)
	ideal.PerDstPause = false // Fig 18's +ideal
	distinct("fig10/fig18 +ideal", []string{key(tp, WithIdeal(o, DCQCN(o), bdp), nil),
		key(tp, WithFloodgateCfg(DCQCN(o), ideal, "+ideal"), nil)}, 2)

	var fig16 []string
	for _, kmax := range []units.ByteSize{160 * units.KB, 41 * units.KB} {
		for _, s := range schemeTriple(o, DCQCN, tp) {
			ecn := device.ECNConfig{Enable: s.ECN, KMin: 40 * units.KB, KMax: kmax}
			fig16 = append(fig16, key(tp, s, &ecn))
		}
	}
	distinct("fig16", fig16, 6)

	fg := func(mut func(*core.Config)) string {
		cfg := core.DefaultConfig(bdp)
		mut(&cfg)
		return key(tp, WithFloodgateCfg(DCQCN(o), cfg, "+Floodgate"), nil)
	}
	var fig17 []string
	for _, us := range []int{10, 20, 30, 40, 50} {
		fig17 = append(fig17, fg(func(c *core.Config) { c.CreditTimer = units.Duration(us) * units.Microsecond }))
	}
	for _, m := range []int{1, 10, 25, 50, 75, 100} {
		fig17 = append(fig17, fg(func(c *core.Config) { c.DelayCreditThresh = units.ByteSize(m) * bdp }))
	}
	distinct("fig17", fig17, 10)
	if def := key(tp, WithFloodgate(o, DCQCN(o), bdp), nil); fig17[0] != def || fig17[6] != def {
		t.Errorf("fig17's T = 10us and 10 BDP rows run the default config: keys %s and %s, want %s", fig17[0], fig17[6], def)
	}

	var fig24 []string
	for _, oversub := range []int{1, 4} {
		c := o.leafSpineConfig()
		c.Oversubscription = oversub
		tp := c.Build()
		for _, s := range append(schemePair(o, DCQCN, tp), WithPFCTag(DCQCN(o), tp.Node(tp.Hosts[0]).Ports[0].BDP())) {
			fig24 = append(fig24, key(tp, s, nil))
		}
	}
	distinct("fig24", fig24, 6)
}

package exp

// Observability: optional per-run metrics sampling and timeline export.
//
// When Options.Obs.Dir is set, every Run gets a private metrics
// registry (engine self-metrics + device/Floodgate instruments), a
// sim-clock sampler, and a trace ring, and writes three files per run
// into <dir>/<experiment>/: NDJSON time series, wide CSV, and a Chrome
// trace_event JSON of the flight recorder (loads in Perfetto). A
// manifest.json beside them records what produced the files and a
// content hash of the rendered tables.
//
// Determinism: run files are named by the RunConfig's content hash,
// runKey (never a global counter), sampling is driven by the simulation
// clock, and exports walk instruments in registration order — so all
// data files are byte-identical at any parallelism, and concurrent
// identical writers are made safe by atomic temp-file renames. The
// manifest's parallelism field is the single value allowed to vary
// between -par settings.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"floodgate/internal/forensics"
	"floodgate/internal/metrics"
	"floodgate/internal/sim"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// ObsConfig switches on observability output for experiment runs.
type ObsConfig struct {
	// Dir is the output root; empty disables observability entirely.
	Dir string
	// Period is the sampling period on the simulation clock
	// (non-positive falls back to metrics.DefaultPeriod).
	Period units.Duration
	// Experiment labels the output subdirectory (set by RunByID; adhoc
	// runs land in "adhoc").
	Experiment string
	// Forensics switches on causal flow forensics: per-flow FCT
	// time-budget attribution and incast-episode detection (see
	// internal/forensics). Independent of Dir — with Dir set the report
	// is also written as <label>.forensics.ndjson; without it the
	// report is only attached to RunResult. Unlike Dir, Forensics
	// composes with Shards > 1 (each shard records into a sibling
	// recorder, merged deterministically at the end of the run).
	Forensics bool
}

// Enabled reports whether observability output was requested.
func (c ObsConfig) Enabled() bool { return c.Dir != "" }

func (c ObsConfig) period() units.Duration {
	if c.Period <= 0 {
		return metrics.DefaultPeriod
	}
	return c.Period
}

func (c ObsConfig) experiment() string {
	if c.Experiment == "" {
		return "adhoc"
	}
	return c.Experiment
}

// obsTraceCap bounds the flight-recorder ring attached to observed
// runs (the newest events win; Perfetto handles this size easily).
const obsTraceCap = 1 << 16

// obsRun carries one observed run's registry, sampler and trace ring.
type obsRun struct {
	cfg     ObsConfig
	reg     *metrics.Registry
	sampler *metrics.Sampler
	tbuf    *trace.Buffer
	label   string

	engProcessed metrics.Gauge
	engLive      metrics.Gauge
	engHeapLen   metrics.Gauge
	engHeapHW    metrics.Gauge
	engDead      metrics.Gauge
	engSlab      metrics.Gauge
	engInUse     metrics.Gauge
}

// newObsRun builds the registry (engine instruments first; Run registers
// the network bundle next, in canonical order), the ring and the sampler.
// Call start after the network exists.
func newObsRun(rc RunConfig, o Options, eng *sim.Engine) *obsRun {
	r := metrics.NewRegistry()
	ob := &obsRun{
		cfg:          o.Obs,
		reg:          r,
		tbuf:         trace.NewBuffer(obsTraceCap, trace.Filter{}),
		label:        sanitizeLabel(rc.Scheme.Name) + "-" + runKey(rc),
		engProcessed: r.Gauge("engine.events_processed", "events"),
		engLive:      r.Gauge("engine.live_events", "events"),
		engHeapLen:   r.Gauge("engine.heap_len", "entries"),
		engHeapHW:    r.Gauge("engine.heap_high_water", "entries"),
		engDead:      r.Gauge("engine.dead_entries", "entries"),
		engSlab:      r.Gauge("engine.slab_size", "slots"),
		engInUse:     r.Gauge("engine.events_in_use", "slots"),
	}
	ob.sampler = metrics.NewSampler(eng, r, o.Obs.period())
	ob.sampler.AddProbe(func() {
		st := eng.StatsSnapshot()
		ob.engProcessed.Set(int64(st.Processed))
		ob.engLive.Set(int64(st.Live))
		ob.engHeapLen.Set(int64(st.HeapLen))
		ob.engHeapHW.Set(int64(st.HeapHighWater))
		ob.engDead.Set(int64(st.DeadEntries))
		ob.engSlab.Set(int64(st.SlabSize))
		ob.engInUse.Set(int64(st.InUse))
	})
	return ob
}

// start begins periodic sampling (first tick one period in).
func (ob *obsRun) start() { ob.sampler.Start() }

// export writes the run's NDJSON, CSV and Chrome trace files, plus the
// forensics report when one was built (rep may be nil).
func (ob *obsRun) export(rep *forensics.Report) error {
	dir := filepath.Join(ob.cfg.Dir, ob.cfg.experiment())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(*strings.Builder) error) error {
		var b strings.Builder
		if err := render(&b); err != nil {
			return err
		}
		return metrics.WriteFileAtomic(filepath.Join(dir, name), []byte(b.String()))
	}
	if err := write(ob.label+".metrics.ndjson", func(b *strings.Builder) error {
		return ob.sampler.WriteNDJSON(b)
	}); err != nil {
		return err
	}
	if err := write(ob.label+".metrics.csv", func(b *strings.Builder) error {
		return ob.sampler.WriteCSV(b)
	}); err != nil {
		return err
	}
	if err := write(ob.label+".trace.json", func(b *strings.Builder) error {
		return metrics.WriteChromeTrace(b, ob.tbuf.Events())
	}); err != nil {
		return err
	}
	if rep != nil {
		if err := write(ob.label+".forensics.ndjson", func(b *strings.Builder) error {
			return rep.WriteNDJSON(b)
		}); err != nil {
			return err
		}
	}
	return nil
}

// runKey is the content hash of every input of rc that reaches the
// simulation, written in binary through one FNV-1a hasher: the
// topology's nodes and ports (its host list and router derive from
// them), the specs, the configs the scheme's factories were built from
// (Scheme.cc, Scheme.fc) and every other field, walked by reflection so
// that a field added later joins the key without a list to keep. It
// leaves out what cannot change output by design (Options.Parallelism,
// Shards and Obs) and what stands for something it hashes (the
// factories, and Source, which SourceLabel names). Identical runs share
// a key and, by determinism, their output: -obs names a run's files by
// it, RunError reports it and a batch memoises runs under it (reduced).
func runKey(rc RunConfig) string {
	k := keyWriter{h: fnv.New64a()}
	if rc.Topo != nil { // hashed as the []*Node it was: -obs names stay put (TestRunKeyPinned)
		k.u64(uint64(len(rc.Topo.Nodes)))
		for i := range rc.Topo.Nodes {
			k.put(reflect.ValueOf(&rc.Topo.Nodes[i]))
		}
	}
	rc.Topo, rc.Source, rc.Scheme.CC, rc.Scheme.FC = nil, nil, nil, nil
	rc.Opt.Parallelism, rc.Opt.Shards, rc.Opt.Obs, rc.Opt.grid = 0, 0, ObsConfig{}, nil
	k.put(reflect.ValueOf(rc))
	k.h.Write(k.buf)
	return fmt.Sprintf("%016x", k.h.Sum64())
}

// keyWriter encodes values for runKey: every number as 8 little-endian
// bytes, a string, slice or array as its length and then its contents,
// a pointer or interface as a nil mark, then its dynamic type's name
// and value.
type keyWriter struct {
	h   hash.Hash64
	buf []byte
}

func (k *keyWriter) u64(x uint64) {
	if len(k.buf) >= 4096 {
		k.h.Write(k.buf)
		k.buf = k.buf[:0]
	}
	k.buf = binary.LittleEndian.AppendUint64(k.buf, x)
}

func (k *keyWriter) put(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			k.u64(1)
		} else {
			k.u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		k.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		k.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		k.u64(math.Float64bits(v.Float()))
	case reflect.String:
		k.u64(uint64(v.Len()))
		k.buf = append(k.buf, v.String()...)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			k.put(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		k.u64(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			k.put(v.Index(i))
		}
	case reflect.Pointer, reflect.Interface, reflect.Func:
		if v.IsNil() {
			k.u64(0)
			return
		}
		if v.Kind() == reflect.Func {
			panic(fmt.Sprintf("exp: runKey cannot hash a %s: key the config it was built from", v.Type()))
		}
		k.put(reflect.ValueOf(v.Elem().Type().String()))
		k.put(v.Elem())
	default:
		panic(fmt.Sprintf("exp: runKey cannot hash a %s", v.Type()))
	}
}

// sanitizeLabel maps a scheme name to a filesystem-safe slug.
func sanitizeLabel(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	out := strings.Trim(b.String(), "-")
	for strings.Contains(out, "--") {
		out = strings.ReplaceAll(out, "--", "-")
	}
	if out == "" {
		out = "run"
	}
	return out
}

// TablesHash folds rendered tables into the manifest's content hash.
func TablesHash(tables []Table) string {
	parts := make([]string, len(tables))
	for i := range tables {
		parts[i] = tables[i].String()
	}
	return metrics.HashStrings(parts...)
}

// WriteObsManifest writes <dir>/<experiment>/manifest.json describing
// the experiment's observability output and returns its path. The
// file list is the directory's data files in sorted (deterministic)
// order. o is taken as given (RunByID normalised it).
func WriteObsManifest(o Options, experiment string, tables []Table) (string, error) {
	dir := filepath.Join(o.Obs.Dir, experiment)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var files []string
	for _, e := range entries { // ReadDir sorts by name
		name := e.Name()
		if e.IsDir() || name == "manifest.json" || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, name)
	}
	titles := make([]string, len(tables))
	for i := range tables {
		titles[i] = tables[i].Title
	}
	m := &metrics.Manifest{
		Format:         metrics.ManifestFormat,
		Experiment:     experiment,
		Scale:          o.Scale,
		Seed:           o.Seed,
		Parallelism:    o.Parallelism,
		SamplePeriodPs: int64(o.Obs.period()),
		TableHash:      TablesHash(tables),
		Tables:         titles,
		Files:          files,
	}
	path := filepath.Join(dir, "manifest.json")
	return path, m.Write(path)
}

// RunByID runs one registered experiment, labelling any observability
// output with the experiment id and writing its manifest.
func RunByID(id string, o Options) ([]Table, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	o = o.norm().inBatch()
	o.Obs.Experiment = id
	tables := e.run(o)
	if o.Obs.Enabled() {
		if _, err := WriteObsManifest(o, id, tables); err != nil {
			return tables, fmt.Errorf("exp: writing obs manifest for %s: %w", id, err)
		}
	}
	return tables, nil
}

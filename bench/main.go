// Command bench is the repository's performance ledger: five named
// workloads run through internal/exp from outside, each iteration in a
// fresh child process, with set-up split from run, per-layer rungs on a
// traced iteration, and every host-time metric reported as the 25th
// percentile across iterations. See README.md in this directory.
//
// With -workload it runs one workload for -seconds and prints the
// result object BENCHMARK.json's contract asks for as its last line;
// without, it runs -iters rounds over all five and prints the ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	iters    int
	traceOut string
	out      string
	self     string // path of this binary, for child processes
}

// minIters is the fewest untraced iterations a single-workload run
// takes, whatever -seconds says: a p25 needs some order statistics.
const minIters = 3

func main() {
	var (
		cfg       config
		trace     int
		child     string
		selfcheck bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload, for -seconds, and print the contract's result line")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload generation seed (7 is the held-out seed, see README)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "with -workload: how long to keep starting iterations")
	flag.IntVar(&trace, "trace", 0, "1 adds one traced iteration per workload: spans, empty-run twin and per-layer rungs")
	flag.IntVar(&cfg.iters, "iters", 7, "without -workload: rounds over all five workloads")
	flag.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "bench.trace.json"), "where -trace 1 writes the Chrome trace-event file")
	flag.StringVar(&cfg.out, "out", "", "also write manifest and ledger as JSON to this file")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the ledger twice and fail if any end-to-end metric moves by more than its bound")
	flag.StringVar(&child, "child", "", "internal: run one iteration of this workload and print it as JSON")
	flag.Parse()
	cfg.trace = trace != 0

	if child != "" {
		w, err := workloadByName(child)
		if err != nil {
			fatalf("%v", err)
		}
		// The box has two cores; the sharded workload needs both and the
		// others must not be handed more on a bigger machine.
		runtime.GOMAXPROCS(benchProcs())
		if err := json.NewEncoder(os.Stdout).Encode(runIteration(w, cfg.seed, fullSize, cfg.trace)); err != nil {
			fatalf("%v", err)
		}
		return
	}

	self, err := os.Executable()
	if err != nil {
		fatalf("cannot find own binary for child processes: %v", err)
	}
	cfg.self = self
	switch {
	case selfcheck:
		os.Exit(runSelfcheck(cfg))
	case cfg.workload != "":
		os.Exit(runOne(cfg))
	default:
		os.Exit(runLedger(cfg))
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

func benchProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runner starts the child processes, one alive at a time while the
// parent only waits.
type runner struct {
	cfg    config
	spentS float64 // wall time of every child so far
}

// iteration runs one iteration of w in a fresh process and returns its
// report and its wall time, process start-up included.
func (r *runner) iteration(w workloadDef, traced bool) (*iterResult, float64) {
	args := []string{"-child", w.Name, "-seed", strconv.FormatUint(r.cfg.seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(r.cfg.self, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now() //lint:allow walltime child wall time for the manifest and the -seconds budget
	raw, err := cmd.Output()
	wall := time.Since(t0).Seconds() //lint:allow walltime child wall time for the manifest and the -seconds budget
	if err != nil {
		fatalf("%s iteration: %v", w.Name, err)
	}
	r.spentS += wall
	var it iterResult
	if err := json.Unmarshal(raw, &it); err != nil {
		fatalf("%s iteration: bad report: %v", w.Name, err)
	}
	return &it, wall
}

// runOne is the contract's entry point: one workload, iterations
// started until -seconds is spent, one JSON object as the last line.
// With -trace 1 half the budget goes to untraced iterations, then the
// traced one runs, and a sharded workload also runs its single-engine
// twin for exp.shard_speedup and the fingerprint comparison.
func runOne(cfg config) int {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fatalf("%v", err)
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	r := &runner{cfg: cfg}
	measure := func(w workloadDef, budget float64, floor int) ([]*iterResult, []float64) {
		var iters []*iterResult
		var walls []float64
		start := r.spentS
		for len(iters) < floor || r.spentS-start+(r.spentS-start)/float64(len(iters)) <= budget {
			it, wall := r.iteration(w, false)
			iters, walls = append(iters, it), append(walls, wall)
		}
		return iters, walls
	}
	iters, walls := measure(w, budget, minIters)
	var traced *iterResult
	var spans []span
	var twin *summary
	twinRunS := 0.0
	if cfg.trace {
		traced, _ = r.iteration(w, true)
		spans = traced.Spans
		if w.Twin != w.Name {
			tw, _ := workloadByName(w.Twin)
			ti, twalls := measure(tw, 0, 2)
			twin = summarizeWorkload(tw, ti, twalls, nil, 0)
			twinRunS = twin.Host["run_s"].P25
		}
	}
	s := summarizeWorkload(w, iters, walls, traced, twinRunS)
	if twin != nil && twin.Fingerprint != s.Fingerprint {
		s.Failures = append(s.Failures, fmt.Sprintf("sim_fingerprint %s differs from %s's %s", s.Fingerprint, twin.Workload, twin.Fingerprint))
	}
	printSummary(s)
	if cfg.trace {
		emitTrace(cfg.traceOut, spans)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, f := range s.Failures {
		fmt.Println("FAIL " + f)
	}
	line, correct := resultLine(s, defs)
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

// resultLine renders the contract's result object for one workload; a
// metric that was not measured makes the result incorrect.
func resultLine(s *summary, defs []metricDef) (line string, correct bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(s.Failures) == 0, s.Attempted, s.Failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := s.value(d.Name)
		if !ok {
			res.Correct = false
			continue
		}
		res.Metrics[d.Name] = metric{v, d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	return string(b), res.Correct
}

// ledger is one full set: every workload's summary plus how it was taken.
type ledger struct {
	Manifest  manifest   `json:"manifest"`
	Workloads []*summary `json:"workloads"`
	Accuracy  []infoLine `json:"accuracy"`
	Failures  []string   `json:"failures,omitempty"`
}

type infoLine struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Note  string  `json:"note"`
}

// takeLedger runs -iters rounds; each round runs every workload once,
// in order, so slow drift in the machine's speed is spread over all of
// them instead of landing on whichever ran last.
func takeLedger(cfg config) (*ledger, []span) {
	r := &runner{cfg: cfg}
	iters := make([][]*iterResult, len(workloads))
	walls := make([][]float64, len(workloads))
	for round := 0; round < cfg.iters; round++ {
		for i, w := range workloads {
			it, wall := r.iteration(w, false)
			iters[i], walls[i] = append(iters[i], it), append(walls[i], wall)
			fmt.Fprintf(os.Stderr, "round %d/%d %-24s %6.2f s\n", round+1, cfg.iters, w.Name, wall)
		}
	}
	traced := make([]*iterResult, len(workloads))
	var spans []span
	if cfg.trace {
		for i, w := range workloads {
			it, wall := r.iteration(w, true)
			traced[i] = it
			spans = append(spans, it.Spans...)
			fmt.Fprintf(os.Stderr, "traced    %-24s %6.2f s\n", w.Name, wall)
		}
	}
	l := &ledger{Manifest: takeManifest(cfg)}
	byName := map[string]*summary{}
	for i, w := range workloads {
		twinRunS := 0.0
		if tw := byName[w.Twin]; tw != nil {
			twinRunS = tw.Host["run_s"].P25
		}
		s := summarizeWorkload(w, iters[i], walls[i], traced[i], twinRunS)
		byName[w.Name] = s
		l.Workloads = append(l.Workloads, s)
		for _, f := range s.Failures {
			l.Failures = append(l.Failures, w.Name+": "+f)
		}
	}
	l.crossCheck(byName)
	return l, spans
}

// crossCheck compares workloads with each other: the sharded run must
// simulate exactly what its twin does, and the Floodgate/DCQCN pair
// must keep the paper's headline shape.
func (l *ledger) crossCheck(by map[string]*summary) {
	fail := func(format string, a ...any) { l.Failures = append(l.Failures, fmt.Sprintf(format, a...)) }
	for _, w := range workloads {
		if w.Twin != w.Name && by[w.Name].Fingerprint != by[w.Twin].Fingerprint {
			fail("%s: sim_fingerprint %s differs from %s's %s", w.Name, by[w.Name].Fingerprint, w.Twin, by[w.Twin].Fingerprint)
		}
	}
	fg, dc := by["incastmix_fg"].Exact, by["incastmix_dcqcn"].Exact
	if fg["sim_pfc_pause_us"] != 0 {
		fail("incastmix_fg: Floodgate run paused for %v us, want 0", fg["sim_pfc_pause_us"])
	}
	if dc["sim_pfc_pause_us"] <= 0 {
		fail("incastmix_dcqcn: plain DCQCN never paused; the pair no longer shows PFC being removed")
	}
	if fg["sim_max_buffer_bytes"] >= dc["sim_max_buffer_bytes"] {
		fail("incastmix_fg: max buffer %v is not below plain DCQCN's %v", fg["sim_max_buffer_bytes"], dc["sim_max_buffer_bytes"])
	}
	// The model is not validated against hardware (the paper's NS-3 fork
	// and testbed are unavailable), so these are shapes, not errors.
	l.Accuracy = []infoLine{
		{"accuracy.max_buffer_ratio", dc["sim_max_buffer_bytes"] / fg["sim_max_buffer_bytes"],
			"incastmix_dcqcn / incastmix_fg sim_max_buffer_bytes; the paper reports 2.4x-3.7x"},
		{"accuracy.pfc_pause_us_removed", dc["sim_pfc_pause_us"] - fg["sim_pfc_pause_us"],
			"incastmix_dcqcn - incastmix_fg sim_pfc_pause_us; the paper reports Floodgate triggering no PFC"},
	}
}

func runLedger(cfg config) int {
	l, spans := takeLedger(cfg)
	printLedger(l)
	if cfg.trace {
		emitTrace(cfg.traceOut, spans)
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, l); err != nil {
			fatalf("%v", err)
		}
	}
	return exitCode(l.Failures)
}

func exitCode(failures []string) int {
	for _, f := range failures {
		fmt.Println("FAIL " + f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Println("all correctness checks passed")
	return 0
}

// runSelfcheck takes two full sets back to back on the same seed and
// compares every workload × end-to-end metric. On one seed the
// simulated statistics must repeat exactly; host-side metrics must agree
// within selfcheckBound, setup_s with a floor because a tenth of a 30 ms
// set-up is below what this box can resolve. (BENCHMARK.json's bounds
// are wider: they have to cover different seeds, see README.)
func runSelfcheck(cfg config) int {
	cfg.trace = false
	a, _ := takeLedger(cfg)
	b, _ := takeLedger(cfg)
	failures := append(append([]string(nil), a.Failures...), b.Failures...)
	fmt.Println(a.Manifest)
	for i, l := range []*ledger{a, b} {
		for _, s := range l.Workloads {
			fmt.Printf("set %d %-24s iteration wall times (s): %.2f\n", i+1, s.Workload, s.IterWallS)
		}
	}
	fmt.Printf("%-24s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, sa := range a.Workloads {
		sb := b.Workloads[i]
		for _, d := range endToEnd {
			va, _ := sa.value(d.Name)
			vb, _ := sb.value(d.Name)
			diff := math.Abs(vb-va) / va
			bound := 0.0
			if _, hostSide := sa.Host[d.Name]; hostSide {
				bound = selfcheckBound
			}
			fmt.Printf("%-24s %-24s %14.6g %14.6g %8.2f%% %6.0f%%\n", sa.Workload, d.Name, va, vb, 100*diff, 100*bound)
			if diff > bound && !(d.Name == "setup_s" && math.Abs(vb-va) <= setupFloorS) {
				failures = append(failures, fmt.Sprintf("%s: %s moved %.2f%% between two sets of the same code (bound %.0f%%)", sa.Workload, d.Name, 100*diff, 100*bound))
			}
		}
		if sa.Fingerprint != sb.Fingerprint || sa.Exact["exp.events"] != sb.Exact["exp.events"] {
			failures = append(failures, sa.Workload+": sim_fingerprint or exp.events differ between two sets of the same code")
		}
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, []*ledger{a, b}); err != nil {
			fatalf("%v", err)
		}
	}
	return exitCode(failures)
}

const (
	selfcheckBound = 0.10
	setupFloorS    = 0.02
)

// manifest records how a set was taken, so two result files can be
// compared without guessing.
type manifest struct {
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Iters      int    `json:"iters"`
}

func takeManifest(cfg config) manifest {
	m := manifest{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs(), Seed: cfg.seed, Iters: cfg.iters}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			m.Commit += "+uncommitted"
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// emitTrace prints the span table and writes the trace file.
func emitTrace(path string, spans []span) {
	printSpans(spans)
	if err := writeTrace(path, spans); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("trace written to %s\n", path)
}

// writeTrace writes the spans as Chrome trace-event JSON (the format
// internal/metrics/chrometrace.go emits), one row per workload, so the
// file opens in Perfetto.
func writeTrace(path string, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var events []event
	tids := map[string]int{}
	for _, s := range spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids) + 1
			tids[s.Workload] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]string{"name": s.Workload}})
		}
		events = append(events, event{Name: s.Name, Ph: "X", TS: s.StartUS, Dur: s.EndUS - s.StartUS, PID: 1, TID: tid,
			Args: map[string]string{"workload": s.Workload, "parent": s.Parent}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// printSpans lists each workload's spans with self time: the span's
// duration minus the part its children cover.
func printSpans(spans []span) {
	type agg struct{ total, children float64 }
	type key struct{ workload, name string }
	sums := map[key]*agg{}
	var order []key
	for _, s := range spans {
		k := key{s.Workload, s.Name}
		if sums[k] == nil {
			sums[k] = &agg{}
			order = append(order, k)
		}
		sums[k].total += (s.EndUS - s.StartUS) / 1e6
	}
	for _, s := range spans {
		if p := sums[key{s.Workload, s.Parent}]; s.Parent != "" && p != nil {
			p.children += (s.EndUS - s.StartUS) / 1e6
		}
	}
	fmt.Printf("\n%-24s %-28s %12s %12s\n", "workload", "span", "total_s", "self_s")
	for _, k := range order {
		a := sums[k]
		fmt.Printf("%-24s %-28s %12.6f %12.6f\n", k.workload, k.name, a.total, a.total-a.children)
	}
}

// printSummary prints every metric of one workload by name with its
// unit; host-side readings show their p25 (the reported value) with
// min, median, p75 and the iteration count beside it.
func printSummary(s *summary) {
	fmt.Printf("\n== %s  seed %d  sim_fingerprint %s  tail percentile p%g over %g samples\n",
		s.Workload, s.Seed, s.Fingerprint, s.Exact["sim_fct_tail_pct"], s.Exact["stats.fct_samples"])
	fmt.Printf("iteration wall times (s):")
	for _, v := range s.IterWallS {
		fmt.Printf(" %.2f", v)
	}
	fmt.Println()
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := s.value(d.Name)
			if !ok {
				continue // rungs and trace overhead exist only after a traced iteration
			}
			line := fmt.Sprintf("%-34s %16.6g %-7s", d.Name, v, d.Unit)
			if q, ok := s.Host[d.Name]; ok {
				line += fmt.Sprintf("  p25 of %d (min %.6g, median %.6g, p75 %.6g)", q.N, q.Min, q.Median, q.P75)
			}
			fmt.Println(line)
		}
	}
}

func (m manifest) String() string {
	return fmt.Sprintf("manifest: commit %s, %s, %s, nproc %d, GOMAXPROCS %d, seed %d, iters %d",
		m.Commit, m.GoVersion, m.CPU, m.NProc, m.GOMAXPROCS, m.Seed, m.Iters)
}

func printLedger(l *ledger) {
	fmt.Println(l.Manifest)
	for _, s := range l.Workloads {
		printSummary(s)
		line, _ := resultLine(s, endToEnd)
		fmt.Printf("result %s %s\n", s.Workload, line)
	}
	fmt.Println()
	for _, a := range l.Accuracy {
		fmt.Printf("%-34s %16.6g          (%s)\n", a.Name, a.Value, a.Note)
	}
}

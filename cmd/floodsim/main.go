// Command floodsim reproduces the paper's evaluation from the command
// line: every table and figure is a named experiment that prints the
// corresponding rows.
//
//	floodsim -list
//	floodsim -exp fig10 -scale 0.25
//	floodsim -exp all -scale 0.5 -seed 7 -par 8
//	floodsim -exp fig6 -obs out/ -sample 10us
//	floodsim -exp fig2 -obs out/ -forensics
//	floodsim -faults list
//	floodsim -faults storm -seed 7
//	floodsim -topo list
//	floodsim -exp scaleincast -topo clos100k
//
// -topo selects a large-fabric preset for the scaleincast experiment
// (structural routing makes the 102,400-host Clos affordable); other
// experiments pin the paper fabrics and ignore it.
//
// -faults runs one named fault-injection scenario (link flaps, switch
// restarts, Gilbert–Elliott burst loss, ...) from the fault matrix
// against DCQCN and DCQCN+Floodgate; `-faults list` prints the menu,
// and `-exp faultmatrix` runs the whole matrix.
//
// With -obs, every simulation additionally writes NDJSON/CSV metric
// time series and a Chrome trace_event timeline (open in Perfetto)
// under <dir>/<experiment>/, plus a manifest.json recording the run
// parameters and a hash of the printed tables. These files are
// byte-identical at every -par setting.
//
// -forensics (requires -obs) adds causal flow forensics: every run
// also writes <label>.forensics.ndjson — a per-flow FCT time budget
// (serialization, queueing, PFC, VOQ-parked, credit-in-flight, ...)
// plus detected incast episodes — and the fig2/faultmatrix tables gain
// attribution columns with a "why was p99 slow" summary.
//
// Scale 1 is the paper's 160-host 100/400 Gbps fabric (slow; see
// DESIGN.md for the slow-motion scale model that keeps smaller runs
// faithful in shape). Independent simulations run across a worker
// pool (-par, default all cores); the printed tables are bit-identical
// at every parallelism, and -par 1 reproduces the serial path exactly.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"floodgate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole CLI behind an exit code, so the tests drive it
// in-process: 0 success, 1 a run failed, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("floodsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID      = fs.String("exp", "", "experiment id (see -list), or 'all'")
		scale      = fs.Float64("scale", 0.25, "fabric scale in (0,1]; 1 = paper scale")
		seed       = fs.Uint64("seed", 1, "workload/simulation seed")
		par        = fs.Int("par", 0, "max concurrent simulations; 0 = all cores, 1 = serial")
		shards     = fs.Int("shards", 1, "engine shards per simulation (conservative-window PDES); output is identical at any count")
		list       = fs.Bool("list", false, "list available experiments")
		obsDir     = fs.String("obs", "", "write per-run metrics/timeline files under this directory")
		sample     = fs.Duration("sample", 0, "metrics sampling period on the simulation clock (e.g. 10us; requires -obs); 0 = default")
		faults     = fs.String("faults", "", "run one fault-injection scenario, or 'list'")
		topoName   = fs.String("topo", "", "large-fabric preset for -exp scaleincast (clos, clos100k, fattree16, fattree32), or 'list'")
		forensics  = fs.Bool("forensics", false, "causal flow forensics: FCT time-budget attribution + incast episodes (requires -obs; writes <label>.forensics.ndjson)")
		appOn      = fs.Bool("app", false, "overlay the closed-loop application plane on experiments that support it (adds SLO columns to faultmatrix); 'sloincast' runs it regardless")
		flowsFrom  = fs.String("flows-from", "", "replay an NDJSON flow file (one {src,dst,size,start_ps,cat} object per line, sorted by start_ps)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var usage error // the first refused flag combination: exit 2
	switch {
	case !(*scale > 0 && *scale <= 1): // NaN too
		usage = fmt.Errorf("-scale must be in (0, 1], got %v", *scale)
	case *par < 0:
		usage = fmt.Errorf("-par must be non-negative, got %d", *par)
	case *shards < 0:
		usage = fmt.Errorf("-shards must be non-negative, got %d", *shards)
	case *sample < 0:
		usage = fmt.Errorf("-sample must be non-negative, got %v", *sample)
	case *sample != 0 && *obsDir == "":
		usage = errors.New("-sample needs -obs <dir>: it is the sampling period of the -obs metrics export")
	case *shards > 1 && *obsDir != "":
		usage = errors.New("-obs does not compose with -shards > 1 (per-shard metric export is not merged; see DESIGN.md §10)")
	default:
		usage = cmp.Or(validateConcurrency(*par, *shards, runtime.GOMAXPROCS(0)),
			validateForensics(*forensics, *obsDir), validateTopo(*topoName))
	}
	if usage != nil {
		fmt.Fprintln(stderr, "floodsim:", usage)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "floodsim:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "floodsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "floodsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "floodsim:", err)
			}
		}()
	}

	if *topoName == "list" {
		fmt.Fprintln(stdout, "topology presets (floodsim -exp scaleincast -topo <name>):")
		for _, p := range floodgate.TopoPresets() {
			fmt.Fprintf(stdout, "  %-10s %s\n", p[0], p[1])
		}
		return 0
	}

	if *faults == "list" {
		fmt.Fprintln(stdout, "fault scenarios (floodsim -faults <name>):")
		for _, n := range floodgate.FaultScenarioNames() {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
		return 0
	}

	adhoc := *flowsFrom != "" || *faults != ""
	if !adhoc && (*list || *expID == "") {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range floodgate.Experiments() {
			fmt.Fprintf(stdout, "  %-12s %s\n", e.ID, e.Title)
		}
		if *expID == "" && !*list {
			fmt.Fprintln(stdout, "\nusage: floodsim -exp <id|all> [-scale S] [-seed N] [-par N]")
			return 2
		}
		return 0
	}

	o := floodgate.Options{Scale: *scale, Seed: *seed, Parallelism: *par, Shards: *shards, App: *appOn, Topo: *topoName}
	if *obsDir != "" {
		o.Obs = floodgate.ObsConfig{Dir: *obsDir, Period: floodgate.FromNanos(sample.Nanoseconds())}
	}
	o.Obs.Forensics = *forensics
	// Every mode prints through emit. Elapsed is measured from the start:
	// under -exp all experiments overlap through the shared pool (tables
	// still print in paper order), so per-experiment wall time is not
	// meaningful.
	start := time.Now() //lint:allow walltime progress reporting times the real run, not the simulation
	failed := false
	emit := func(label string, tables []floodgate.Table, err error) {
		if err != nil {
			fmt.Fprintln(stderr, "floodsim:", err)
			failed = true
			return
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t.String())
		}
		fmt.Fprintf(stdout, "[%s done in %v at scale %.2f]\n\n", label,
			time.Since(start).Round(time.Millisecond), *scale) //lint:allow walltime progress reporting times the real run, not the simulation
	}
	switch {
	case *flowsFrom != "":
		tables, err := floodgate.RunFlowFile(*flowsFrom, o)
		emit("flows-from "+*flowsFrom, tables, err)
	case *faults != "":
		tables, err := floodgate.RunFaultScenario(*faults, o)
		emit("faults/"+*faults, tables, err)
	default:
		ids := []string{*expID}
		if *expID == "all" {
			ids = nil
			for _, e := range floodgate.Experiments() {
				ids = append(ids, e.ID)
			}
		}
		floodgate.RunExperiments(ids, o, emit)
	}
	if failed {
		return 1
	}
	return 0
}

// validateForensics rejects -forensics without an -obs directory: the
// forensics report is file output (NDJSON beside the run's metric
// files), so without a destination directory the flag would silently
// record attribution and throw it away. Pairing the flags keeps the
// CLI contract honest; the exp API allows Forensics without Dir for
// in-process consumers (tests read RunResult.Forensics directly).
func validateForensics(forensics bool, obsDir string) error {
	if forensics && obsDir == "" {
		return fmt.Errorf("-forensics needs -obs <dir> to write the report: add -obs out/ (the NDJSON lands at <dir>/<experiment>/<label>.forensics.ndjson)")
	}
	return nil
}

// validateTopo rejects unknown -topo preset names up front, before
// any experiment runs; only scaleincast reads the preset (other
// experiments pin the paper fabrics), so a typo would otherwise
// surface minutes into an -exp all batch.
func validateTopo(name string) error {
	if name == "" || name == "list" {
		return nil
	}
	var names []string
	for _, p := range floodgate.TopoPresets() {
		if p[0] == name {
			return nil
		}
		names = append(names, p[0])
	}
	return fmt.Errorf("unknown -topo %q (have %v, or 'list')", name, names)
}

// validateConcurrency rejects explicit concurrency settings the exp
// executor would otherwise only clamp with a warning: every simulation
// runs one goroutine per shard, so a -par x -shards product above
// GOMAXPROCS cannot execute as requested — the executor would quietly
// cap the concurrent runs below what was asked for. An explicit -par
// is a statement of intent, so an impossible product is a usage error
// here. -par 0 keeps the executor's auto-sizing (cores divided by the
// shard count), and -shards alone is never rejected: shards above the
// core count merely time-slice, which is slower but still bit-exact
// (that is what lets the 1-core CI container smoke-test -shards 2).
func validateConcurrency(par, shards, maxProcs int) error {
	if shards <= 1 || par < 1 {
		return nil
	}
	if par*shards > maxProcs {
		return fmt.Errorf("-par %d x -shards %d = %d goroutines oversubscribes GOMAXPROCS=%d; lower one of them, or use -par 0 to auto-size", par, shards, par*shards, maxProcs)
	}
	return nil
}

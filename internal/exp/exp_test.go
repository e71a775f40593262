package exp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"floodgate/internal/device"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// smokeOpts keeps per-experiment runtime low while still exercising
// the full pipeline.
var smokeOpts = Options{Scale: 0.1, Seed: 1}

func TestRegistryLookup(t *testing.T) {
	for _, e := range List() {
		got, err := Lookup(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("Lookup(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "x", Header: []string{"a", "bb"}, Comment: "note"}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== x ==", "a", "bb", "-- note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestFig7NoSim(t *testing.T) {
	tabs := Fig7(smokeOpts)
	if len(tabs) != 1 || len(tabs[0].Rows) != 4 {
		t.Fatalf("fig7 shape wrong: %+v", tabs)
	}
}

// smokeTables caches the smoke pass's tables by experiment id, so
// TestPaperShapes and the claims experiment read the tables
// TestSmokeAllExperiments rendered instead of simulating again;
// smokeClusters counts the clusters each id built. The pass shares one
// grid, smokeGrid, so the test process simulates each distinct run
// once; smokeBuilds lists, per run key, the ids that built its cluster.
var (
	smokeTables   = map[string][]Table{}
	smokeClusters = map[string]int{}
	smokeGrid     = new(sync.Map)
	smokeBuilds   = map[string][]string{}
)

// smokeWindow budgets the smoke pass: a quarter-length workload window
// keeps the whole registry under the default go-test timeout on one core.
const smokeWindow = fullIncastMixDuration / 4

// smokeRun runs one registered experiment at smoke scale, once per
// process, on the shared grid, and checks that every run it made built
// its network with the caller's stretched RTO, so an Options value
// dropped on the way to Run shows up here. fig6 is the testbed, at Scale
// 1 by design. The grid keeps the experiment's tables, so claims reads
// them.
func smokeRun(t *testing.T, id string) []Table {
	t.Helper()
	if tabs, ok := smokeTables[id]; ok {
		return tabs
	}
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	windowOverride = smokeWindow
	want := smokeOpts.stretch(units.Millisecond)
	if id == "fig6" {
		want = units.Millisecond
	}
	var mu sync.Mutex
	var wrong []units.Duration
	built := 0
	clusterBuilt = func(rc RunConfig, c *device.Cluster) {
		key := runKey(rc)
		mu.Lock()
		defer mu.Unlock()
		built++
		smokeBuilds[key] = append(smokeBuilds[key], id)
		if rto := c.Nets[0].Cfg.RTO; rto != want {
			wrong = append(wrong, rto)
		}
	}
	defer func() { windowOverride, clusterBuilt = 0, nil }()
	o := smokeOpts
	o.grid = smokeGrid
	tabs := e.Run(o)
	if m, own := claimMemo[outcome](smokeGrid, "exp/"+id); own {
		m.fill(func() outcome { return outcome{tables: tabs} })
	}
	if len(wrong) > 0 {
		t.Errorf("%s: %d runs built with RTO %v, want the caller's stretched %v: Options were dropped on the way to Run",
			id, len(wrong), wrong[0], want)
	}
	smokeTables[id], smokeClusters[id] = tabs, built
	return tabs
}

// TestSmokeAllExperiments executes every registered experiment once at
// minimal scale; it validates that each one runs to completion and
// produces non-empty tables, and (smokeRun) that each ran at the scale
// it was asked for. On the shared grid every distinct run is simulated
// once, but for the runs two experiments reduce differently: Fig 2's
// two storm runs (it reads time series and forensics, Fig 8 a cell) and
// the two faulted runs Fig 12 and faultmatrix share. Heavier figures
// are exercised in (skippable) dedicated tests below.
func TestSmokeAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke is not short")
	}
	for _, e := range List() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tabs := smokeRun(t, e.ID)
			if len(tabs) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tab := range tabs {
				if len(tab.Rows) == 0 {
					t.Fatalf("%s produced an empty table %q", e.ID, tab.Title)
				}
				t.Log("\n" + tab.String())
			}
		})
	}
	builds, repeats := 0, map[string]int{}
	for _, ids := range smokeBuilds {
		builds += len(ids)
		if len(ids) > 1 {
			repeats[strings.Join(ids, "+")]++
		}
	}
	t.Logf("the smoke pass built %d clusters for %d distinct runs", builds, len(smokeBuilds))
	if want := map[string]int{"fig2+fig8": 2, "fig12+faultmatrix": 2}; !reflect.DeepEqual(repeats, want) {
		t.Errorf("runs built more than once, by the ids that built them: %v, want %v", repeats, want)
	}
	// Each congestion control's slice of Fig 8 renders its own non-empty
	// table, one row per workload × scheme.
	for _, cc := range []string{"DCQCN", "TIMELY", "HPCC"} {
		cc := cc
		t.Run("fig8-"+strings.ToLower(cc), func(t *testing.T) {
			prefix := "Fig 8 (" + cc + "):"
			var found []Table
			for _, tab := range smokeRun(t, "fig8") {
				if strings.HasPrefix(tab.Title, prefix) {
					found = append(found, tab)
				}
			}
			if len(found) != 1 {
				t.Fatalf("fig8 rendered %d tables titled %q, want 1", len(found), prefix)
			}
			if want := 3 * len(workload.Workloads); len(found[0].Rows) != want {
				t.Fatalf("%s has %d rows, want %d", found[0].Title, len(found[0].Rows), want)
			}
		})
	}
}

func TestIncastMixCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := smokeOpts
	tp := o.leafSpine()
	res := Run(mixRun(o, tp, workload.WebServer, WithFloodgate(o, DCQCN(o), baseBDPOf(tp))))
	if res.Completed != res.Total {
		t.Fatalf("flows incomplete: %d/%d", res.Completed, res.Total)
	}
	if res.Stats.MaxSwitchBuffer() == 0 {
		t.Fatal("no buffer recorded")
	}
}

func TestSchemeNames(t *testing.T) {
	o := smokeOpts
	if DCQCN(o).Name != "DCQCN" || TIMELY(o).Name != "TIMELY" || HPCC(o).Name != "HPCC" {
		t.Fatal("base scheme names wrong")
	}
	if got := WithFloodgate(o, DCQCN(o), 64000).Name; got != "DCQCN+Floodgate" {
		t.Fatalf("name = %q", got)
	}
	if got := WithIdeal(o, HPCC(o), 64000).Name; got != "HPCC+ideal" {
		t.Fatalf("name = %q", got)
	}
	if got := BFC(32, false, 12000).Name; got != "BFC-32Q" {
		t.Fatalf("name = %q", got)
	}
	if got := BFC(0, true, 12000).Name; got != "BFC-ideal" {
		t.Fatalf("name = %q", got)
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 1, Seed: 1}
	if o.hostsPerToR() != 16 || o.spines() != 4 {
		t.Fatalf("paper scale wrong: hosts=%d spines=%d", o.hostsPerToR(), o.spines())
	}
	small := Options{Scale: 0.1, Seed: 1}.norm()
	if small.hostsPerToR() < 6 {
		t.Fatal("rack floor violated")
	}
	// Non-blocking invariant at every scale.
	for _, s := range []float64{0.1, 0.2, 0.5, 0.75, 1} {
		oo := Options{Scale: s, Seed: 1}.norm()
		tp := oo.leafSpine()
		tor := tp.Node(tp.Hosts[0]).Ports[0].Peer
		var up, down float64
		for _, p := range tp.Node(tor).Ports {
			if tp.Node(p.Peer).Kind == 0 { // host
				down += float64(p.Rate)
			} else {
				up += float64(p.Rate)
			}
		}
		if up < down {
			t.Fatalf("scale %v: blocking fabric (up %v < down %v)", s, up, down)
		}
	}
}

// TestOptionsValidate pins the one home of the option rules: each bad
// field fails with a message naming the Options field and the floodsim
// flag, from every entry point and before any simulation, and every
// combination the rules do not name runs.
func TestOptionsValidate(t *testing.T) {
	clusterBuilt = func(RunConfig, *device.Cluster) { t.Error("an invalid Options reached a simulation") }
	defer func() { clusterBuilt = nil }()
	nan := math.NaN()
	cases := []struct {
		name        string
		o           Options
		field, flag string // both "" = valid
	}{
		{"both off", Options{}, "", ""},
		{"obs alone", Options{Obs: ObsConfig{Dir: "out"}}, "", ""},
		{"forensics with obs", Options{Obs: ObsConfig{Dir: "out", Forensics: true}}, "", ""},
		{"forensics without obs", Options{Obs: ObsConfig{Forensics: true}}, "", ""},
		{"obs with shards", Options{Shards: 2, Obs: ObsConfig{Dir: "out", Period: units.Microsecond}}, "", ""},
		{"paper scale and a preset", Options{Scale: 1, Topo: "clos100k"}, "", ""},
		{"scale not a number", Options{Scale: nan}, "Options.Scale", "(-scale)"},
		{"scale below zero", Options{Scale: -1}, "Options.Scale", "(-scale)"},
		{"scale above one", Options{Scale: 2}, "Options.Scale", "(-scale)"},
		{"negative parallelism", Options{Parallelism: -1}, "Options.Parallelism", "(-par)"},
		{"negative shards", Options{Shards: -1}, "Options.Shards", "(-shards)"},
		{"negative period", Options{Obs: ObsConfig{Dir: "out", Period: -units.Microsecond}}, "Options.Obs.Period", "(-sample)"},
		{"period without dir", Options{Obs: ObsConfig{Period: units.Microsecond}}, "Options.Obs.Dir", "(-obs)"},
		{"unknown topo", Options{Topo: "torus"}, "Options.Topo", "(-topo)"},
	}
	fig2, _ := Lookup("fig2")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.o.Validate()
			if c.field == "" {
				if err != nil {
					t.Fatalf("Validate(%+v) = %v, want accept", c.o, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), c.flag) {
				t.Fatalf("Validate(%+v) = %v, want an error naming %s and %s", c.o, err, c.field, c.flag)
			}
			want := err.Error()
			check := func(entry string, err error) {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %v, want %q", entry, err, want)
				}
			}
			_, err = RunByID("scaleincast", c.o)
			check("RunByID", err)
			RunExperiments([]string{"fig2", "fig6"}, c.o, func(id string, _ []Table, err error) { check("RunExperiments "+id, err) })
			_, err = RunFlowFile("missing.ndjson", c.o)
			check("RunFlowFile", err)
			_, err = RunFaultScenario("none", c.o)
			check("RunFaultScenario", err)
			check("Experiment.Run", panicErr(func() { fig2.Run(c.o) }))
			check("Run", panicErr(func() { Run(RunConfig{Topo: faultTestFabric(), Duration: units.Millisecond, Opt: c.o}) }))
		})
	}
}

// panicErr runs f and returns the error it panicked with, unwrapping a
// *RunError; nil if it returned.
func panicErr(f func()) (err error) {
	defer func() {
		v := recover()
		if re, ok := v.(*RunError); ok {
			v = re.Value
		}
		err, _ = v.(error)
	}()
	f()
	return nil
}

// TestExperimentPanicIsRunError: an experiment that panics fails with a
// *RunError naming it from both entry points, RunByID (the facade's
// RunExperiment) and a RunExperiments batch, and does not panic the
// caller.
func TestExperimentPanicIsRunError(t *testing.T) {
	defer func(saved []Experiment) { registry = saved }(registry)
	registry = append(slices.Clip(registry), Experiment{"panics", "always panics", func(Options) []Table { panic("boom") }})
	check := func(entry string, err error) {
		var re *RunError
		if !errors.As(err, &re) || re.ConfigHash != "experiment:panics" || re.Value != "boom" {
			t.Errorf("%s: error %v, want a *RunError for experiment:panics carrying boom", entry, err)
		}
	}
	_, err := RunByID("panics", Options{})
	check("RunByID", err)
	for _, par := range []int{1, 2} {
		RunExperiments([]string{"panics"}, Options{Parallelism: par}, func(_ string, _ []Table, err error) {
			check(fmt.Sprintf("RunExperiments at parallelism %d", par), err)
		})
	}
}

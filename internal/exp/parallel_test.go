package exp

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floodgate/internal/device"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// renderAll flattens tables to one string for byte-level comparison.
func renderAll(tables []Table) string {
	s := ""
	for _, t := range tables {
		s += t.String() + "\n"
	}
	return s
}

// TestParallelDeterminism is the executor's core guarantee: a
// representative experiment produces with a 4-worker pool the tables
// the serial run recorded in testdata/identity.golden. fig10 covers 12
// independent runs plus a cross-run reduction (the "vs plain" ratio
// column).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = matrixWindow
	defer func() { windowOverride = 0 }()
	e, _ := Lookup("fig10")
	checkIdentity(t, "fig10", "par=4", e.Run(Options{Scale: 0.1, Seed: 1, Parallelism: 4}))
}

// TestRunManyMatchesSerial checks RunMany against a loop of Run calls
// on the same configs: same completion counts, same buffer peaks, and
// results indexed by submission order.
func TestRunManyMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.1, Seed: 1, Parallelism: 4}.norm()
	dur := fullIncastMixDuration / 8
	var rcs []RunConfig
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		tp := o.leafSpine()
		specs := incastMixSpecs(tp, workload.WebServer, dur, seed, incastDegree(tp))
		rcs = append(rcs, RunConfig{
			Topo: tp, Scheme: WithFloodgate(o, DCQCN(o), baseBDPOf(tp)),
			Specs: specs, Duration: dur, Seed: seed, Opt: o,
		})
	}
	got := RunMany(rcs)
	if len(got) != len(rcs) {
		t.Fatalf("RunMany returned %d results for %d configs", len(got), len(rcs))
	}
	for i, rc := range rcs {
		want := Run(rc)
		if got[i].Completed != want.Completed || got[i].Total != want.Total {
			t.Fatalf("run %d: completion %d/%d != serial %d/%d",
				i, got[i].Completed, got[i].Total, want.Completed, want.Total)
		}
		if got[i].Stats.MaxSwitchBuffer() != want.Stats.MaxSwitchBuffer() {
			t.Fatalf("run %d: max buffer %v != serial %v",
				i, got[i].Stats.MaxSwitchBuffer(), want.Stats.MaxSwitchBuffer())
		}
	}
}

// TestRunExperimentsOrder runs the five storm views and Fig 10 and Fig
// 23, which share mix runs, as one batch overlapped on four workers
// beside fig7, an unknown id and table2 again: they emit in submission
// order, each prints exactly the tables it prints alone on a grid of
// its own, and the batch builds one cluster per distinct run (3 CCs × 4
// workloads × 3 schemes of storm runs, Fig 10's 12 mix runs and Fig
// 23's two NDP runs) where the seven alone build 83. The runs are a
// tenth of the smoke window, so the test also holds every table to
// telling the schemes apart (tellsApart). The smoke pass's claims
// builds none: it reads the tables its experiments rendered.
func TestRunExperimentsOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	for _, c := range claims {
		smokeRun(t, c.id)
	}
	if smokeRun(t, "claims"); smokeClusters["claims"] != 0 {
		t.Errorf("the smoke pass's claims built %d clusters, want 0", smokeClusters["claims"])
	}
	var built atomic.Int64
	windowOverride, clusterBuilt = smokeWindow/10, func(RunConfig, *device.Cluster) { built.Add(1) }
	defer func() { windowOverride, clusterBuilt = 0, nil }()
	o := smokeOpts
	o.Parallelism = 4
	ids := []string{"fig7", "fig8", "table2", "fig9", "nope", "table2", "fig11", "fig21", "fig10", "fig23"}
	alone := map[string]string{}
	for _, id := range ids {
		if e, err := Lookup(id); err == nil && alone[id] == "" {
			alone[id] = renderAll(e.Run(o)) // a grid of its own
		}
	}
	aloneClusters := built.Swap(0)
	var gotIDs []string
	RunExperiments(ids, o, func(id string, tables []Table, err error) {
		gotIDs = append(gotIDs, id)
		if id == "nope" {
			if err == nil {
				t.Error("unknown experiment id did not error")
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tab := range tables {
			if !tellsApart(tab) {
				t.Errorf("%s: %q has no done flows or no +Floodgate row that differs from its base scheme's", id, tab.Title)
			}
		}
		if got := renderAll(tables); got != alone[id] {
			t.Errorf("%s: batch output differs from the run alone:\n--- alone ---\n%s\n--- batch ---\n%s", id, alone[id], got)
		}
	})
	if !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("emit order %v, want %v", gotIDs, ids)
	}
	if n := built.Load(); n != 50 || aloneClusters != 83 {
		t.Errorf("the batch built %d clusters and the seven alone %d, want 50 and 83", n, aloneClusters)
	}
}

// tellsApart reports whether a table shows its runs did something: no
// "flows" cell reads 0 done, and where rows name a scheme, some
// +Floodgate row differs after the scheme column from the base
// scheme's row above it.
func tellsApart(tab Table) bool {
	scheme, flows := slices.Index(tab.Header, "scheme"), slices.Index(tab.Header, "flows")
	plain := map[string]string{}
	pairs, differ := 0, 0
	for _, row := range tab.Rows {
		if flows >= 0 && strings.HasPrefix(row[flows], "0/") {
			return false
		}
		if scheme < 0 {
			continue
		}
		at, rest := strings.Join(row[:scheme], "|")+"|", strings.Join(row[scheme+1:], "|")
		plain[at+row[scheme]] = rest
		if base, ok := strings.CutSuffix(row[scheme], "+Floodgate"); ok && plain[at+base] != "" {
			pairs++
			if plain[at+base] != rest {
				differ++
			}
		}
	}
	return pairs == 0 || differ > 0
}

// TestSharedNothing pins the audit in parallel.go: the values that
// concurrent runs share must be observably immutable across a run.
func TestSharedNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	o := Options{Scale: 0.1, Seed: 1}.norm()

	// workload.CDF: package-level distributions must not change when
	// sampled (Sample reads Pts only).
	cdfBefore := make([]CDFSnapshot, len(workload.Workloads))
	for i, c := range workload.Workloads {
		cdfBefore[i] = snapshotCDF(c)
	}

	// topo.Topology: ports and routes must be identical before and
	// after a simulation uses the topology.
	tp := o.leafSpine()
	portsBefore := snapshotPorts(tp)

	dur := fullIncastMixDuration / 8
	specs := incastMixSpecs(tp, workload.WebServer, dur, o.Seed, incastDegree(tp))
	// Scheme factory closures mint private state per run: two runs from
	// the same Scheme value must not interfere (same results as two
	// schemes built independently).
	s := WithFloodgate(o, DCQCN(o), baseBDPOf(tp))
	r1 := Run(RunConfig{Topo: tp, Scheme: s, Specs: specs, Duration: dur, Seed: o.Seed, Opt: o})
	r2 := Run(RunConfig{Topo: tp, Scheme: s, Specs: specs, Duration: dur, Seed: o.Seed, Opt: o})
	if r1.Completed != r2.Completed || r1.Stats.MaxSwitchBuffer() != r2.Stats.MaxSwitchBuffer() {
		t.Fatal("reusing one Scheme value across runs changed results: factory closures leak state")
	}

	for i, c := range workload.Workloads {
		if !reflect.DeepEqual(cdfBefore[i], snapshotCDF(c)) {
			t.Fatalf("workload CDF %s mutated by a run", c.Name)
		}
	}
	if !reflect.DeepEqual(portsBefore, snapshotPorts(tp)) {
		t.Fatal("topology mutated by a run: ports/routes are not read-only after Build()")
	}
}

// CDFSnapshot captures a CDF's observable state.
type CDFSnapshot struct {
	Name string
	Pts  []workload.CDFPoint
}

func snapshotCDF(c *workload.CDF) CDFSnapshot {
	pts := make([]workload.CDFPoint, len(c.Pts))
	copy(pts, c.Pts)
	return CDFSnapshot{Name: c.Name, Pts: pts}
}

func snapshotPorts(tp *topo.Topology) []topo.Port {
	var out []topo.Port
	for _, n := range tp.Nodes {
		out = append(out, n.Ports...)
	}
	return out
}

// TestCellOfClaimsOnce asks one grid for overlapping cells from several
// views at once: each run is simulated once and every view reads the
// same cell; a job waiting on a cell another job is simulating holds no
// pool slot, and a call from outside a job panics; and a run that fails
// raises its panic in every view that reads it, none left waiting.
func TestCellOfClaimsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	var built atomic.Int64
	simulating, held := make(chan struct{}), -1
	windowOverride, clusterBuilt = 20*units.Microsecond, func(RunConfig, *device.Cluster) {
		if built.Add(1) > 1 {
			return
		}
		// The first run: its twin job claims the same cell meanwhile
		// and must give its slot back, leaving this run's alone in use.
		close(simulating)
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if held = simSlots.inUse(); held == 1 {
				break
			}
		}
	}
	defer func() { windowOverride, clusterBuilt = 0, nil }()
	o := smokeOpts
	o.Parallelism, o.grid = 2, new(sync.Map)
	tp := o.leafSpine()
	twins := runJobs(o, 2, func(i int) *cell {
		if i == 1 {
			<-simulating
		}
		return cellOf(o, stormRun(o, tp, workload.WebServer, DCQCN(o)))
	})
	if held != 1 || twins[0] != twins[1] {
		t.Errorf("twin jobs: %d slots in use while one simulated and the other waited, want 1; same cell: %t", held, twins[0] == twins[1])
	}
	func() { // outside a job there is no slot to give back
		defer func() {
			if recover() == nil {
				t.Error("cellOf outside a runJobs job did not panic")
			}
		}()
		cellOf(o, stormRun(o, tp, workload.WebServer, DCQCN(o)))
	}()

	cdfs := []*workload.CDF{workload.WebServer, workload.Hadoop}
	broken := func(o Options) Scheme { // its first switch panics the run
		s := DCQCN(o)
		s.Name, s.FC, s.fc = "broken", func(*device.Switch) device.FlowControl { panic("broken switch") }, "broken"
		return s
	}
	got := make([][]*cell, 6)
	fails := make([]any, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { fails[i] = recover() }()
			if i < 4 {
				got[i] = tripleCells(o, stormRun, cdfs[i%2:], []int{0, 2}, DCQCN)
			} else {
				tripleCells(o, stormRun, cdfs[:1], []int{0}, broken)
			}
		}()
	}
	wg.Wait()
	if n := built.Load(); n != 5 {
		t.Errorf("built %d clusters, want 5: the twins' cell, three more DCQCN cells and the broken one, each once", n)
	}
	for i := range got {
		if _, ok := fails[i].(*RunError); ok != (i >= 4) {
			t.Errorf("caller %d: panic %v", i, fails[i])
		}
	}
	if !slices.Equal(got[0], got[2]) || !slices.Equal(got[1], got[3]) || !slices.Equal(got[0][2:], got[1]) || got[0][0] != twins[0] {
		t.Error("callers asking for the same cells read different ones")
	}
}

package exp

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

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
// representative experiment produces byte-identical tables serially
// and with a 4-worker pool. fig10 covers 12 independent runs plus a
// cross-run reduction (the "vs plain" ratio column).
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	windowOverride = fullIncastMixDuration / 8
	defer func() { windowOverride = 0 }()
	serial := Options{Scale: 0.1, Seed: 1, Parallelism: 1}
	parallel := Options{Scale: 0.1, Seed: 1, Parallelism: 4}
	want := renderAll(Fig10(serial))
	got := renderAll(Fig10(parallel))
	if want != got {
		t.Fatalf("parallel output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
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

// TestRunExperimentsOrder runs the five storm-grid views as one batch,
// overlapped on four workers beside fig7, an unknown id and table2
// again: they emit in submission order, each prints exactly the tables
// it printed alone in the smoke pass, and the batch builds one cluster
// per distinct storm cell (3 CCs × 4 workloads × 3 schemes) where the
// five alone build 65. The smoke pass's claims builds none: it reads
// the tables its experiments rendered.
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
	ids := []string{"fig7", "fig8", "table2", "fig9", "nope", "table2", "fig11", "fig21"}
	alone, aloneClusters := map[string]string{}, 0
	for _, id := range ids {
		if _, seen := alone[id]; id != "nope" && !seen {
			alone[id] = renderAll(smokeRun(t, id))
			aloneClusters += smokeClusters[id]
		}
	}
	var built atomic.Int64
	windowOverride, clusterBuilt = smokeWindow, func(*device.Cluster) { built.Add(1) }
	defer func() { windowOverride, clusterBuilt = 0, nil }()
	o := smokeOpts
	o.Parallelism = 4
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
		if got := renderAll(tables); got != alone[id] {
			t.Errorf("%s: batch output differs from the run alone:\n--- alone ---\n%s\n--- batch ---\n%s", id, alone[id], got)
		}
	})
	if !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("emit order %v, want %v", gotIDs, ids)
	}
	if n := built.Load(); n != 36 || aloneClusters != 65 {
		t.Errorf("the batch built %d clusters and the five alone %d, want 36 and 65", n, aloneClusters)
	}
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

// TestStormCellsClaimOnce asks one grid for overlapping storm cells from
// several goroutines at once: each cell is simulated once and every
// caller reads the same cell. A cell whose run fails raises its panic in
// every caller that reads it, and none is left waiting.
func TestStormCellsClaimOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	var built atomic.Int64
	windowOverride, clusterBuilt = 20*units.Microsecond, func(*device.Cluster) { built.Add(1) }
	defer func() { windowOverride, clusterBuilt = 0, nil }()
	o := smokeOpts
	o.Parallelism, o.grid = 2, new(sync.Map)
	cdfs := []*workload.CDF{workload.WebServer, workload.Hadoop}
	broken := func(o Options) Scheme { // its first switch panics the run
		s := DCQCN(o)
		s.Name, s.FC = "broken", func(*device.Switch) device.FlowControl { panic("broken switch") }
		return s
	}
	got := make([][]*stormCell, 6)
	fails := make([]any, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { fails[i] = recover() }()
			if i < 4 {
				got[i] = stormCells(o, cdfs[i%2:], []int{0, 2}, DCQCN)
			} else {
				stormCells(o, cdfs[:1], []int{0}, broken)
			}
		}()
	}
	wg.Wait()
	if n := built.Load(); n != 5 {
		t.Errorf("built %d clusters, want 5: four DCQCN cells and the broken one, each once", n)
	}
	for i := range got {
		if _, ok := fails[i].(*RunError); ok != (i >= 4) {
			t.Errorf("caller %d: panic %v", i, fails[i])
		}
	}
	if !slices.Equal(got[0], got[2]) || !slices.Equal(got[1], got[3]) || !slices.Equal(got[0][2:], got[1]) {
		t.Error("callers asking for the same cells read different ones")
	}
}

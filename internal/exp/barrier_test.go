package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"floodgate/internal/device"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// barrierTestCluster builds k idle shard networks over the fault-test
// fabric: engines the tests below drive through the pool directly.
func barrierTestCluster(k int) *device.Cluster {
	tp := faultTestFabric()
	engines := make([]*sim.Engine, k)
	for i := range engines {
		engines[i] = sim.NewEngine()
	}
	return device.NewCluster(device.Config{Topo: tp, BufferSize: units.MB}, engines, topo.Partition(tp, k))
}

// TestBarrierParksWithoutOwnP guards the failure mode an unbounded
// spin produced (go test ./internal/exp 44 s -> 581 s at k = 4 on two
// Ps): with fewer Ps than shards the spin budget is zero, and the run
// still completes with the unsharded run's samples and the same
// census counts it has when every shard does own a P.
func TestBarrierParksWithoutOwnP(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test")
	}
	run := func(shards int) *RunResult {
		return faultTestRun(t, func(rc *RunConfig) { rc.Opt.Shards = shards })
	}
	want := run(1)
	if want.Census != nil {
		t.Fatal("unsharded run carries a barrier census")
	}
	for _, k := range []int{2, 4} {
		wide := runtime.GOMAXPROCS(k)
		if spinFor(k) != spinBudget {
			t.Fatalf("k=%d on %d Ps: spin budget %d, want %d", k, k, spinFor(k), spinBudget)
		}
		ref := run(k)
		runtime.GOMAXPROCS(1)
		if spinFor(k) != 0 {
			t.Fatalf("k=%d on one P: spin budget %d, want 0", k, spinFor(k))
		}
		got := run(k)
		runtime.GOMAXPROCS(wide)

		if got.Completed != want.Completed || got.DeliveredBytes() != want.DeliveredBytes() {
			t.Fatalf("k=%d: %d flows / %v delivered, unsharded %d / %v", k,
				got.Completed, got.DeliveredBytes(), want.Completed, want.DeliveredBytes())
		}
		if w, g := want.Stats.AllFCTs(), got.Stats.AllFCTs(); !reflect.DeepEqual(g, w) {
			t.Fatalf("k=%d: FCT samples diverge from the unsharded run", k)
		}
		gc, rc := *got.Census, *ref.Census
		var events uint64
		for _, e := range gc.Events {
			events += e
		}
		if events != got.Processed() || gc.Critical > events || gc.Critical*uint64(k) < events {
			t.Fatalf("k=%d: census events %v (critical %d) inconsistent with %d processed", k, gc.Events, gc.Critical, got.Processed())
		}
		if gc.Windows != rc.Windows || gc.Critical != rc.Critical || gc.Frames != rc.Frames ||
			!reflect.DeepEqual(gc.Events, rc.Events) {
			t.Fatalf("k=%d: census counts differ between parked and spinning runs:\n%+v\n%+v", k, gc, rc)
		}
	}
}

// TestBarrierParkRouseStress crosses 50k windows per shard count and
// spin budget, the budget forced down to a few iterations, or to about
// the length of a window, so that waits keep racing a park against its
// rouse. Each shard burns a random few hundred nanoseconds per window:
// the shards overlap on separate Ps and finish in random order, which
// is what lands a rouse inside a parker's set-flag / re-check gap. A
// lost wake-up hangs the test; a worker released early or twice trips
// the clock check.
func TestBarrierParkRouseStress(t *testing.T) {
	const windows = 50_000
	for _, k := range []int{2, 4} {
		spins := []int{2, 50}
		if runtime.GOMAXPROCS(0) >= k {
			spins = append(spins, 2000) // as in spinFor: a long spin only with a P per shard
		}
		for _, spin := range spins {
			c := barrierTestCluster(k)
			for i, n := range c.Nets {
				eng, r := n.Eng, sim.NewRand(uint64(i+1))
				var tick func()
				var burn uint64
				tick = func() {
					x := burn // a local: the race detector does not instrument it
					for j := r.Intn(1500); j > 0; j-- {
						x = x*31 + 1
					}
					burn = x
					eng.After(1, tick)
				}
				eng.At(1, tick)
			}
			p := startShardPool(c, spin)
			for w := 1; w <= windows; w++ {
				until := units.Time(w)
				p.runTo(until)
				for i, n := range c.Nets {
					if n.Eng.Now() != until || n.Eng.Processed != uint64(w) {
						p.stop()
						t.Fatalf("k=%d spin=%d window %d: shard %d at %v with %d events after the barrier",
							k, spin, w, i, n.Eng.Now(), n.Eng.Processed)
					}
				}
			}
			p.stop()
			if p.census.Windows != windows || p.census.Critical != windows {
				t.Fatalf("k=%d spin=%d: census counted %d windows, %d critical events", k, spin, p.census.Windows, p.census.Critical)
			}
		}
	}
}

// TestBarrierPanicLowestShardFirst panics shards 3 and 1 in the same
// window: the run re-raises shard 1's (what a serial execution would
// hit first) with the shard's own stack, and the workers are retired
// on that path too.
func TestBarrierPanicLowestShardFirst(t *testing.T) {
	before := runtime.NumGoroutine()
	c := barrierTestCluster(4)
	for _, i := range []int{3, 1} {
		i := i
		c.Nets[i].Eng.At(units.Time(5*units.Nanosecond), func() { panic(fmt.Sprintf("boom on %d", i)) })
	}
	var got any
	func() {
		defer func() { got = recover() }()
		runWindows(c, units.Time(units.Microsecond), 0, func() int { return 0 }, 1)
	}()
	err, ok := got.(error)
	if !ok {
		t.Fatalf("recovered %v, want the shard's wrapped panic", got)
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "shard 1: boom on 1\n") || !strings.Contains(msg, "TestBarrierPanicLowestShardFirst") {
		t.Fatalf("panic does not name shard 1 and carry its stack:\n%s", msg)
	}
	// stop waits for the workers, but a goroutine that has returned may
	// take a moment to leave the count.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the panic, %d before the run", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

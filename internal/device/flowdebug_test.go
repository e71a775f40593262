//go:build simdebug

package device

import (
	"fmt"
	"strings"
	"testing"

	"floodgate/internal/units"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

// recycledPair runs one flow to release and returns the network, the
// pooled object and a reference taken during its (finished) life.
func recycledPair(t *testing.T) (*Network, *Flow, flowRef) {
	t.Helper()
	cfg := smallCfg()
	hosts := cfg.Topo.Hosts
	n := lifecycleNet(cfg, false, nil, []lifecycleSpec{
		{hosts[0], hosts[5], 10 * units.KB, 0},
		{hosts[1], hosts[4], 10 * units.KB, units.Time(units.Second)},
	})
	n.Run(units.Time(units.Microsecond))
	stale := refOf(n.live[1])
	n.Run(units.Time(units.Millisecond))
	if len(n.flowPool) != 1 {
		t.Fatal("flow 1 was not released")
	}
	return n, n.flowPool[0], stale
}

func TestFlowDoubleReleasePanics(t *testing.T) {
	n, f, _ := recycledPair(t)
	mustPanic(t, "double release of flow 1", func() { n.HostsByID[f.Src].release(f) })
}

// A reference stored in one life of a Flow object panics when taken in
// another, whether the object is pooled or already serving a new flow,
// and names the flow that stored it.
func TestFlowUseAfterReleasePanics(t *testing.T) {
	n, f, stale := recycledPair(t)
	mustPanic(t, "use after release of flow 1 in popSendq", func() { stale.take("popSendq") })
	n.live[1] = f // a live slot that was not cleared
	mustPanic(t, "live slot of flow 1 holds a recycled object", func() { n.flow(1) })
	n.live[1] = nil

	g := n.mintFlow(2, false)
	if g != f {
		t.Fatal("mint did not reuse the pooled object")
	}
	if refOf(g).take("second life") != g {
		t.Fatal("a reference taken in the current life must resolve")
	}
	mustPanic(t, "use after release of flow 1 in serviceRTO", func() { stale.take("serviceRTO") })
	n.live[1] = g // the object moved on to flow 2
	mustPanic(t, "live slot of flow 1 holds a recycled object (now flow 2)", func() { n.flow(1) })
}

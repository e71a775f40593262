package exp

import (
	"fmt"
	"hash/fnv"
	"sync"

	"floodgate/internal/device"
)

// eagerVsLazy is the construction oracle: it runs f as is (devices minted
// on first touch) and again with every device of every cluster minted
// before anything is registered — the stand-alone device.New order — and
// returns what each rendered: f's tables, then one line per cluster with
// its device count and a digest of its FlowMetas. The two must be equal
// but for the device counts, which eager reports as the whole fabric. f
// must run its simulations serially (Parallelism 1): clusters are listed
// in the order they were built.
func eagerVsLazy(f func() []Table) (lazy, eager observed) {
	return observe(false, f), observe(true, f)
}

// observed is one side of the oracle: everything that must match, and
// the number of devices the side's clusters held at the end.
type observed struct {
	out     string
	devices int
}

func observe(eager bool, f func() []Table) observed {
	var mu sync.Mutex
	var clusters []*device.Cluster
	clusterBuilt = func(_ RunConfig, c *device.Cluster) {
		if eager {
			for _, n := range c.Nets {
				n.MintAll()
			}
		}
		mu.Lock()
		clusters = append(clusters, c)
		mu.Unlock()
	}
	defer func() { clusterBuilt = nil }()
	o := observed{out: renderAll(f())}
	for i, c := range clusters {
		h := fnv.New64a()
		metas := c.FlowMetas()
		fmt.Fprintf(h, "%+v", metas)
		o.out += fmt.Sprintf("cluster %d: %d flow metas %016x\n", i, len(metas), h.Sum64())
		for _, n := range c.Nets {
			for id := range n.Switches {
				if n.Switches[id] != nil || n.HostsByID[id] != nil {
					o.devices++
				}
			}
		}
	}
	return o
}

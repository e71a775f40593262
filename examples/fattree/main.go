// Fattree: the Fig 4 deadlock scenario on a 3-tier fabric — hosts in
// pod A blast a host in pod B while pod B blasts a host in pod A, with
// a deliberately tiny VOQ pool so destinations share queues. With VOQ
// grouping (the paper's fix) the aggregation switches split their pool
// between upstream and downstream traffic and every flow completes;
// without it, the hold-and-wait cycle can wedge the fabric.
package main

import (
	"flag"
	"fmt"

	"floodgate"
)

func main() {
	var scale = flag.Float64("scale", 0.5, "fabric scale in (0,1]")
	flag.Parse()

	o := floodgate.Options{Scale: *scale, Seed: 3}

	for _, grouping := range []bool{true, false} {
		c := floodgate.FatTree(4)
		c.HostRate = floodgate.BitRate(float64(c.HostRate) * *scale)
		c.FabricRate = c.HostRate
		c.Prop = floodgate.Duration(float64(c.Prop) / *scale)
		tp := c.Build()

		fg := floodgate.DefaultFloodgateConfig(64 * floodgate.KB)
		fg.MaxVOQs = 2 // fewer VOQs than incast destinations: forces sharing
		fg.VOQGrouping = grouping
		scheme := floodgate.WithFloodgateConfig(floodgate.DCQCN(o), fg, "+Floodgate")

		// Bidirectional cross-pod incast (Fig 4), with two victim hosts
		// per pod so upstream and downstream traffic must share VOQs at
		// the aggregation switches when grouping is off.
		podA := tp.Hosts[:4] // pod 0 (2 edges x 2 hosts)
		podB := tp.Hosts[4:8]
		var specs []floodgate.FlowSpec
		blast := func(srcs []floodgate.NodeID, dsts []floodgate.NodeID) {
			for _, dst := range dsts[:2] {
				for _, src := range srcs {
					specs = append(specs, floodgate.FlowSpec{
						Src: src, Dst: dst, Size: 200 * floodgate.KB, Cat: floodgate.CatIncast,
					})
				}
			}
		}
		blast(podA, podB)
		blast(podB, podA)

		res := floodgate.Run(floodgate.RunConfig{
			Topo: tp, Scheme: scheme, Specs: specs,
			Duration: 2 * floodgate.Millisecond,
			Drain:    200 * floodgate.Millisecond,
			Seed:     3, Opt: o,
		})

		avg, p99 := floodgate.FCTStats(res.Stats.FCTs(floodgate.CatIncast))
		fmt.Printf("VOQ grouping %-5v completed %d/%d  avgFCT %-10v p99 %-10v maxVOQs %d\n",
			grouping, res.Completed, res.Total, avg, p99, res.Stats.MaxVOQInUse)
	}
	fmt.Println(`
Grouping reserves VOQs per direction at the aggregation layer so upstream
and downstream traffic never share a queue — the paper's fix for the Fig 4
hold-and-wait cycle. (The cycle itself needs adversarial interleaving to
close; without grouping this workload merely risks it, it does not always
wedge.)`)
}

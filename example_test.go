package floodgate_test

import (
	"fmt"

	"floodgate"
)

// ExampleRun builds a small leaf–spine fabric, fires one 40:1 incast at
// it, and compares DCQCN with and without Floodgate — the paper's
// headline effect: last-hop buffer relief with the incast's own FCT
// intact.
func ExampleRun() {
	o := floodgate.Options{Scale: 0.25, Seed: 42}

	// A 2-tier fabric: scaled-down racks, 25/100 Gbps links.
	build := func() *floodgate.Topology {
		c := floodgate.DefaultLeafSpine()
		c.ToRs = 6
		c.HostsPerToR = 8
		c.Spines = 2
		c.HostRate = 25 * floodgate.Gbps
		c.SpineRate = 100 * floodgate.Gbps
		c.Prop = 2400 * floodgate.Nanosecond
		return c.Build()
	}

	for _, withFG := range []bool{false, true} {
		tp := build()
		scheme := floodgate.DCQCN(o)
		if withFG {
			scheme = floodgate.WithFloodgate(o, scheme, 64*floodgate.KB)
		}

		// Incast: every cross-rack host sends one 35-MTU flow to host 0
		// of the last rack, all at t=0.
		dst := tp.Hosts[len(tp.Hosts)-1]
		var specs []floodgate.FlowSpec
		for _, src := range floodgate.CrossRackSenders(tp, dst) {
			specs = append(specs, floodgate.FlowSpec{
				Src: src, Dst: dst, Size: 35 * 1500, Cat: floodgate.CatIncast,
			})
		}

		res := floodgate.Run(floodgate.RunConfig{
			Topo:     tp,
			Scheme:   scheme,
			Specs:    specs,
			Duration: 2 * floodgate.Millisecond,
			Drain:    50 * floodgate.Millisecond,
			Seed:     42,
			Opt:      o,
		})

		avg, p99 := floodgate.FCTStats(res.Stats.FCTs(floodgate.CatIncast))
		fmt.Printf("%-18s  flows %d/%d  avgFCT %-10v p99 %v\n",
			scheme.Name, res.Completed, res.Total, avg, p99)
		fmt.Printf("  max buffer: ToR-Up %-10v Core %-10v ToR-Down %-10v (VOQs used: %d)\n",
			res.Stats.MaxClassBuffer(floodgate.ClassToRUp),
			res.Stats.MaxClassBuffer(floodgate.ClassCore),
			res.Stats.MaxClassBuffer(floodgate.ClassToRDown),
			res.Stats.MaxVOQInUse)
	}
	fmt.Println("\nFloodgate parks the burst at the source ToRs (ToR-Up grows, Core/ToR-Down shrink).")
	// Output:
	// DCQCN               flows 40/40  avgFCT 629.1us    p99 705.1us
	//   max buffer: ToR-Up 114.2KB    Core 924.2KB    ToR-Down 1.859MB    (VOQs used: 0)
	// DCQCN+Floodgate     flows 40/40  avgFCT 655.5us    p99 705.1us
	//   max buffer: ToR-Up 162.2KB    Core 592.5KB    ToR-Down 352.7KB    (VOQs used: 1)
	//
	// Floodgate parks the burst at the source ToRs (ToR-Up grows, Core/ToR-Down shrink).
}

// ExampleNewTraceBuffer follows a 12:1 incast through the fabric with
// the flight recorder: segments get window-gated into a VOQ at the
// source ToR (PARK), credits flow back (CREDIT), and the parked bytes
// drain toward the destination.
func ExampleNewTraceBuffer() {
	c := floodgate.DefaultLeafSpine()
	c.ToRs = 3
	c.HostsPerToR = 6
	c.Spines = 2
	c.HostRate = 10 * floodgate.Gbps
	c.SpineRate = 40 * floodgate.Gbps
	c.Prop = 3000 * floodgate.Nanosecond
	tp := c.Build()

	// Keep the newest 64 parks, credits and drops of the run.
	buf := floodgate.NewTraceBuffer(64, floodgate.TraceFilter{
		Ops: map[floodgate.TraceOp]bool{
			floodgate.TracePark:   true,
			floodgate.TraceCredit: true,
			floodgate.TraceDrop:   true,
		},
	})

	net := floodgate.NewNetwork(floodgate.NetworkConfig{
		Topo:   tp,
		Engine: floodgate.NewEngine(),
		FC:     floodgate.NewFloodgate(floodgate.DefaultFloodgateConfig(30 * floodgate.KB)),
		Trace:  buf,
	})

	// A 12:1 incast: enough to exhaust the per-dst window at the spine
	// and source ToRs.
	dst := tp.Hosts[len(tp.Hosts)-1]
	for _, src := range floodgate.CrossRackSenders(tp, dst) {
		net.AddFlow(src, dst, 52*floodgate.KB, 0, floodgate.CatIncast)
	}
	net.Run(floodgate.Time(50 * floodgate.Millisecond))

	fmt.Printf("matched %d events; newest retained:\n\n", buf.Total())
	fmt.Print(buf.Dump())
	fmt.Println("\nPARK = packet held in a VOQ awaiting window; CREDIT = downstream replenishing it.")
	// Output:
	// matched 777 events; newest retained:
	//
	// 336.4us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=0    size=64
	// 336.8us      PARK   node=1    DATA       flow=5      seq=46464    dst=22   size=1500
	// 337.1us      PARK   node=1    DATA       flow=6      seq=46464    dst=22   size=1500
	// 337.4us      PARK   node=1    DATA       flow=1      seq=47916    dst=22   size=1500
	// 338.6us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 341us        CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 341.6us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 346.8us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=0    size=64
	// 347.3us      PARK   node=1    DATA       flow=3      seq=47916    dst=22   size=1500
	// 347.6us      PARK   node=1    DATA       flow=4      seq=47916    dst=22   size=1500
	// 347.9us      PARK   node=1    DATA       flow=5      seq=47916    dst=22   size=1500
	// 348.2us      PARK   node=1    DATA       flow=6      seq=47916    dst=22   size=1500
	// 349.2us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 351.9us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 352.2us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 357.6us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=0    size=64
	// 358.5us      PARK   node=1    DATA       flow=1      seq=49368    dst=22   size=1500
	// 358.8us      PARK   node=1    DATA       flow=1      seq=50820    dst=22   size=1228
	// 359.1us      PARK   node=1    DATA       flow=3      seq=49368    dst=22   size=1500
	// 360us        CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 362.5us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 363.1us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 369.3us      PARK   node=1    DATA       flow=3      seq=50820    dst=22   size=1228
	// 369.6us      PARK   node=1    DATA       flow=4      seq=49368    dst=22   size=1500
	// 369.9us      PARK   node=1    DATA       flow=4      seq=50820    dst=22   size=1228
	// 370.8us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 373.3us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 373.9us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 379.2us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=0    size=64
	// 380.2us      PARK   node=1    DATA       flow=5      seq=49368    dst=22   size=1500
	// 380.4us      PARK   node=1    DATA       flow=5      seq=50820    dst=22   size=1228
	// 380.7us      PARK   node=1    DATA       flow=6      seq=49368    dst=22   size=1500
	// 381us        PARK   node=1    DATA       flow=6      seq=50820    dst=22   size=1228
	// 381.6us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 383.8us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 384.1us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 392.1us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 394.6us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 394.9us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 402.9us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 405.2us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 405.5us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 413.7us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 416us        CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 416.3us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 424.5us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 426.8us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 427.4us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 435.3us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 437.6us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 438.5us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=9    size=64
	// 446.1us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 448.4us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 456.9us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 459.2us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 467.7us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 470us        CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 478.5us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 480.8us      CREDIT node=1    CREDIT     flow=0      seq=0        dst=2    size=64
	// 488.9us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 499.3us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 510.1us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 520.9us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	// 531.2us      CREDIT node=16   CREDIT     flow=0      seq=0        dst=1    size=64
	//
	// PARK = packet held in a VOQ awaiting window; CREDIT = downstream replenishing it.
}

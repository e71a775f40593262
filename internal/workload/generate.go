package workload

import (
	"math"
	"sort"

	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// FlowSpec is one pre-generated flow arrival.
type FlowSpec struct {
	Src, Dst packet.NodeID
	Size     units.ByteSize
	Start    units.Time
	Cat      packet.Category
}

// PoissonConfig drives the background-traffic generator.
type PoissonConfig struct {
	CDF  *CDF
	Load float64 // fraction of per-host line rate (§6: 0.8)
	// Hosts are the eligible endpoints; HostRate their line rate.
	Hosts    []packet.NodeID
	HostRate units.BitRate
	// ExcludeDst removes destinations (e.g. the incast victim) from the
	// receiver set while keeping them as senders.
	ExcludeDst map[packet.NodeID]bool
	Until      units.Duration
	// Categorize tags each flow (defaults to CatVictimPFC).
	Categorize func(src, dst packet.NodeID) packet.Category
}

// Poisson pre-generates open-loop background flows: exponential
// inter-arrivals at the aggregate rate Load·HostRate·N / meanSize,
// uniform random sender and receiver.
func Poisson(cfg PoissonConfig, r *sim.Rand) []FlowSpec {
	if cfg.Load <= 0 || cfg.Until <= 0 {
		return nil
	}
	receivers := make([]packet.NodeID, 0, len(cfg.Hosts))
	for _, h := range cfg.Hosts {
		if !cfg.ExcludeDst[h] {
			receivers = append(receivers, h)
		}
	}
	if len(receivers) == 0 || len(cfg.Hosts) < 2 {
		return nil
	}
	mean := cfg.CDF.Mean()
	// flows per second delivered across all receivers
	lambda := cfg.Load * float64(cfg.HostRate) * float64(len(receivers)) / (8 * mean)
	meanGapPs := float64(units.Second) / lambda
	// Reserve the Poisson count's mean plus 4σ: growing by append copies
	// a large result several times over (77.5 MB allocated to return
	// 15.7 MB on the ledger's Memcached churn).
	n := float64(cfg.Until) / meanGapPs
	specs := make([]FlowSpec, 0, int(n+4*math.Sqrt(n))+16)
	t := 0.0
	for {
		t += r.ExpFloat64() * meanGapPs
		if t >= float64(cfg.Until) {
			break
		}
		src := cfg.Hosts[r.Intn(len(cfg.Hosts))]
		dst := receivers[r.Intn(len(receivers))]
		for dst == src {
			dst = receivers[r.Intn(len(receivers))]
		}
		cat := packet.CatVictimPFC
		if cfg.Categorize != nil {
			cat = cfg.Categorize(src, dst)
		}
		specs = append(specs, FlowSpec{
			Src: src, Dst: dst, Size: cfg.CDF.Sample(r),
			Start: units.Time(t), Cat: cat,
		})
	}
	return specs
}

// IncastConfig drives the periodic incast generator (§6: flows of
// 30–40 MTU, destination load 0.5).
type IncastConfig struct {
	Dst     packet.NodeID
	Senders []packet.NodeID // candidate senders (excluding Dst's rack typically)
	Degree  int             // senders per incast event
	MinSize units.ByteSize  // 30 MTU
	MaxSize units.ByteSize  // 40 MTU
	Load    float64         // average load on the destination link (0.5)
	DstRate units.BitRate
	Until   units.Duration
}

// Incast pre-generates periodic incast events: every interval, Degree
// senders simultaneously start one flow to Dst. The interval is sized
// so the destination link averages Load.
func Incast(cfg IncastConfig, r *sim.Rand) []FlowSpec {
	// Zero sizes or rate would make the event interval zero and the
	// generation loop below endless — treat them as unset, like Degree.
	if cfg.Degree <= 0 || cfg.Load <= 0 || len(cfg.Senders) == 0 ||
		cfg.MinSize+cfg.MaxSize <= 0 || cfg.DstRate <= 0 {
		return nil
	}
	if cfg.Degree > len(cfg.Senders) {
		cfg.Degree = len(cfg.Senders)
	}
	meanSize := float64(cfg.MinSize+cfg.MaxSize) / 2
	eventBytes := meanSize * float64(cfg.Degree)
	intervalPs := eventBytes * 8 * float64(units.Second) / (cfg.Load * float64(cfg.DstRate))
	var specs []FlowSpec
	for t := 0.0; t < float64(cfg.Until); t += intervalPs {
		perm := r.Perm(len(cfg.Senders))
		for i := 0; i < cfg.Degree; i++ {
			size := cfg.MinSize + units.ByteSize(r.Int63n(int64(cfg.MaxSize-cfg.MinSize)+1))
			specs = append(specs, FlowSpec{
				Src: cfg.Senders[perm[i]], Dst: cfg.Dst, Size: size,
				Start: units.Time(t), Cat: packet.CatIncast,
			})
		}
	}
	return specs
}

// SuccessiveIncast generates the Fig 15 pattern: Times incast events
// aimed at distinct destination hosts, spaced by Gap, each with every
// host (except the victim) sending one 30–40 MTU flow.
func SuccessiveIncast(hosts []packet.NodeID, times int, gap units.Duration, minSize, maxSize units.ByteSize, r *sim.Rand) []FlowSpec {
	var specs []FlowSpec
	for i := 0; i < times; i++ {
		dst := hosts[i%len(hosts)]
		start := units.Time(int64(i) * int64(gap))
		for _, src := range hosts {
			if src == dst {
				continue
			}
			size := minSize + units.ByteSize(r.Int63n(int64(maxSize-minSize)+1))
			specs = append(specs, FlowSpec{Src: src, Dst: dst, Size: size, Start: start, Cat: packet.CatIncast})
		}
	}
	return specs
}

// Merge combines spec lists into one, sorted by start time (stable
// across inputs of equal time).
func Merge(lists ...[]FlowSpec) []FlowSpec {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	all := make([]FlowSpec, 0, n)
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// RackVictimCategorizer tags Poisson flows whose destination shares
// the incast destination's rack as victims of incast; the rest are
// (potential) victims of PFC spreading — the paper's Fig 2/9 split.
func RackVictimCategorizer(tp *topo.Topology, incastDst packet.NodeID) func(src, dst packet.NodeID) packet.Category {
	rack := tp.Node(incastDst).Rack
	return func(src, dst packet.NodeID) packet.Category {
		if tp.Node(dst).Rack == rack {
			return packet.CatVictimIncast
		}
		return packet.CatVictimPFC
	}
}

// CrossRackSenders returns every host outside dst's rack, in host
// order, in one exactly sized slice (nil when there is none).
func CrossRackSenders(tp *topo.Topology, dst packet.NodeID) []packet.NodeID {
	rack := tp.Node(dst).Rack
	n := 0
	for _, h := range tp.Hosts {
		if tp.Node(h).Rack != rack {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]packet.NodeID, 0, n)
	for _, h := range tp.Hosts {
		if tp.Node(h).Rack != rack {
			out = append(out, h)
		}
	}
	return out
}

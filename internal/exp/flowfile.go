package exp

import (
	"fmt"
	"path/filepath"

	"floodgate/internal/packet"
	"floodgate/internal/stats"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// RunFlowFile replays an NDJSON flow file (see workload.SpecReader for
// the format) against DCQCN and DCQCN+Floodgate on the standard
// leaf-spine fabric and reports per-scheme FCT and goodput. The file
// is streamed straight into flow registration — it is never held in
// memory, so replay capacity is bounded by the simulator, not the
// spec list. The workload window is the last spec's start plus one
// incast-mix window; the default drain covers laggards.
func RunFlowFile(path string, o Options) ([]Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.norm()
	// One cheap pass for the workload window (max start); the replay
	// passes stream again from disk.
	sr, err := workload.OpenSpecFile(path)
	if err != nil {
		return nil, err
	}
	tp := o.leafSpine()
	var lastStart units.Time
	n := 0
	for {
		s, ok, err := sr.Next()
		if err != nil {
			sr.Close()
			return nil, err
		}
		if !ok {
			break
		}
		n++
		// Endpoints must name hosts of the replay fabric; a hand-written
		// file with a switch or out-of-range ID fails here, not as a
		// panic mid-run.
		for _, ep := range [2]packet.NodeID{s.Src, s.Dst} {
			if int(ep) >= len(tp.Nodes) || tp.Node(ep).Kind != topo.HostNode {
				sr.Close()
				return nil, fmt.Errorf("exp: flow file %s: spec %d endpoint %d is not a host of the scale-%g fabric (hosts are %d..%d)",
					path, n, ep, o.Scale, tp.Hosts[0], tp.Hosts[len(tp.Hosts)-1])
			}
		}
		lastStart = s.Start
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("exp: flow file %s has no specs", path)
	}
	dur := lastStart.Add(o.duration(fullIncastMixDuration))
	label := filepath.Base(path)
	t := Table{
		Title:  fmt.Sprintf("Flow-file replay: %s (%d flows)", label, n),
		Header: []string{"scheme", "completed", "goodput", "avgFCT", "p99FCT"},
	}
	schemes := schemePair(o, DCQCN, tp)
	t.Rows = runJobs(o, len(schemes), func(i int) []string {
		src, err := workload.OpenSpecFile(path)
		if err != nil {
			panic(fmt.Sprintf("exp: reopening flow file: %v", err))
		}
		defer src.Close()
		res := Run(RunConfig{
			Topo: tp, Scheme: schemes[i],
			Source: src, SourceLabel: label,
			Duration: units.Duration(dur),
			Seed:     o.Seed, Opt: o,
		})
		avg, p99 := stats.FCTStats(res.Stats.AllFCTs())
		return []string{schemes[i].Name,
			fmt.Sprintf("%d/%d", res.Completed, res.Total),
			fmtRate(units.Rate(res.DeliveredBytes(), units.Duration(dur))),
			fmtDur(avg), fmtDur(p99)}
	})
	t.Comment = "adhoc replay of an external flow schedule (floodsim -flows-from)"
	return []Table{t}, nil
}

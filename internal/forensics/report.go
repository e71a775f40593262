package forensics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"floodgate/internal/packet"
	"floodgate/internal/stats"
	"floodgate/internal/units"
)

// FlowMeta is the identity of one flow, supplied by the experiment
// layer (the recorder itself never sees flow objects).
type FlowMeta struct {
	ID    packet.FlowID
	Src   packet.NodeID
	Dst   packet.NodeID
	Size  units.ByteSize
	Start units.Time
	FCT   units.Duration // zero unless Done; the finish is Start + FCT
	Done  bool
	// Attempt is the application-plane attempt number (0 for open-loop
	// flows, 1 for original requests/responses, 2+ for retries and
	// hedges) — the causal tag retry-amplification analysis keys on.
	Attempt int
}

// FlowBudget is one flow's completion-time attribution.
type FlowBudget struct {
	FlowMeta
	Comp   [NumComps]units.Duration
	Parked units.Duration // total parked time over all segments
}

// Report is the merged, deterministic forensic result of one run.
type Report struct {
	Flows       []FlowBudget // in FlowID order
	Episodes    []Episode    // sorted by (Start, Switch, Dst, End)
	TotalParked units.Duration
}

// BuildReport merges the per-shard recorders into one report. Each
// budget component of a flow is written by exactly one shard (sender
// states by the source host's shard, hop/VOQ stamps by the owning
// switch's shard) or accumulates additively, so the merge is an
// element-wise sum; episodes are concatenated and sorted by a total
// key. The result is therefore identical for any shard partition.
func BuildReport(recs []*Recorder, metas []FlowMeta) *Report {
	rep := &Report{Flows: make([]FlowBudget, 0, len(metas))}
	for _, meta := range metas {
		fb := FlowBudget{FlowMeta: meta}
		for _, r := range recs {
			if int(meta.ID) >= len(r.flows) {
				continue
			}
			a := &r.flows[meta.ID]
			for c := range fb.Comp {
				fb.Comp[c] += a.comp[c]
			}
			fb.Parked += a.parked
		}
		rep.TotalParked += fb.Parked
		if meta.Done {
			var sum units.Duration
			for c := CompSerialization; c < CompWire; c++ {
				sum += fb.Comp[c]
			}
			if wire := fb.FCT - sum; wire > 0 {
				fb.Comp[CompWire] = wire
			}
		}
		rep.Flows = append(rep.Flows, fb)
	}
	for _, r := range recs {
		for i := range r.episodes {
			ep := r.episodes[i]
			ep.Victims = append([]packet.FlowID(nil), ep.Victims...)
			sort.Slice(ep.Victims, func(a, b int) bool { return ep.Victims[a] < ep.Victims[b] })
			ep.victimSet = nil
			rep.Episodes = append(rep.Episodes, ep)
		}
	}
	eps := rep.Episodes
	sort.Slice(eps, func(a, b int) bool {
		if eps[a].Start != eps[b].Start {
			return eps[a].Start < eps[b].Start
		}
		if eps[a].Switch != eps[b].Switch {
			return eps[a].Switch < eps[b].Switch
		}
		if eps[a].Dst != eps[b].Dst {
			return eps[a].Dst < eps[b].Dst
		}
		return eps[a].End < eps[b].End
	})
	return rep
}

// WriteNDJSON renders the report as newline-delimited JSON: one meta
// line, one line per flow, one line per episode. All values are
// integers (picoseconds, bytes, ids) — no floats, so the bytes are
// identical across shard counts, schedulers and parallelism.
func (rep *Report) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"type":"meta","flows":%d,"episodes":%d,"total_parked_ps":%d}`+"\n",
		len(rep.Flows), len(rep.Episodes), int64(rep.TotalParked))
	for i := range rep.Flows {
		f := &rep.Flows[i]
		var finish units.Time
		if f.Done {
			finish = f.Start.Add(f.FCT)
		}
		fmt.Fprintf(bw, `{"type":"flow","flow":%d,"src":%d,"dst":%d,"size":%d,"start_ps":%d,"finish_ps":%d,"done":%t,"attempt":%d,"fct_ps":%d`,
			f.ID, f.Src, f.Dst, int64(f.Size), int64(f.Start), int64(finish), f.Done, f.Attempt, int64(f.FCT))
		for c := CompSerialization; c < NumComps; c++ {
			fmt.Fprintf(bw, `,"%s_ps":%d`, compNames[c], int64(f.Comp[c]))
		}
		fmt.Fprintf(bw, `,"parked_ps":%d}`+"\n", int64(f.Parked))
	}
	for i := range rep.Episodes {
		ep := &rep.Episodes[i]
		fmt.Fprintf(bw, `{"type":"episode","switch":%d,"dst":%d,"start_ps":%d,"end_ps":%d,"open":%t,"peak_parked_bytes":%d,"victims":[`,
			ep.Switch, ep.Dst, int64(ep.Start), int64(ep.End), ep.Open(), int64(ep.PeakParked))
		for j, v := range ep.Victims {
			if j > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%d", v)
		}
		bw.WriteString("]}\n")
	}
	return bw.Flush()
}

// Quantile is a pair of nearest-rank quantiles.
type Quantile struct{ P50, P99 units.Duration }

// ComponentQuantiles returns per-component nearest-rank p50/p99 over
// the completed flows.
func (rep *Report) ComponentQuantiles() [NumComps]Quantile {
	var out [NumComps]Quantile
	var vals []units.Duration
	for c := CompSerialization; c < NumComps; c++ {
		vals = vals[:0]
		for i := range rep.Flows {
			if rep.Flows[i].Done {
				vals = append(vals, rep.Flows[i].Comp[c])
			}
		}
		if len(vals) == 0 {
			continue
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		out[c] = Quantile{P50: stats.NearestRank(vals, 500), P99: stats.NearestRank(vals, 990)}
	}
	return out
}

// Summary renders the human-readable "why was p99 slow" digest: the
// p99-FCT flow's budget with percentage shares, plus episode totals.
func (rep *Report) Summary() string {
	var sb strings.Builder
	done := 0
	for i := range rep.Flows {
		if rep.Flows[i].Done {
			done++
		}
	}
	fmt.Fprintf(&sb, "forensics: %d flows (%d done), %d incast episodes, total parked %v\n",
		len(rep.Flows), done, len(rep.Episodes), rep.TotalParked)
	if done == 0 {
		sb.WriteString("no completed flows: nothing to attribute\n")
		return sb.String()
	}
	// p99 by (FCT, ID): the deterministic tie-break keeps the chosen
	// flow identical across executions.
	idx := make([]int, 0, done)
	for i := range rep.Flows {
		if rep.Flows[i].Done {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		fa, fb := &rep.Flows[idx[a]], &rep.Flows[idx[b]]
		if fa.FCT != fb.FCT {
			return fa.FCT < fb.FCT
		}
		return fa.ID < fb.ID
	})
	r := (99*len(idx) + 99) / 100
	if r < 1 {
		r = 1
	}
	p99 := &rep.Flows[idx[r-1]]
	fmt.Fprintf(&sb, "p99 flow %d (%d -> %d, %v): FCT %v\n", p99.ID, p99.Src, p99.Dst, p99.Size, p99.FCT)
	// Components in descending share, stable by component order.
	order := make([]Comp, 0, NumComps)
	for c := CompSerialization; c < NumComps; c++ {
		if p99.Comp[c] > 0 {
			order = append(order, c)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return p99.Comp[order[a]] > p99.Comp[order[b]] })
	for _, c := range order {
		pct10 := int64(0)
		if p99.FCT > 0 {
			pct10 = int64(p99.Comp[c]) * 1000 / int64(p99.FCT)
		}
		fmt.Fprintf(&sb, "  %-14s %12v  %3d.%d%%\n", c, p99.Comp[c], pct10/10, pct10%10)
	}
	if len(rep.Episodes) > 0 {
		var peak units.ByteSize
		var longest units.Duration
		li := 0
		for i := range rep.Episodes {
			ep := &rep.Episodes[i]
			if ep.PeakParked > peak {
				peak = ep.PeakParked
			}
			if !ep.Open() {
				if d := ep.End.Sub(ep.Start); d > longest {
					longest = d
					li = i
				}
			}
		}
		ep := &rep.Episodes[li]
		fmt.Fprintf(&sb, "episodes: peak parked %v; longest %v at switch %d (dst %d, %d victims)\n",
			peak, longest, ep.Switch, ep.Dst, len(ep.Victims))
	}
	return sb.String()
}

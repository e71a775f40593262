package topo

import (
	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Partition assigns every node to one of k shards for the sharded
// conservative-window executor. The cut is chosen so that no host-ToR
// link ever crosses a shard boundary: ToRs are dealt round-robin in ID
// order, each host follows its ToR, and the remaining switches (agg,
// core) are dealt round-robin over their own ID order. Only
// switch-switch links cross shards, which is what lets Lookahead bound
// the barrier window by the minimum switch-switch wire latency.
//
// The assignment is a pure function of (topology, k): byte-identical
// runs at any GOMAXPROCS depend on it. One shard (k <= 1) needs no
// table: Partition returns nil, which places every node on shard 0.
func Partition(t *Topology, k int) []int {
	if k <= 1 {
		return nil
	}
	assign := make([]int, len(t.Nodes))
	nextToR, nextUpper := 0, 0
	for i := range t.Nodes {
		switch n := &t.Nodes[i]; {
		case n.Kind == HostNode:
			// Hosts are assigned after their ToR below; a host's single
			// port faces its ToR, whose ID may be larger, so defer.
			assign[n.ID] = -1
		case n.Layer == LayerToR:
			assign[n.ID] = nextToR % k
			nextToR++
		default:
			assign[n.ID] = nextUpper % k
			nextUpper++
		}
	}
	for _, id := range t.Hosts {
		assign[id] = assign[t.Nodes[id].Ports[0].Peer]
	}
	return assign
}

// Lookahead returns the conservative barrier-window length for the
// sharded executor: the minimum, over every switch-switch link, of
// propagation delay plus the serialization time of the smallest frame
// the fabric emits (packet.MinFrameSize — an NDP-trimmed header, not a
// control packet). A frame emitted inside a window at time t > u
// reaches the far shard strictly after u + Lookahead, so shards that
// exchange frames only at window boundaries never receive one late.
//
// Host-ToR links never cross shards under Partition, so they do not
// constrain the window. A degenerate topology with no switch-switch
// links falls back to the minimum over all links.
func Lookahead(t *Topology) units.Duration {
	var all, switches units.Duration
	for i := range t.ports {
		p := &t.ports[i]
		d := p.Prop + units.TxTime(packet.MinFrameSize, p.Rate)
		if all == 0 || d < all {
			all = d
		}
		if t.Nodes[p.Owner].Kind == SwitchNode && t.Nodes[p.Peer].Kind == SwitchNode && (switches == 0 || d < switches) {
			switches = d
		}
	}
	if switches > 0 {
		return switches
	}
	return all
}

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
// runs at any GOMAXPROCS depend on it.
func Partition(t *Topology, k int) []int {
	if k < 1 {
		k = 1
	}
	assign := make([]int, len(t.Nodes))
	nextToR, nextUpper := 0, 0
	for _, n := range t.Nodes {
		switch {
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
		n := t.Nodes[id]
		tor := n.Ports[0].Peer
		assign[id] = assign[tor]
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
	minLatency := func(switchLinksOnly bool) units.Duration {
		min := units.Duration(0)
		for _, n := range t.Nodes {
			for i := range n.Ports {
				p := &n.Ports[i]
				if switchLinksOnly && (n.Kind == HostNode || p.Class == ClassHost || t.Nodes[p.Peer].Kind == HostNode) {
					continue
				}
				d := p.Prop + units.TxTime(packet.MinFrameSize, p.Rate)
				if min == 0 || d < min {
					min = d
				}
			}
		}
		return min
	}
	if l := minLatency(true); l > 0 {
		return l
	}
	return minLatency(false)
}

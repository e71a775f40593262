package topo

import (
	"fmt"
	"unsafe"

	"floodgate/internal/packet"
)

// swEntry is one node's complete routing state: the contiguous
// dense-host-index range below it, the layout of its down ports (base
// index + uniform hosts-per-child stride), and its up-port index range.
// 24 bytes per node, independent of host count.
type swEntry struct {
	hostLo, hostHi int32 // dense host indexes reachable below this node: [lo, hi)
	downBase       int32 // port index of the first down port
	stride         int32 // hosts per down-subtree; 0 marks a host node
	upLo, upHi     int32 // up-port index range [upLo, upHi)
}

// router answers "which egress ports lead from node n toward host
// hostIdx" — the one query the device layer makes per forwarded packet
// — by index arithmetic. At node n toward host hi: if hi lies in n's
// subtree range, the unique down port is downBase + (hi-hostLo)/stride;
// otherwise the candidates are n's full up-port set. Returned slices
// are windows into one shared [0,1,2,...] arena — a port set's values
// are exactly its indices — so nextPorts never allocates and total
// memory is O(nodes) records plus O(max ports per node) arena. The
// per-(node, host) BFS tables it replaced are the test oracle
// (router_test.go): both give the identical ordered candidate set at
// every pair, so ECMP's pairHash selection is unchanged.
type router struct {
	sw    []swEntry
	ports []int // shared arena: ports[i] == i
}

// nextPorts returns the shortest-path egress port indices at node n
// toward the host with dense index hostIdx, in ascending port order.
func (r *router) nextPorts(n packet.NodeID, hostIdx int) []int {
	e := &r.sw[n]
	if hi := int32(hostIdx); hi >= e.hostLo && hi < e.hostHi {
		if e.stride == 0 { // n is the destination host itself
			return r.ports[:0]
		}
		j := e.downBase + (hi-e.hostLo)/e.stride
		return r.ports[j : j+1 : j+1]
	}
	return r.ports[e.upLo:e.upHi:e.upHi]
}

// bytes reports the router's resident memory.
func (r *router) bytes() int64 {
	return int64(unsafe.Sizeof(swEntry{}))*int64(len(r.sw)) + 8*int64(len(r.ports))
}

// The four structural checks newRouter runs, named in its panics.
const (
	checkLayering = "strict layering"
	checkUpPrefix = "up-prefix port layout"
	checkSubtrees = "consecutive uniform subtrees"
	checkUpCover  = "symmetric up coverage"
)

// newRouter derives per-switch routing records from a built topology,
// verifying on the way that the fabric has the regular Clos shape the
// arithmetic needs. The checks are exactly the assumptions under which
// the arithmetic reproduces the BFS oracle's ordered candidate sets:
//
//  1. Strict layering: every link joins different layers, so "up" and
//     "down" are well defined and down always moves toward hosts.
//  2. Up-prefix port layout: each node's up ports occupy indices
//     [0, u) and its down ports [u, len) — true of every builder
//     because switches connect upward before attaching children. BFS
//     emits candidates in ascending port order, so the up set being a
//     contiguous prefix makes the arena window order-identical.
//  3. Consecutive uniform subtrees: scanning a node's down ports in
//     index order, the children cover consecutive dense host ranges of
//     one common size (the stride), so the down port for a host is
//     unique and computable by division.
//  4. Symmetric up coverage: all of a node's up-peers cover identical
//     host ranges that contain the node's own, so every up port is
//     equal-cost toward any host outside the subtree — the ECMP set is
//     the full up-port set, matching BFS.
//
// No exported builder can fail them, whatever its parameters; a fabric
// that does panics naming the check.
func newRouter(t *Topology) router {
	broken := func(check, format string, args ...any) {
		panic(fmt.Sprintf("topo: structural check %q failed: ", check) + fmt.Sprintf(format, args...))
	}
	n := len(t.Nodes)
	r := router{sw: make([]swEntry, n)}
	maxPorts := 0
	// Pass 1: classify ports and check the up-prefix layout (1, 2).
	upCount := make([]int, n)
	for _, node := range t.Nodes {
		maxPorts = max(maxPorts, len(node.Ports))
		u := 0
		for i, p := range node.Ports {
			peer := t.Nodes[p.Peer]
			switch {
			case peer.Layer > node.Layer: // up
				if i != u {
					broken(checkUpPrefix, "%s port %d is an up port after a down port", node.Name(), i)
				}
				u++
			case peer.Layer == node.Layer:
				broken(checkLayering, "%s port %d links within layer %s", node.Name(), i, node.Layer)
			}
		}
		upCount[node.ID] = u
	}
	// Pass 2: subtree host ranges bottom-up, layer by layer (3).
	done := make([]bool, n)
	for _, node := range t.Nodes {
		if node.Kind == HostNode {
			hi := int32(t.hostIdx[node.ID])
			r.sw[node.ID] = swEntry{hostLo: hi, hostHi: hi + 1, upHi: int32(len(node.Ports))}
			done[node.ID] = true
		}
	}
	for layer := LayerToR; layer <= LayerCore; layer++ {
		for _, node := range t.Nodes {
			if node.Layer != layer || node.Kind == HostNode {
				continue
			}
			u := upCount[node.ID]
			e := swEntry{downBase: int32(u), upHi: int32(u)}
			for _, p := range node.Ports[u:] {
				if !done[p.Peer] {
					broken(checkLayering, "%s has a down link skipping a layer to %s", node.Name(), t.Nodes[p.Peer].Name())
				}
				c := r.sw[p.Peer]
				size := c.hostHi - c.hostLo
				if size <= 0 {
					broken(checkSubtrees, "%s subtree under %s holds no hosts", node.Name(), t.Nodes[p.Peer].Name())
				}
				if e.stride == 0 {
					e.hostLo, e.hostHi, e.stride = c.hostLo, c.hostHi, size
					continue
				}
				if c.hostLo != e.hostHi || size != e.stride {
					broken(checkSubtrees, "%s down subtrees are not consecutive uniform host ranges", node.Name())
				}
				e.hostHi = c.hostHi
			}
			if e.stride == 0 { // no down ports at all: an isolated switch
				broken(checkSubtrees, "switch %s has no down ports", node.Name())
			}
			r.sw[node.ID] = e
			done[node.ID] = true
		}
	}
	// Pass 3: symmetric up coverage (4).
	for _, node := range t.Nodes {
		e := r.sw[node.ID]
		var lo, hi int32
		for i := 0; i < upCount[node.ID]; i++ {
			p := r.sw[node.Ports[i].Peer]
			if i == 0 {
				lo, hi = p.hostLo, p.hostHi
			} else if p.hostLo != lo || p.hostHi != hi {
				broken(checkUpCover, "%s up-peers cover unequal host ranges", node.Name())
			}
			if p.hostLo > e.hostLo || p.hostHi < e.hostHi {
				broken(checkUpCover, "%s up-peer %s does not cover its subtree", node.Name(), t.Nodes[node.Ports[i].Peer].Name())
			}
		}
	}
	r.ports = make([]int, maxPorts)
	for i := range r.ports {
		r.ports[i] = i
	}
	return r
}

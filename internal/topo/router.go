package topo

import (
	"fmt"
	"unsafe"

	"floodgate/internal/packet"
)

// swEntry is one switch's complete routing state: the contiguous
// dense-host-index range below it, the layout of its down ports (base
// index + uniform hosts-per-child stride), and its up-port index range.
// 24 bytes per switch, independent of host count.
type swEntry struct {
	hostLo, hostHi int32 // dense host indexes reachable below this switch: [lo, hi)
	downBase       int32 // port index of the first down port
	stride         int32 // hosts per down-subtree
	upLo, upHi     int32 // up-port index range [upLo, upHi)
}

// router answers "which egress ports lead from node n toward host
// hostIdx" — the one query the device layer makes per forwarded packet
// — by index arithmetic. At switch n toward host hi: if hi lies in n's
// subtree range, the unique down port is downBase + (hi-hostLo)/stride;
// otherwise the candidates are n's full up-port set. A host's only
// route is its one port. Returned slices are windows into one shared
// [0,1,2,...] arena — a port set's values are exactly its indices — so
// nextPorts never allocates and total memory is one int32 per node, one
// record per switch and O(max ports per node) arena. The per-(node,
// host) BFS tables it replaced are the test oracle (router_test.go):
// both give the identical ordered candidate set at every pair, so
// ECMP's pairHash selection is unchanged.
type router struct {
	node  []int32   // by NodeID: a switch's index into sw, or ^(dense host index) for a host
	sw    []swEntry // one per switch, in NodeID order
	ports []int     // shared arena: ports[i] == i
}

// nextPorts returns the shortest-path egress port indices at node n
// toward the host with dense index hostIdx, in ascending port order.
func (r *router) nextPorts(n packet.NodeID, hostIdx int) []int {
	x := r.node[n]
	if x < 0 { // a host: its one port, unless it is the destination itself
		if int(^x) == hostIdx {
			return r.ports[:0]
		}
		return r.ports[:1:1]
	}
	e := &r.sw[x]
	if hi := int32(hostIdx); hi >= e.hostLo && hi < e.hostHi {
		j := e.downBase + (hi-e.hostLo)/e.stride
		return r.ports[j : j+1 : j+1]
	}
	return r.ports[e.upLo:e.upHi:e.upHi]
}

// hostIndex returns node id's dense host index, or -1 for a switch or an
// ID outside the topology.
func (r *router) hostIndex(id packet.NodeID) int {
	if uint(id) < uint(len(r.node)) && r.node[id] < 0 {
		return int(^r.node[id])
	}
	return -1
}

// bytes reports the router's resident memory.
func (r *router) bytes() int64 {
	return 4*int64(len(r.node)) + int64(unsafe.Sizeof(swEntry{}))*int64(len(r.sw)) + 8*int64(len(r.ports))
}

// The five structural checks newRouter runs, named in its panics.
const (
	checkLayering = "strict layering"
	checkUpPrefix = "up-prefix port layout"
	checkSubtrees = "consecutive uniform subtrees"
	checkUpCover  = "symmetric up coverage"
	checkHomed    = "single-homed hosts"
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
//  5. Single-homed hosts: a host has exactly one port, so it needs no
//     record of its own.
//
// No exported builder can fail them, whatever its parameters; a fabric
// that does panics naming the check.
func newRouter(t *Topology) router {
	broken := func(check, format string, args ...any) {
		panic(fmt.Sprintf("topo: structural check %q failed: ", check) + fmt.Sprintf(format, args...))
	}
	n := len(t.Nodes)
	r := router{node: make([]int32, n), sw: make([]swEntry, 0, n-len(t.Hosts))}
	// hostRange is node id's dense host range: one index for a host, the
	// subtree for a switch (empty while it is not placed yet).
	hostRange := func(id packet.NodeID) (lo, hi int32) {
		if x := r.node[id]; x < 0 {
			return ^x, ^x + 1
		}
		e := &r.sw[r.node[id]]
		return e.hostLo, e.hostHi
	}
	maxPorts := 0
	// Pass 1: classify ports and check the up-prefix layout (1, 2, 5).
	// Hosts take dense indexes in ID order (hostIndex reads them back); a
	// switch's up-port count u is its upHi and downBase.
	var hostIdx int32
	for id := range t.Nodes {
		node := &t.Nodes[id]
		maxPorts = max(maxPorts, len(node.Ports))
		var u int32
		for i, p := range node.Ports {
			switch peer := t.Nodes[p.Peer].Layer; {
			case peer > node.Layer: // up
				if int32(i) != u {
					broken(checkUpPrefix, "%s port %d is an up port after a down port", node.Name(), i)
				}
				u++
			case peer == node.Layer:
				broken(checkLayering, "%s port %d links within layer %s", node.Name(), i, node.Layer)
			}
		}
		if node.Kind == HostNode {
			if len(node.Ports) != 1 {
				broken(checkHomed, "%s has %d ports", node.Name(), len(node.Ports))
			}
			r.node[id] = ^hostIdx
			hostIdx++
			continue
		}
		r.node[id] = int32(len(r.sw))
		r.sw = append(r.sw, swEntry{downBase: u, upHi: u})
	}
	// Pass 2: subtree host ranges bottom-up, layer by layer (3).
	for layer := LayerToR; layer <= LayerCore; layer++ {
		for id := range t.Nodes {
			node := &t.Nodes[id]
			if node.Layer != layer || node.Kind == HostNode {
				continue
			}
			e := &r.sw[r.node[id]]
			for _, p := range node.Ports[e.upHi:] {
				lo, hi := hostRange(p.Peer)
				size := hi - lo
				if size <= 0 {
					broken(checkLayering, "%s has a down link skipping a layer to %s", node.Name(), t.Nodes[p.Peer].Name())
				}
				if e.stride == 0 {
					e.hostLo, e.hostHi, e.stride = lo, hi, size
					continue
				}
				if lo != e.hostHi || size != e.stride {
					broken(checkSubtrees, "%s down subtrees are not consecutive uniform host ranges", node.Name())
				}
				e.hostHi = hi
			}
			if e.stride == 0 { // no down ports at all: an isolated switch
				broken(checkSubtrees, "switch %s has no down ports", node.Name())
			}
		}
	}
	// Pass 3: symmetric up coverage (4). Every port of a host is up, as
	// every up port of a switch lies below upHi.
	for id := range t.Nodes {
		node := &t.Nodes[id]
		ownLo, ownHi := hostRange(node.ID)
		ups := node.Ports
		if x := r.node[id]; x >= 0 {
			ups = ups[:r.sw[x].upHi]
		}
		var lo, hi int32
		for i, up := range ups {
			pLo, pHi := hostRange(up.Peer)
			if i == 0 {
				lo, hi = pLo, pHi
			} else if pLo != lo || pHi != hi {
				broken(checkUpCover, "%s up-peers cover unequal host ranges", node.Name())
			}
			if pLo > ownLo || pHi < ownHi {
				broken(checkUpCover, "%s up-peer %s does not cover its subtree", node.Name(), t.Nodes[up.Peer].Name())
			}
		}
	}
	r.ports = make([]int, maxPorts)
	for i := range r.ports {
		r.ports[i] = i
	}
	return r
}

package topo

import (
	"fmt"
	"unsafe"

	"floodgate/internal/packet"
)

// Router answers "which egress ports lead from node n toward host
// hostIdx" — the one query the device layer makes per forwarded
// packet. Two implementations exist:
//
//   - StructuralRouter: O(1) index arithmetic over per-switch records,
//     total memory O(total ports). Chosen at freeze() whenever the
//     fabric is a recognisably regular Clos (leaf-spine, fat tree,
//     multi-pod Clos) — which is every built-in builder.
//   - DenseRouter: the original per-(node, host) BFS tables,
//     O(nodes × hosts) memory. Kept as the fallback for irregular
//     topologies (the DPDK testbed mirror, faulted-asymmetric
//     validation fabrics) and as the oracle the equivalence suite
//     checks the structural router against.
//
// Both return the identical ordered candidate set at every
// (node, host) pair — ascending port index — so ECMP's pairHash
// selection, and therefore every experiment table, is bit-identical
// regardless of which router a topology froze with.
type Router interface {
	// NextPorts returns the shortest-path egress port indices at node
	// n toward the host with dense index hostIdx, in ascending port
	// order. Empty only when n is that host (or n cannot reach it).
	// The returned slice is shared and immutable: callers must not
	// modify it.
	NextPorts(n packet.NodeID, hostIdx int) []int
	// Bytes is the router's resident memory (structs + backing
	// arrays), the route_bytes scale gauge.
	Bytes() int64
	// Kind names the implementation: "structural" or "dense".
	Kind() string
}

// DenseRouter precomputes every (node, host) candidate set with one
// reverse BFS per host. Memory is O(nodes × hosts) slice headers plus
// the candidate entries themselves — fine to a few thousand hosts,
// hundreds of GB at datacenter scale.
type DenseRouter struct {
	routes [][][]int // [nodeID][hostIdx] -> candidate egress port indices
	bytes  int64
}

// NewDenseRouter runs the BFS table build for t.
func NewDenseRouter(t *Topology) *DenseRouter {
	n := len(t.Nodes)
	r := &DenseRouter{routes: make([][][]int, n)}
	for i := range r.routes {
		r.routes[i] = make([][]int, len(t.Hosts))
	}
	dist := make([]int, n)
	queue := make([]packet.NodeID, 0, n)
	totalPorts := 0
	for _, node := range t.Nodes {
		totalPorts += len(node.Ports)
	}
	entries := 0
	for hi, h := range t.Hosts {
		arena := bfsColumn(t, h, dist, queue, func(node packet.NodeID, ports []int) {
			r.routes[node][hi] = ports
		})
		entries += arena
	}
	const sliceHeader = int64(unsafe.Sizeof([]int{}))
	r.bytes = sliceHeader*int64(n) + // outer [nodeID] headers
		sliceHeader*int64(n)*int64(len(t.Hosts)) + // per-(node,host) headers
		8*int64(entries) // candidate port entries
	return r
}

// NextPorts returns the precomputed candidate set.
func (r *DenseRouter) NextPorts(n packet.NodeID, hostIdx int) []int {
	return r.routes[n][hostIdx]
}

// Bytes reports the table's resident memory.
func (r *DenseRouter) Bytes() int64 { return r.bytes }

// Kind identifies the implementation.
func (r *DenseRouter) Kind() string { return "dense" }

// bfsColumn runs one reverse BFS from host h and hands every node its
// candidate next-hop ports (ascending port index) via emit. dist and
// queue are caller-owned scratch (len(dist) == len(t.Nodes)); the
// emitted slices share one arena allocated here, sized by the total
// port count so each column costs a single allocation. Returns the
// number of candidate entries emitted. This is also the per-host
// oracle the equivalence suite samples at scales where a full dense
// table would not fit.
func bfsColumn(t *Topology, h packet.NodeID, dist []int, queue []packet.NodeID, emit func(packet.NodeID, []int)) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[h] = 0
	queue = append(queue[:0], h)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range t.Nodes[cur].Ports {
			// Traverse the reverse direction: peer can reach cur.
			if peer := p.Peer; dist[peer] == -1 {
				dist[peer] = dist[cur] + 1
				queue = append(queue, peer)
			}
		}
	}
	totalPorts := 0
	for _, node := range t.Nodes {
		totalPorts += len(node.Ports)
	}
	// A node's next hops toward h are all ports whose peer is one
	// step closer. Hosts never forward transit traffic: their only
	// next hop is their ToR uplink, which the BFS yields naturally.
	arena := make([]int, 0, totalPorts)
	for _, node := range t.Nodes {
		if node.ID == h || dist[node.ID] == -1 {
			continue
		}
		lo := len(arena)
		for i, p := range node.Ports {
			if d := dist[p.Peer]; d >= 0 && d == dist[node.ID]-1 {
				arena = append(arena, i)
			}
		}
		emit(node.ID, arena[lo:len(arena):len(arena)])
	}
	return len(arena)
}

// swEntry is one node's complete routing state under the structural
// router: the contiguous dense-host-index range below it, the layout
// of its down ports (base index + uniform hosts-per-child stride),
// and its up-port index range. 24 bytes per node, independent of
// host count.
type swEntry struct {
	hostLo, hostHi int32 // dense host indexes reachable below this node: [lo, hi)
	downBase       int32 // port index of the first down port
	stride         int32 // hosts per down-subtree; 0 marks a host node
	upLo, upHi     int32 // up-port index range [upLo, upHi)
}

// StructuralRouter routes by index arithmetic. At node n toward host
// hi: if hi lies in n's subtree range, the unique down port is
// downBase + (hi-hostLo)/stride; otherwise the candidates are n's full
// up-port set. Returned slices are windows into one shared
// [0,1,2,...] arena — a port set's values are exactly its indices —
// so NextPorts never allocates and total memory is O(nodes) records
// plus O(max ports per node) arena.
type StructuralRouter struct {
	sw    []swEntry
	ports []int // shared arena: ports[i] == i
	bytes int64
}

// NextPorts implements Router by pure index arithmetic.
func (r *StructuralRouter) NextPorts(n packet.NodeID, hostIdx int) []int {
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

// Bytes reports the router's resident memory.
func (r *StructuralRouter) Bytes() int64 {
	return int64(unsafe.Sizeof(swEntry{}))*int64(len(r.sw)) + 8*int64(len(r.ports))
}

// Kind identifies the implementation.
func (r *StructuralRouter) Kind() string { return "structural" }

// NewStructuralRouter derives per-switch routing records from a built
// topology, verifying on the way that the fabric has the regular Clos
// shape the arithmetic needs. The checks are exactly the assumptions
// under which structural routing provably reproduces the BFS oracle's
// ordered candidate sets:
//
//  1. Strict layering: every link joins adjacent-in-spirit layers
//     (peer layers differ), so "up" and "down" are well defined and
//     down always moves toward hosts.
//  2. Up-prefix port layout: each node's up ports occupy indices
//     [0, u) and its down ports [u, len) — true of every builder
//     because switches connect upward before attaching children. BFS
//     emits candidates in ascending port order, so the up set being a
//     contiguous prefix makes the arena window order-identical.
//  3. Contiguous, consecutive, uniform subtrees: scanning a node's
//     down ports in index order, the children cover consecutive dense
//     host ranges of one common size (the stride), so the down port
//     for a host is unique and computable by division.
//  4. Symmetric up coverage: all of a node's up-peers cover identical
//     host ranges that contain the node's own, so every up port is
//     equal-cost toward any host outside the subtree — the ECMP set
//     is the full up-port set, matching BFS.
//
// Any violation returns an error and freeze() falls back to the dense
// BFS router; routing stays correct either way, only the memory bound
// changes.
func NewStructuralRouter(t *Topology) (*StructuralRouter, error) {
	n := len(t.Nodes)
	r := &StructuralRouter{sw: make([]swEntry, n)}
	maxPorts := 0
	// Pass 1: classify ports and check the up-prefix layout (1, 2).
	upCount := make([]int, n)
	for _, node := range t.Nodes {
		if len(node.Ports) > maxPorts {
			maxPorts = len(node.Ports)
		}
		u := 0
		for i, p := range node.Ports {
			peer := t.Nodes[p.Peer]
			switch {
			case peer.Layer > node.Layer: // up
				if i != u {
					return nil, fmt.Errorf("topo: %s port %d is an up port after a down port", node.Name(), i)
				}
				u++
			case peer.Layer < node.Layer: // down
			default:
				return nil, fmt.Errorf("topo: %s port %d links within layer %s", node.Name(), i, node.Layer)
			}
		}
		upCount[node.ID] = u
	}
	// Pass 2: subtree host ranges bottom-up, layer by layer (3).
	done := make([]bool, n)
	for _, node := range t.Nodes {
		if node.Kind == HostNode {
			hi := int32(t.hostIdx[node.ID])
			r.sw[node.ID] = swEntry{hostLo: hi, hostHi: hi + 1, stride: 0, upLo: 0, upHi: int32(len(node.Ports))}
			done[node.ID] = true
		}
	}
	for layer := LayerToR; layer <= LayerCore; layer++ {
		for _, node := range t.Nodes {
			if node.Layer != layer || node.Kind == HostNode {
				continue
			}
			u := upCount[node.ID]
			e := swEntry{downBase: int32(u), upLo: 0, upHi: int32(u), stride: 1}
			first := true
			for _, p := range node.Ports[u:] {
				if !done[p.Peer] {
					return nil, fmt.Errorf("topo: %s has a down link skipping a layer to %s", node.Name(), t.Nodes[p.Peer].Name())
				}
				c := r.sw[p.Peer]
				size := c.hostHi - c.hostLo
				if size <= 0 {
					return nil, fmt.Errorf("topo: %s subtree under %s holds no hosts", node.Name(), t.Nodes[p.Peer].Name())
				}
				if first {
					e.hostLo, e.hostHi, e.stride = c.hostLo, c.hostHi, size
					first = false
					continue
				}
				if c.hostLo != e.hostHi || size != e.stride {
					return nil, fmt.Errorf("topo: %s down subtrees are not consecutive uniform host ranges", node.Name())
				}
				e.hostHi = c.hostHi
			}
			if first { // no down ports at all: an isolated switch
				return nil, fmt.Errorf("topo: switch %s has no down ports", node.Name())
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
				return nil, fmt.Errorf("topo: %s up-peers cover unequal host ranges", node.Name())
			}
			if p.hostLo > e.hostLo || p.hostHi < e.hostHi {
				return nil, fmt.Errorf("topo: %s up-peer %s does not cover its subtree", node.Name(), t.Nodes[node.Ports[i].Peer].Name())
			}
		}
	}
	r.ports = make([]int, maxPorts)
	for i := range r.ports {
		r.ports[i] = i
	}
	r.bytes = r.Bytes()
	return r, nil
}

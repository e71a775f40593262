// Package trace is the simulator's flight recorder: a bounded ring of
// packet-lifecycle events (send, enqueue, park, transmit, deliver,
// drop, credit, pause) that costs one predicate call when disabled and
// no allocation when enabled. Filters select by flow, node or kind, so
// a single stuck flow in a multi-million-event run can be replayed in
// order — the tooling a production simulator needs and NS-3 users get
// from ascii traces.
package trace

import (
	"fmt"
	"strings"

	"floodgate/internal/packet"
	"floodgate/internal/units"
)

// Op is a lifecycle point.
type Op uint8

// Lifecycle points.
const (
	OpSend    Op = iota // host NIC serialises a packet
	OpEnqueue           // switch egress queue accepts a packet
	OpPark              // flow-control module parks a packet (VOQ)
	OpTx                // switch egress transmits a packet
	OpDeliver           // destination host consumes a packet
	OpDrop              // packet dropped (overflow or injected loss)
	OpCredit            // Floodgate credit emitted
	OpPause             // pause frame emitted (PFC/BFC/dst/tag)
	OpResume            // resume frame emitted
	OpRetx              // go-back-N or NDP segment retransmission
	OpRTO               // retransmission timeout fired (sender rewound)
	OpUnpark            // flow-control module released a parked packet (credit arrived)

	// Application-plane lifecycle points (closed-loop RPC layer). The
	// event's Flow is the launched attempt's flow; Seq carries the
	// attempt number so retry amplification is causally attributable.
	OpAppReq     // request attempt launched (attempt 1 = the original)
	OpAppRetry   // timeout-driven retry attempt launched
	OpAppHedge   // hedged attempt launched (racing the original)
	OpAppTimeout // application deadline expired on a pending request
	OpAppDone    // request resolved (every worker replied, or given up)
	nOps
)

var opNames = [nOps]string{"SEND", "ENQ", "PARK", "TX", "DLVR", "DROP", "CREDIT", "PAUSE", "RESUME", "RETX", "RTO", "UNPARK",
	"APPREQ", "APPRETRY", "APPHEDGE", "APPTOUT", "APPDONE"}

func (o Op) String() string {
	if o < nOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one recorded lifecycle point.
type Event struct {
	At   units.Time
	Op   Op
	Node packet.NodeID // where it happened
	Kind packet.Kind
	Flow packet.FlowID
	Seq  units.ByteSize
	Size units.ByteSize
	Dst  packet.NodeID
	// Aux carries an op-specific counterpart node: for OpCredit the
	// credited flow destination, for OpUnpark the upstream switch the
	// releasing credit came from. Zero otherwise. The Perfetto exporter
	// uses it to draw cause→effect flow arrows (credit → unpark).
	Aux packet.NodeID
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v %-6s node=%-4d %-10v flow=%-6d seq=%-8d dst=%-4d size=%d",
		e.At, e.Op, e.Node, e.Kind, e.Flow, e.Seq, e.Dst, e.Size)
}

// Filter selects which events are recorded. Zero fields match all.
type Filter struct {
	Flow  packet.FlowID        // 0 = any
	Node  packet.NodeID        // 0 = any (node 0 is always a switch/spine; use -1 for none)
	Ops   map[Op]bool          // nil = any
	Kinds map[packet.Kind]bool // nil = any (packet.Data is Kind 0, so a set, not a scalar)
}

func (f Filter) match(e Event) bool {
	if f.Flow != 0 && e.Flow != f.Flow {
		return false
	}
	if f.Node != 0 && e.Node != f.Node {
		return false
	}
	if f.Ops != nil && !f.Ops[e.Op] {
		return false
	}
	if f.Kinds != nil && !f.Kinds[e.Kind] {
		return false
	}
	return true
}

// Buffer is a fixed-capacity ring of events.
type Buffer struct {
	filter Filter
	ring   []Event
	next   int
	full   bool
	total  uint64
}

// NewBuffer returns a ring holding the most recent cap matching events.
func NewBuffer(capacity int, filter Filter) *Buffer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Buffer{filter: filter, ring: make([]Event, capacity)}
}

// Record appends an event if it matches the filter.
func (b *Buffer) Record(e Event) {
	if b == nil || !b.filter.match(e) {
		return
	}
	b.total++
	b.ring[b.next] = e
	b.next++
	if b.next == len(b.ring) {
		b.next = 0
		b.full = true
	}
}

// Total reports how many events matched over the run (recorded or
// since evicted).
func (b *Buffer) Total() uint64 { return b.total }

// Events returns the retained events in chronological order.
func (b *Buffer) Events() []Event {
	if !b.full {
		out := make([]Event, b.next)
		copy(out, b.ring[:b.next])
		return out
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Dump renders the retained events, one per line.
func (b *Buffer) Dump() string {
	var sb strings.Builder
	for _, e := range b.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// FlowHistory extracts one flow's events from the retained window.
func (b *Buffer) FlowHistory(id packet.FlowID) []Event {
	var out []Event
	for _, e := range b.Events() {
		if e.Flow == id {
			out = append(out, e)
		}
	}
	return out
}

// Of builds an event from a packet at a lifecycle point (helper for
// call sites).
func Of(at units.Time, op Op, node packet.NodeID, p *packet.Packet) Event {
	return Event{
		At: at, Op: op, Node: node,
		Kind: p.Kind, Flow: p.Flow, Seq: p.Seq, Size: p.Size, Dst: p.Dst,
	}
}

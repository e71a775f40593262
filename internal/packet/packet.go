// Package packet defines the on-wire units exchanged by simulated
// hosts and switches: data segments, acknowledgements, congestion
// notifications, Floodgate credits and switchSYNs, PFC and per-dst
// pause frames, BFC pauses, and NDP trimmed headers and pulls. A
// Packet is a plain struct — the simulator moves pointers, never
// serialises — but every packet carries an accurate wire Size so that
// link utilisation and overhead measurements (paper Fig. 17a, 18) are
// faithful.
package packet

import (
	"fmt"

	"floodgate/internal/units"
)

// NodeID identifies a device (host or switch) in the topology.
type NodeID int32

// FlowID identifies a transport flow.
type FlowID uint64

// Category tags the traffic pattern a flow belongs to, for the paper's
// victim analysis (§6.1, Fig 9). It lives here (not in stats) because
// data packets carry it across hops so switches can attribute queuing
// delay correctly.
type Category uint8

// Flow categories.
const (
	CatIncast       Category = iota // flows of the incast pattern itself
	CatVictimIncast                 // Poisson flows sharing the incast destination rack
	CatVictimPFC                    // all other Poisson flows
	NumCategories
)

var catNames = [NumCategories]string{"incast", "victim-of-incast", "victim-of-PFC"}

func (c Category) String() string {
	if c < NumCategories {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// Kind enumerates packet types.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
	Nack      // NDP: trimmed-packet notification from receiver
	CNP       // DCQCN congestion notification packet
	Credit    // Floodgate: aggregated credit from downstream switch
	SwitchSYN // Floodgate: credit-resync probe after timeout
	PFCPause
	PFCResume
	DstPause  // Floodgate per-dst PAUSE from first-hop ToR to host
	DstResume //
	BFCPause  // BFC per-queue pause to upstream
	BFCResume
	TagPause // PFC w/ tag: per-dst pause
	TagResume
	Pull // NDP: receiver-driven pull token
	nKinds
)

var kindNames = [nKinds]string{
	"DATA", "ACK", "NACK", "CNP", "CREDIT", "SWSYN", "PFC-PAUSE", "PFC-RESUME",
	"DST-PAUSE", "DST-RESUME", "BFC-PAUSE", "BFC-RESUME", "TAG-PAUSE", "TAG-RESUME", "PULL",
}

func (k Kind) String() string {
	if k < nKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// Wire sizes. MTU is the data segment ceiling including header.
const (
	MTU        units.ByteSize = 1500
	HeaderSize units.ByteSize = 48 // emulated L2+L3+transport header
	CtrlSize   units.ByteSize = 64 // ACK/CNP/credit/pause wire size
	IntHopSize units.ByteSize = 8  // HPCC per-hop INT telemetry entry

	// MinFrameSize is the smallest frame any device puts on a wire: an
	// NDP-trimmed header, or a data tail carrying a byte or two of
	// payload. Control frames are larger. The sharded executor's
	// lookahead (topo.Lookahead) is only conservative if it serializes
	// this size, not CtrlSize.
	MinFrameSize = HeaderSize
)

// IntHop is one hop's inline network telemetry, appended by each
// switch a data packet traverses when INT is enabled (HPCC).
type IntHop struct {
	TxBytes  units.ByteSize // cumulative bytes transmitted by the egress port
	QLen     units.ByteSize // egress queue length at dequeue
	TS       units.Time     // local timestamp
	LinkRate units.BitRate  // egress link capacity
}

// CreditEntry is one <destination, bytes> pair inside a Floodgate
// credit packet. Cum carries the downstream switch's cumulative
// forwarded byte count for PSN-style loss recovery (§4.3).
type CreditEntry struct {
	Dst   NodeID
	Bytes units.ByteSize
	Cum   units.ByteSize
}

// Packet is a simulated frame. Fields beyond the common header are
// used only by the kinds that need them; they stay inline (no
// interface indirection) because the simulator allocates millions.
// Fields are grouped by width — words, then 32-bit, then bytes — so the
// struct carries no padding (TestPacketSize).
type Packet struct {
	ID   uint64
	Flow FlowID
	Size units.ByteSize

	// Data / ACK sequencing: byte offset of the first payload byte and
	// payload length (Size - HeaderSize for full segments).
	Seq     units.ByteSize
	Payload units.ByteSize

	// Congestion-control feedback carried on ACKs.
	AckSeq units.ByteSize // cumulative ack (next expected byte)
	Int    []IntHop       // INT stack (HPCC); echoed back on ACKs

	// Floodgate credit payload (Kind == Credit); switchSYN reuses Dst.
	Credits []CreditEntry

	// PSN is Floodgate's per-(egress port, destination) cumulative byte
	// count, stamped by the upstream switch when it forwards the packet
	// (§4.3 loss recovery). Zero on host-originated hops.
	PSN units.ByteSize

	// Per-hop transient state, rewritten at every switch: when it
	// entered the current queue.
	EnqueuedAt units.Time

	// EnqPauseCum is the egress port's cumulative PFC-paused duration at
	// the moment this packet was enqueued, stamped only when forensics is
	// enabled. At dequeue, pauseCum-now minus this value is the portion
	// of the packet's queueing wait attributable to PFC backpressure.
	EnqPauseCum units.Duration

	// Bookkeeping for statistics: when the source host first serialised it.
	SentAt units.Time

	Src NodeID // originating host
	Dst NodeID // destination host (for control frames: the consumer)

	// FGEpoch is the forwarding switch's Floodgate boot epoch, stamped
	// alongside PSN. A mid-channel epoch change tells the downstream
	// switch its upstream restarted and the PSN sequence rebased, so it
	// must resynchronize instead of crediting a phantom gap.
	FGEpoch uint32

	// Pause/resume payloads.
	PauseDst NodeID // DstPause/DstResume/TagPause/TagResume target destination
	PauseQ   int32  // BFCPause/BFCResume: upstream queue index

	// BFC metadata carried on data packets.
	UpstreamQ int32

	InPort int32 // ingress port index at the current switch (-1 at origin)

	// debug is zero-size unless built with -tags simdebug, in which
	// case it tracks pool membership for the lifecycle assertions. It is
	// not the last field: a trailing zero-size field is padded.
	debug debugState

	Kind Kind
	Last bool // last segment of the flow

	ECN     bool // CE mark
	Retrans bool // retransmitted segment
	Trimmed bool // NDP: payload removed in network
	EchoECN bool // the ACK echoes a CE mark

	// ViaVOQ marks a packet that was parked in a Floodgate VOQ at the
	// current switch (drives the §8 queue-length signal override).
	// Reset at every hop.
	ViaVOQ bool

	// Cat is the flow's traffic category (copied onto data packets).
	Cat Category

	HopCount int8
}

// ResetKeepBuffers zeroes the packet for reuse, retaining the Int and
// Credits backing arrays so pooled packets stop allocating once warm.
func (p *Packet) ResetKeepBuffers() {
	ints := p.Int[:0]
	creds := p.Credits[:0]
	dbg := p.debug
	*p = Packet{}
	p.Int = ints
	p.Credits = creds
	p.debug = dbg
}

// NewData builds a data segment of the given payload size.
func NewData(id uint64, flow FlowID, src, dst NodeID, seq, payload units.ByteSize, last bool) *Packet {
	return &Packet{
		ID: id, Kind: Data, Flow: flow, Src: src, Dst: dst,
		Size: payload + HeaderSize, Seq: seq, Payload: payload, Last: last,
	}
}

// NewCtrl builds a CtrlSize control frame of the given kind
// travelling from src to dst.
func NewCtrl(id uint64, kind Kind, flow FlowID, src, dst NodeID) *Packet {
	return &Packet{ID: id, Kind: kind, Flow: flow, Src: src, Dst: dst, Size: CtrlSize}
}

// Trim converts a data packet into an NDP trimmed header in place.
func (p *Packet) Trim() {
	p.Trimmed = true
	p.Size = HeaderSize
}

// AddInt appends one INT hop record and grows the wire size accordingly.
func (p *Packet) AddInt(h IntHop) {
	p.Int = append(p.Int, h)
	p.Size += IntHopSize
}

func (p *Packet) String() string {
	return fmt.Sprintf("%v flow=%d %d->%d seq=%d size=%d", p.Kind, p.Flow, p.Src, p.Dst, p.Seq, p.Size)
}

//lint:hotpath every OnIngress/OnDequeue call is per packet; scheduling must not allocate closures

package core

import (
	"encoding/binary"
	"hash/crc32"
	"slices"

	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// Module is one switch's Floodgate instance. It implements
// device.FlowControl.
type Module struct {
	cfg Config
	sw  *device.Switch

	// Per-destination state (window, VOQ mapping, parked bytes, paused
	// hosts): one paged record per destination that ever had a window
	// here, so a forwarded packet costs one index and memory follows the
	// active destinations, not the fabric (§7.4). live lists them in
	// window-creation order for the walks that visit every window.
	dsts paged[dstState]
	live []packet.NodeID

	// Downstream role: credit generation per (ingress port, dst), one
	// slot per switch-facing port, minted at the port's first credited
	// frame (downAt). Host-facing ports never credit and come last (only
	// ToRs have hosts, below their uplinks; creditedPorts checks), so
	// facesHost is an index compare.
	down []*downPort

	// VOQ pool, built by the first allocVOQ (nil until then).
	voqs    []*voq
	free    []int // free voq indices per group: [0]=down, [1]=up (or all in [0])
	freeUp  []int
	inUse   int
	grouped bool

	maxWins int // peak window-table size (§7.4 memory overhead)

	// epoch is the module's boot generation, stamped onto every
	// forwarded data packet. A switch restart advances it, letting
	// downstream switches detect the PSN rebase and resynchronize
	// instead of crediting a phantom gap. resyncs counts how often this
	// switch detected an upstream restart.
	epoch   uint32
	resyncs int

	// creditSentAt/creditFrom are transients valid only inside OnCtrl's
	// credit-apply loop: drain reads them to attribute a released
	// packet's wait to credit flight time and to link the unpark back to
	// the crediting switch.
	creditSentAt units.Time
	creditFrom   packet.NodeID
}

// downPort is one switch-facing ingress port's credit state: a channel
// per destination, those with credits pending (insertion order) and the
// port's credit timer, whose capture-free payload it is (m, in).
type downPort struct {
	chans   paged[downChan]
	pending []packet.NodeID
	m       *Module
	in      int32
	armed   bool // credit timer scheduled
}

// creditTickFn is the capture-free credit-timer callback.
func creditTickFn(a any) {
	d := a.(*downPort)
	d.m.creditTick(int(d.in))
}

// fireSYNFn is the capture-free switchSYN-timeout callback.
func fireSYNFn(a any) {
	w := a.(*dstState)
	w.m.fireSYN(w)
}

// paged is a table indexed by destination NodeID. The first destination
// touched lives inline in the table value; every later one lives in a
// 256-entry value page minted on first touch under a root that grows to
// the highest page touched. Most switches and ingress ports only ever
// serve one destination — every one on an incast's path does — so they
// pay no page at all. Lookups are a compare, then two array indexes;
// entries never move, and an idle table costs nothing.
type paged[T any] struct {
	firstKey packet.NodeID // first's destination + 1; 0 while first is unclaimed
	first    T
	pages    []*[pageSize]T
}

const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// get returns dst's entry, or nil if dst was never touched and its page
// was never minted. Callers treat nil like a zero entry.
func (t *paged[T]) get(dst packet.NodeID) *T {
	if t.firstKey == dst+1 {
		return &t.first
	}
	if pi := int(dst >> pageBits); pi < len(t.pages) && t.pages[pi] != nil {
		return &t.pages[pi][dst&(pageSize-1)]
	}
	return nil
}

// at returns dst's entry: the inline one if dst holds it or it is
// unclaimed, else dst's page slot, minting the page (zero values) if
// needed.
func (t *paged[T]) at(dst packet.NodeID) *T {
	switch t.firstKey {
	case dst + 1:
		return &t.first
	case 0:
		t.firstKey = dst + 1
		return &t.first
	}
	pi := int(dst >> pageBits)
	if pi >= len(t.pages) {
		t.pages = append(t.pages, make([]*[pageSize]T, pi+1-len(t.pages))...)
	}
	if t.pages[pi] == nil {
		t.pages[pi] = new([pageSize]T)
	}
	return &t.pages[pi][dst&(pageSize-1)]
}

// downChan is the downstream switch's per-channel credit state.
type downChan struct {
	cumFwd  units.ByteSize // cumulative bytes forwarded (credited basis)
	lastPSN units.ByteSize // highest upstream PSN seen (gap detection)
	pending units.ByteSize // bytes awaiting a credit packet
	epoch   uint32         // upstream boot epoch last seen (0 = first contact)
}

// dstState is everything one switch keeps about one destination: the
// upstream window plus, while the destination is an incast suspect, its
// VOQ mapping, parked bytes and paused first-hop hosts. The zero value
// (m == nil) is a destination that has no window yet.
type dstState struct {
	m     *Module // owner, for the capture-free SYN callback
	dst   packet.NodeID
	init  units.ByteSize
	avail units.ByteSize
	// outstanding per egress port, ascending by port: sent cumulative
	// and last credited cumulative from the downstream switch.
	ports []upPort
	// switchSYN management. The deadline is lazy: every credit would
	// otherwise cancel and re-arm the engine timer (pure scheduler
	// churn, one dead entry per credit), so credits just zero the
	// deadline and the pending timer re-derives or dies when it fires.
	lastCredit  units.Time
	synTimer    sim.Handle
	synDeadline units.Time // 0 = disarmed

	voq    *voq           // non-nil while identified as incast
	parked units.ByteSize // bytes parked in voq for this destination
	paused []int32        // host-facing ports whose host is paused on dst
}

type upPort struct {
	port    int32
	sent    units.ByteSize
	lastCum units.ByteSize
}

// parked is one VOQ entry: the packet plus the egress port its bytes
// are attributed to (routing may steer elsewhere by drain time when a
// link failed in between; the attribution must then move).
type parked struct {
	p   *packet.Packet
	out int32
}

// voq parks packets whose destination window is exhausted.
type voq struct {
	idx   int
	group int
	q     []parked
	bytes units.ByteSize
	dsts  []packet.NodeID // destinations mapped to this VOQ
}

// New returns a device.FCFactory installing Floodgate on every switch.
func New(cfg Config) device.FCFactory {
	return func(sw *device.Switch) device.FlowControl { return newModule(cfg, sw) }
}

func newModule(cfg Config, sw *device.Switch) *Module {
	node := sw.Node()
	m := &Module{cfg: cfg, sw: sw, epoch: 1}
	m.down = make([]*downPort, creditedPorts(len(node.Ports), sw.PortFacesHost))
	// VOQ grouping applies to middle-layer switches only (3-tier aggs),
	// which forward both upstream and windowed downstream traffic.
	m.grouped = cfg.VOQGrouping && node.Layer == topo.LayerAgg
	return m
}

// creditedPorts counts a switch's switch-facing ports and panics unless
// they come first, as Module.facesHost's index compare assumes.
func creditedPorts(n int, facesHost func(int) bool) int {
	credited := 0
	for i := range n {
		if !facesHost(i) {
			if credited < i {
				panic("core: a switch-facing port follows a host-facing one")
			}
			credited = i + 1
		}
	}
	return credited
}

// buildPool builds the VOQ pool — one backing array for the structs —
// on the first park: only a switch that identifies an incast needs it.
func (m *Module) buildPool() {
	vs := make([]voq, max(m.cfg.MaxVOQs, 1))
	m.voqs = make([]*voq, len(vs))
	m.free = make([]int, 0, len(vs))
	for i := range vs {
		vs[i].idx = i
		m.voqs[i] = &vs[i]
	}
	m.resetFree()
}

// resetFree returns every VOQ to its group's free list, in index order:
// all to group 0, or the upper half to group 1 on a grouped switch.
func (m *Module) resetFree() {
	m.free, m.freeUp = m.free[:0], m.freeUp[:0]
	down := len(m.voqs)
	if m.grouped {
		down /= 2
	}
	for i, v := range m.voqs {
		if i < down {
			v.group, m.free = 0, append(m.free, i)
		} else {
			v.group, m.freeUp = 1, append(m.freeUp, i)
		}
	}
}

// Window returns the remaining window for a destination (tests).
func (m *Module) Window(dst packet.NodeID) (units.ByteSize, bool) {
	w := m.dsts.get(dst)
	if w == nil || w.m == nil {
		return 0, false
	}
	return w.avail, true
}

// VOQsInUse reports the number of allocated VOQs (tests/stats).
func (m *Module) VOQsInUse() int { return m.inUse }

// WindowDeficit sums init−avail over all windows. Once the network is
// idle and credits have settled it must be zero: any positive residue
// is leaked window, any negative residue is inflation.
func (m *Module) WindowDeficit() units.ByteSize {
	var d units.ByteSize
	for _, dst := range m.live {
		w := m.dsts.get(dst)
		d += w.init - w.avail
	}
	return d
}

// ---- Upstream role: OnIngress ----

// OnIngress applies per-dst window control to data packets headed for
// a switch-facing egress port.
func (m *Module) OnIngress(p *packet.Packet, inPort, outPort int) device.Verdict {
	m.checkPSNGap(p, inPort)
	if m.facesHost(outPort) {
		// Last hop: buffering here does nothing for the network (§3.2).
		return device.Verdict{}
	}
	w := m.winFor(p.Dst, outPort)
	if w.voq != nil {
		// Destination already identified as incast.
		m.park(w, p, outPort)
		return device.Verdict{Consumed: true}
	}
	if w.avail >= p.Size {
		m.forward(w, p, outPort)
		return device.Verdict{}
	}
	// Window exhausted: the destination is encountering incast.
	m.allocVOQ(w)
	m.park(w, p, outPort)
	m.armSYN(w)
	return device.Verdict{Consumed: true}
}

// forward consumes window and stamps the loss-recovery PSN (plus the
// boot epoch so a downstream switch can tell a restart from a gap).
func (m *Module) forward(w *dstState, p *packet.Packet, outPort int) {
	w.avail -= p.Size
	m.sw.Net().FGWindow(0, p.Size)
	up := w.port(outPort)
	up.sent += p.Size
	m.checkWindow(w)
	p.PSN = up.sent
	p.FGEpoch = m.epoch
	// Keep a timer alive while bytes are outstanding, so a credit stall
	// is eventually escaped even if the window never exhausts (e.g. the
	// very last credits of a flow are lost).
	m.armSYN(w)
}

// winFor lazily initialises the per-destination window from the
// routed next-hop link (§4.2).
func (m *Module) winFor(dst packet.NodeID, outPort int) *dstState {
	w := m.dsts.at(dst)
	if w.m != nil {
		return w
	}
	port := &m.sw.Node().Ports[outPort]
	var init units.ByteSize
	if m.cfg.Mode == Ideal {
		init = units.ByteSize(m.cfg.M * float64(port.BDP()))
	} else {
		init = port.BDP() + units.BytesOver(port.Rate, m.cfg.CreditTimer)
	}
	*w = dstState{m: m, dst: dst, init: init, avail: init, lastCredit: m.now()}
	m.live = append(m.live, dst)
	m.sw.Net().FGWindow(1, 0)
	if len(m.live) > m.maxWins {
		m.maxWins = len(m.live)
	}
	return w
}

// MaxWindows reports the peak number of per-destination window entries
// this switch held — the §7.4 stateful-memory figure.
func (m *Module) MaxWindows() int { return m.maxWins }

// port returns egress port i's counters, inserting them in port order
// (a window uses a handful of ECMP uplinks at most).
func (w *dstState) port(i int) *upPort {
	k := 0
	for k < len(w.ports) && int(w.ports[k].port) < i {
		k++
	}
	if k == len(w.ports) || int(w.ports[k].port) != i {
		w.ports = slices.Insert(w.ports, k, upPort{port: int32(i)})
	}
	return &w.ports[k]
}

// ---- VOQ management ----

// allocVOQ finds the VOQ for a newly identified incast destination:
// an empty one from the right group if available, else a CRC-32 hash
// over the allocated VOQs (§4.2).
func (m *Module) allocVOQ(w *dstState) {
	if m.voqs == nil {
		m.buildPool()
	}
	dst := w.dst
	group := 0
	if m.grouped && !m.sw.Net().Topo.SamePod(m.sw.Node().ID, dst) {
		group = 1
	}
	freeList := &m.free
	if group == 1 {
		freeList = &m.freeUp
	}
	var v *voq
	if len(*freeList) > 0 {
		idx := (*freeList)[len(*freeList)-1]
		*freeList = (*freeList)[:len(*freeList)-1]
		v = m.voqs[idx]
		m.inUse++
		m.sw.Net().VOQs(1, m.inUse)
	} else {
		// Pool exhausted: share an allocated VOQ chosen by hashing the
		// destination address.
		v = m.hashVOQ(dst, group)
	}
	v.dsts = append(v.dsts, dst)
	w.voq = v
	m.sw.Net().Episode(m.sw.Node().ID, dst, true)
}

// hashVOQ picks an allocated VOQ in the group via CRC-32 of the dst.
func (m *Module) hashVOQ(dst packet.NodeID, group int) *voq {
	var candidates []*voq
	for _, v := range m.voqs {
		if len(v.dsts) > 0 && (!m.grouped || v.group == group) {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		// Degenerate pool (MaxVOQs too small for the group): fall back
		// to any allocated VOQ, then to index 0.
		for _, v := range m.voqs {
			if len(v.dsts) > 0 {
				candidates = append(candidates, v)
			}
		}
	}
	if len(candidates) == 0 {
		m.inUse++
		m.sw.Net().VOQs(1, m.inUse)
		return m.voqs[0]
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(dst))
	h := crc32.ChecksumIEEE(b[:])
	return candidates[int(h)%len(candidates)]
}

// park stores a data packet in its destination's VOQ and accounts it
// against the egress port it will eventually use.
func (m *Module) park(w *dstState, p *packet.Packet, outPort int) {
	p.ViaVOQ = true
	p.EnqueuedAt = m.now()
	v := w.voq
	v.q = append(v.q, parked{p: p, out: int32(outPort)})
	v.bytes += p.Size
	w.parked += p.Size
	m.sw.NotePortBytes(outPort, p.Size)
	m.sw.Net().Parked(m.sw.Node().ID, p, w.parked)
	m.maybeDstPause(w, p)
}

// drain moves VOQ head packets whose destination has window again into
// the egress queue, in FIFO order; a blocked head blocks the VOQ
// (shared-VOQ HOL, a corner the paper accepts).
func (m *Module) drain(v *voq) {
	for len(v.q) > 0 {
		e := v.q[0]
		p := e.p
		outPort := m.sw.Net().Route(m.sw.Node().ID, p.Src, p.Dst)
		w := m.winFor(p.Dst, outPort)
		if w.avail < p.Size {
			m.armSYN(w)
			return
		}
		v.q = v.q[1:]
		v.bytes -= p.Size
		w.parked -= p.Size
		if int(e.out) != outPort {
			// Routing moved while the packet was parked (a link went
			// down); move the port-occupancy attribution with it.
			m.sw.NotePortBytes(int(e.out), -p.Size)
			m.sw.NotePortBytes(outPort, p.Size)
		}
		m.sw.Net().Unparked(m.sw.Node().ID, p, m.creditFrom, m.creditSentAt)
		m.forward(w, p, outPort)
		m.sw.InjectEgress(p, outPort, 0)
		m.maybeDstResume(w)
	}
	if v.bytes == 0 {
		m.freeVOQ(v)
	}
}

// freeVOQ returns an emptied VOQ to its group's free list.
func (m *Module) freeVOQ(v *voq) {
	if len(v.dsts) == 0 {
		return
	}
	for _, d := range v.dsts {
		m.sw.Net().Episode(m.sw.Node().ID, d, false)
		w := m.dsts.get(d)
		w.voq, w.parked = nil, 0
		m.maybeDstResume(w)
	}
	v.dsts = v.dsts[:0]
	v.q = nil
	if m.grouped && v.group == 1 {
		m.freeUp = append(m.freeUp, v.idx)
	} else {
		m.free = append(m.free, v.idx)
	}
	m.inUse--
	m.sw.Net().VOQs(-1, m.inUse)
}

// ---- Downstream role: credit generation ----

// OnDequeue records a forwarded data packet for crediting. Credits are
// owed to the upstream switch the packet arrived from; packets that
// arrived from hosts need none (§3.2).
func (m *Module) OnDequeue(p *packet.Packet, outPort, queue int) {
	in := int(p.InPort)
	if in < 0 || m.facesHost(in) {
		return
	}
	ch := m.downAt(in).chans.at(p.Dst)
	ch.cumFwd += p.Size
	if m.cfg.Mode == Ideal {
		// Strawman: one credit per packet, immediately.
		m.emitCredit(in, p.Dst, ch)
		return
	}
	m.owe(in, p.Dst, ch, p.Size)
}

// facesHost reports whether port i leads to a host: it lies past the
// switch-facing ports down covers.
func (m *Module) facesHost(i int) bool { return i >= len(m.down) }

// downAt returns switch-facing port in's credit state, minting it on
// the port's first credited frame: most ports of a big fabric never
// carry one.
func (m *Module) downAt(in int) *downPort {
	if d := m.down[in]; d != nil {
		return d
	}
	d := &downPort{m: m, in: int32(in)}
	m.down[in] = d
	return d
}

// owe adds b bytes to the credit dst's channel on ingress port in owes
// upstream, listing dst as pending and arming the port's credit tick.
func (m *Module) owe(in int, dst packet.NodeID, ch *downChan, b units.ByteSize) {
	d := m.down[in]
	if ch.pending == 0 {
		d.pending = append(d.pending, dst)
	}
	ch.pending += b
	m.armTimer(in)
}

// armTimer schedules the per-ingress-port credit tick if idle.
func (m *Module) armTimer(in int) {
	d := m.down[in]
	if d.armed {
		return
	}
	d.armed = true
	m.sw.Net().Eng.AfterArg(m.cfg.CreditTimer, creditTickFn, d)
}

// creditTick emits aggregated credit packets for every destination
// pending on this ingress port, honouring delayCredit (§4.1).
func (m *Module) creditTick(in int) {
	d := m.down[in]
	d.armed = false
	dsts := d.pending
	if len(dsts) == 0 {
		return
	}
	// In-place filter reusing the backing array: the write index never
	// passes the read index, and keeping the capacity means steady-state
	// ticks allocate nothing.
	retained := dsts[:0]
	for _, dst := range dsts {
		ch := d.chans.get(dst)
		if ch == nil || ch.pending == 0 {
			continue
		}
		// delayCredit: withhold while this destination's VOQ here is
		// overloaded — absorbing more would only build buffer.
		if w := m.dsts.get(dst); w != nil && w.parked > m.cfg.DelayCreditThresh {
			retained = append(retained, dst)
			continue
		}
		m.emitCredit(in, dst, ch)
	}
	d.pending = retained
	if len(retained) > 0 {
		m.armTimer(in)
	}
}

// emitCredit sends one <dst, credits> pair upstream through port in.
func (m *Module) emitCredit(in int, dst packet.NodeID, ch *downChan) {
	n := m.sw.Net()
	cr := n.NewCtrl(packet.Credit, 0, m.sw.Node().ID, m.sw.Node().Ports[in].Peer)
	// Append into the pooled packet's retained Credits backing
	// (ResetKeepBuffers preserves it) instead of minting a slice.
	cr.Credits = append(cr.Credits[:0], packet.CreditEntry{Dst: dst, Bytes: ch.pending, Cum: ch.cumFwd})
	// SentAt dates the credit so the upstream can split a parked
	// packet's wait into window time and credit flight time; it is
	// stamped unconditionally (never read unless forensics is on).
	cr.SentAt = m.now()
	ch.pending = 0
	n.CreditSent(m.sw.Node().ID, cr, dst)
	m.sw.SendCtrl(cr, in)
}

// ---- Credit consumption and switchSYN (upstream role) ----

// OnCtrl intercepts Floodgate control frames.
func (m *Module) OnCtrl(p *packet.Packet, inPort int) bool {
	switch p.Kind {
	case packet.Credit:
		m.sw.Net().CreditLanded()
		m.creditSentAt = p.SentAt
		m.creditFrom = m.sw.Node().Ports[inPort].Peer
		for _, e := range p.Credits {
			m.applyCredit(inPort, e)
		}
		m.creditSentAt = 0
		m.creditFrom = 0
		return true
	case packet.SwitchSYN:
		// Downstream side: the SYN carries the upstream's cumulative
		// sent count; anything we have not seen by now is presumed lost
		// (the timeout is much larger than one hop's flight time) and is
		// credited as gone, then the channel is resynced immediately.
		ch := m.downAt(inPort).chans.at(p.Dst)
		if p.PSN > ch.lastPSN {
			ch.cumFwd += p.PSN - ch.lastPSN
			ch.lastPSN = p.PSN
		}
		m.emitCredit(inPort, p.Dst, ch)
		return true
	}
	return false
}

// applyCredit resynchronises the window from the downstream cumulative
// count; byte counts in Bytes are informational (the Cum basis is what
// makes the scheme robust to credit loss, §4.3).
func (m *Module) applyCredit(port int, e packet.CreditEntry) {
	w := m.dsts.get(e.Dst)
	if w == nil || w.m == nil {
		return
	}
	up := w.port(port)
	if e.Cum <= up.lastCum {
		return // stale duplicate
	}
	up.lastCum = e.Cum
	if up.lastCum > up.sent {
		// The downstream cumulative includes bytes from before our own
		// restart (our sent counter rebased), or — with INT on — the
		// 8 B record this switch added to each packet after forward
		// counted it: clamp so outstanding can never go negative and
		// inflate the window.
		up.lastCum = up.sent
	}
	// Recompute availability: init minus bytes still outstanding on any
	// downstream channel.
	var outstanding units.ByteSize
	for i := range w.ports {
		outstanding += w.ports[i].sent - w.ports[i].lastCum
	}
	availOld := w.avail
	w.avail = w.init - outstanding
	m.checkWindow(w)
	m.sw.Net().FGWindow(0, availOld-w.avail)
	w.lastCredit = m.now()
	w.synDeadline = 0 // lazy disarm: the pending timer finds it and dies
	if w.voq != nil {
		m.drain(w.voq)
	}
}

// armSYN starts the loss-recovery timeout for an exhausted window. The
// deadline moves; the engine timer is only scheduled when none is
// pending — a stale one (armed before the last lazy disarm) always
// fires at or before the new deadline and re-arms itself there.
func (m *Module) armSYN(w *dstState) {
	if w.synDeadline != 0 {
		return
	}
	w.synDeadline = m.now().Add(m.cfg.SYNTimeout)
	if !w.synTimer.Active() {
		w.synTimer = m.sw.Net().Eng.AfterArg(m.cfg.SYNTimeout, fireSYNFn, w)
	}
}

func (m *Module) fireSYN(w *dstState) {
	if w.synDeadline == 0 {
		return // disarmed since scheduling: a credit arrived
	}
	now := m.now()
	if now < w.synDeadline {
		// The timer predates the latest arm; sleep on to the true
		// deadline.
		w.synTimer = m.sw.Net().Eng.AtArg(w.synDeadline, fireSYNFn, w)
		return
	}
	w.synDeadline = 0 // due: consumed, re-set only by armSYNAgain
	if w.avail >= w.init {
		return // fully credited: nothing to recover, let the timer die
	}
	// Escape hatch: after escapeTimeout without any credit, probe every
	// channel with sent bytes — even ones the stale-duplicate filter or
	// a restart clamp left looking synced — so a restarted downstream
	// switch cannot strand the window (see escapeTimeout).
	escape := now.Sub(w.lastCredit) >= escapeTimeout
	if w.avail >= packet.MTU && !escape {
		// Not exhausted and credits are recent: stay armed so a silent
		// credit stall is eventually escaped.
		m.armSYNAgain(w)
		return
	}
	n := m.sw.Net()
	// Probe every downstream channel with outstanding bytes, telling it
	// our cumulative sent count so it can write off lost bytes. Ports
	// are walked in index order to keep runs deterministic.
	probed := false
	for _, u := range w.ports {
		if u.sent > u.lastCum || (escape && u.sent > 0) {
			syn := n.NewCtrl(packet.SwitchSYN, 0, m.sw.Node().ID, w.dst)
			syn.PSN = u.sent
			m.sw.SendCtrl(syn, int(u.port))
			probed = true
		}
	}
	if probed || escape {
		m.armSYNAgain(w)
	}
}

func (m *Module) armSYNAgain(w *dstState) {
	w.synDeadline = m.now().Add(m.cfg.SYNTimeout)
	w.synTimer = m.sw.Net().Eng.AfterArg(m.cfg.SYNTimeout, fireSYNFn, w)
}

// checkPSNGap detects data lost on the upstream wire: the missing
// bytes can never be credited by forwarding, so credit them as gone.
func (m *Module) checkPSNGap(p *packet.Packet, inPort int) {
	if p.PSN == 0 || m.facesHost(inPort) {
		return
	}
	ch := m.downAt(inPort).chans.at(p.Dst)
	if p.FGEpoch != ch.epoch {
		if ch.epoch != 0 {
			// The upstream switch restarted: its PSN sequence rebased,
			// so the usual gap arithmetic would credit a huge phantom
			// loss. Rebase the channel to just before this packet and
			// count the resync. (On first contact — epoch 0 — the
			// normal gap path below is exactly right: if *we* are the
			// freshly restarted side, it credits everything the
			// upstream had outstanding, restoring its window.)
			ch.lastPSN = p.PSN - p.Size
			m.resyncs++
			m.sw.Net().Resynced()
		}
		ch.epoch = p.FGEpoch
	}
	expected := ch.lastPSN + p.Size
	if p.PSN > expected {
		lost := p.PSN - expected
		ch.cumFwd += lost
		if m.cfg.Mode == Ideal {
			m.emitCredit(inPort, p.Dst, ch)
		} else {
			m.owe(inPort, p.Dst, ch, lost)
		}
	}
	if p.PSN > ch.lastPSN {
		ch.lastPSN = p.PSN
	}
}

// ---- Congestion-signal override (§8) ----

// QueueSignal reports the VOQ backlog sum for packets that were parked
// so ECN/INT reflect the buffering incast traffic actually sees.
func (m *Module) QueueSignal(p *packet.Packet, outPort int) units.ByteSize {
	if !p.ViaVOQ {
		return -1
	}
	var sum units.ByteSize
	for _, v := range m.voqs {
		sum += v.bytes
	}
	return sum + m.sw.PortBacklog(outPort)
}

// ---- Per-dst PAUSE (§4.3, optional host support) ----

// maybeDstPause pauses the sending host when a first-hop VOQ for its
// destination exceeds thre_off.
func (m *Module) maybeDstPause(w *dstState, p *packet.Packet) {
	if !m.cfg.PerDstPause {
		return
	}
	in := p.InPort
	if in < 0 || !m.facesHost(int(in)) {
		return // only first-hop ToRs pause, and only their own hosts
	}
	if w.parked <= m.cfg.PauseThreshOff || slices.Contains(w.paused, in) {
		return
	}
	w.paused = append(w.paused, in)
	n := m.sw.Net()
	f := n.NewCtrl(packet.DstPause, 0, m.sw.Node().ID, m.sw.Node().Ports[in].Peer)
	f.PauseDst = p.Dst
	m.sw.SendCtrl(f, int(in))
}

// maybeDstResume resumes paused hosts, in port order, once the VOQ
// falls below thre_on.
func (m *Module) maybeDstResume(w *dstState) {
	if len(w.paused) == 0 || w.parked > m.cfg.PauseThreshOn {
		return
	}
	n := m.sw.Net()
	node := m.sw.Node()
	slices.Sort(w.paused)
	for _, i := range w.paused {
		f := n.NewCtrl(packet.DstResume, 0, node.ID, node.Ports[i].Peer)
		f.PauseDst = w.dst
		m.sw.SendCtrl(f, int(i))
	}
	w.paused = w.paused[:0]
}

func (m *Module) now() units.Time { return m.sw.Net().Eng.Now() }

// ---- Fault plane hooks (device.Restarter / device.StallReporter) ----

// Restart implements device.Restarter: the switch restarted and lost
// all Floodgate soft state. Parked packets are dropped (their buffer
// share freed), windows, VOQ assignments, credit channels and pending
// credit state are forgotten, and the boot epoch advances so every
// downstream switch detects the PSN rebase on the next forwarded packet
// (checkPSNGap) instead of crediting a phantom gap. Upstream windows
// pointed at this switch recover through the normal first-contact gap
// credit plus the switchSYN/escape probes.
func (m *Module) Restart() {
	n := m.sw.Net()
	node := m.sw.Node()

	// Parked packets die with the switch.
	var parked units.ByteSize
	for _, v := range m.voqs {
		for _, e := range v.q {
			m.sw.NotePortBytes(int(e.out), -e.p.Size)
			m.sw.ReleaseParked(e.p)
			parked += e.p.Size
			n.Drop(node.ID, e.p)
		}
		v.q = nil
		v.bytes = 0
		v.dsts = v.dsts[:0]
	}
	voqs := m.inUse
	m.inUse = 0
	m.resetFree()

	// Windows: cancel loss-recovery timers and forget every destination
	// (VOQ mappings and per-dst pause memory go with the record; the
	// device layer wakes paused hosts via its own onPeerReset nudge).
	var occupied units.ByteSize
	for _, dst := range m.live {
		w := m.dsts.get(dst)
		occupied += w.init - w.avail
		n.Eng.Cancel(w.synTimer)
		*w = dstState{}
	}
	// Open incast episodes end with the VOQ state that defined them.
	n.FGReset(node.ID, len(m.live), occupied, parked, voqs)
	m.live = m.live[:0]

	// Downstream credit state: channels and pending credits are gone.
	// Stale credit timers may still fire; creditTick no-ops on an empty
	// pending list, so just reset the arm flags for new traffic.
	for _, d := range m.down {
		if d != nil {
			d.chans, d.pending, d.armed = paged[downChan]{}, d.pending[:0], false
		}
	}

	m.epoch++
}

// Resyncs reports how many upstream-restart resynchronizations this
// switch performed (tests and fault reports).
func (m *Module) Resyncs() int { return m.resyncs }

// StallReport implements device.StallReporter for watchdog diagnoses.
func (m *Module) StallReport() device.StallInfo {
	si := device.StallInfo{Resyncs: m.resyncs}
	for _, dst := range m.live {
		w := m.dsts.get(dst)
		si.WindowDeficit += w.init - w.avail
		if w.avail < packet.MTU {
			si.ExhaustedWindows++
		}
	}
	for _, v := range m.voqs {
		si.ParkedBytes += v.bytes
	}
	return si
}

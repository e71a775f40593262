//lint:hotpath request arrival, deadline, retry and hedge timers fire per attempt

package app

import (
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/trace"
	"floodgate/internal/units"
)

// reqState is the client-side state machine of one request. It lives
// on the client's shard only; every transition runs on that shard's
// engine (arrival, deadline, retry and hedge timers) or inside a
// completion callback of a flow the shard owns the receive side of.
type reqState struct {
	pl  *Plane
	idx int32 // request index into Dispatch.Reqs
	ci  int32 // index into Plane.clients

	attempts int
	hedges   int
	timeouts int
	quorum   int
	nreplied int
	replied  []bool // per worker, distinct-reply tracking

	resolved bool
	ok       bool
	shed     bool
	start    units.Time
	end      units.Time
	respRecv units.ByteSize // response payload of counted replies
}

// clientState is one client host's jitter stream, breaker and latency
// observations.
type clientState struct {
	node    packet.NodeID
	rng     *sim.Rand // private jitter stream: (seed, client node ID)
	breaker breakerState
	lat     latWindow
}

// Plane is one shard's view of the application plane. It owns the
// requests whose client host the shard owns and the worker side of
// every request flow the shard receives; the Dispatch table is shared
// read-only. Wire the network's completion callback through
// Plane.OnFlowDone to activate it.
type Plane struct {
	net *device.Network
	d   *Dispatch

	states  []*reqState // by request index; nil when owned elsewhere
	order   []*reqState // owned requests in arrival order
	next    int         // next arrival to inject
	clients []*clientState

	// Monotone progress/diagnosis counters, read at shard barriers.
	resolved    int
	pendingReqs int // launched, unresolved
	retryTimers int // armed retry/hedge timers
}

// NewPlane builds the shard's plane and arms its arrival chain. Call
// after Cluster.SealFlows, once per shard, with that shard's Network.
func NewPlane(n *device.Network, d *Dispatch) *Plane {
	p := &Plane{net: n, d: d, states: make([]*reqState, len(d.Reqs))}
	cidx := make(map[packet.NodeID]int32, d.Cfg.Clients)
	for ri := range d.Reqs {
		rq := &d.Reqs[ri]
		if !n.Owns(rq.Client) {
			continue // another shard owns this client
		}
		ci, seen := cidx[rq.Client]
		if !seen {
			ci = int32(len(p.clients))
			cidx[rq.Client] = ci
			p.clients = append(p.clients, &clientState{
				node:    rq.Client,
				rng:     sim.NewRand(n.Cfg.Seed ^ uint64(rq.Client)*0x9e3779b97f4a7c15),
				breaker: newBreakerState(d.Cfg.Breaker),
			})
		}
		rs := &reqState{
			pl: p, idx: int32(ri), ci: ci,
			quorum:  rq.Quorum,
			replied: make([]bool, len(rq.Workers)),
		}
		p.states[ri] = rs
		p.order = append(p.order, rs)
	}
	if len(p.order) > 0 {
		n.Eng.AtArg(p.d.Reqs[p.order[0].idx].Arrival, planeArriveFn, p)
	}
	return p
}

// planeArriveFn injects every owned request whose arrival time has
// come, then re-arms for the next one — one chained timer per shard,
// like the open-loop flow injector but at PriTimer (arrivals are
// application events, not wire events).
func planeArriveFn(a any) {
	p := a.(*Plane)
	now := p.net.Eng.Now()
	for p.next < len(p.order) && p.d.Reqs[p.order[p.next].idx].Arrival <= now {
		rs := p.order[p.next]
		p.next++
		p.arrive(rs, now)
	}
	if p.next < len(p.order) {
		p.net.Eng.AtArg(p.d.Reqs[p.order[p.next].idx].Arrival, planeArriveFn, p)
	}
}

func (p *Plane) arrive(rs *reqState, now units.Time) {
	p.net.AppEvent(device.AppRequest)
	rs.start = now
	cs := p.clients[rs.ci]
	if cs.breaker.open(now) {
		rs.resolved, rs.shed = true, true
		rs.end = now
		p.resolved++
		p.net.AppEvent(device.AppShed)
		p.net.AppFlow(trace.OpAppDone, cs.node, p.d.attempts[rs.idx][0][0])
		return
	}
	p.pendingReqs++
	p.launch(rs, trace.OpAppReq)
	if h, ok := p.d.Cfg.Policy.(Hedger); ok {
		delay := h.HedgeDelay(p.d.Cfg.Deadline, cs.lat.p95(), cs.lat.n)
		p.retryTimers++
		p.net.Eng.AfterArg(delay, reqHedgeFn, rs)
	}
}

// launch fires the next attempt's request flows and, for non-hedge
// launches, arms the attempt's deadline. The invariant that keeps the
// timer logic generation-free: at most one deadline is ever pending
// per request (none during backoff), because a new attempt launches
// only from arrival or from a retry timer armed by the previous
// deadline's expiry.
func (p *Plane) launch(rs *reqState, op trace.Op) {
	rs.attempts++
	flows := p.d.attempts[rs.idx][rs.attempts-1]
	cs := p.clients[rs.ci]
	for _, f := range flows {
		p.net.AppFlow(op, cs.node, f)
		p.net.Launch(f)
	}
	if op != trace.OpAppHedge {
		p.net.Eng.AfterArg(p.d.Cfg.Deadline, reqDeadlineFn, rs)
	}
}

// reqDeadlineFn is the application deadline of the request's most
// recent non-hedge attempt.
func reqDeadlineFn(a any) {
	rs := a.(*reqState)
	if rs.resolved {
		return
	}
	p := rs.pl
	now := p.net.Eng.Now()
	rs.timeouts++
	p.net.AppEvent(device.AppTimeout)
	cs := p.clients[rs.ci]
	p.net.AppFlow(trace.OpAppTimeout, cs.node, p.d.attempts[rs.idx][rs.attempts-1][0])
	cs.breaker.record(true, now)
	if rs.attempts < MaxAttempts && !cs.breaker.open(now) {
		delay := p.d.Cfg.Policy.Backoff(rs.attempts+1, cs.rng)
		p.retryTimers++
		p.net.Eng.AfterArg(delay, reqRetryFn, rs)
		return
	}
	p.resolve(rs, now, false)
}

// reqRetryFn launches the retry attempt the deadline scheduled, unless
// a quorum arrived during the backoff.
func reqRetryFn(a any) {
	rs := a.(*reqState)
	p := rs.pl
	p.retryTimers--
	if rs.resolved {
		return
	}
	p.net.AppEvent(device.AppRetry)
	p.launch(rs, trace.OpAppRetry)
}

// reqHedgeFn races a second attempt against the still-pending first
// one. It does not re-arm the deadline — the first attempt's deadline
// stays the request's deadline.
func reqHedgeFn(a any) {
	rs := a.(*reqState)
	p := rs.pl
	p.retryTimers--
	if rs.resolved || rs.attempts != 1 {
		return
	}
	now := p.net.Eng.Now()
	cs := p.clients[rs.ci]
	if cs.breaker.open(now) {
		return
	}
	rs.hedges++
	p.net.AppEvent(device.AppHedge)
	p.launch(rs, trace.OpAppHedge)
}

// resolve finishes a request (quorum reached or given up).
func (p *Plane) resolve(rs *reqState, now units.Time, ok bool) {
	rs.resolved, rs.ok = true, ok
	rs.end = now
	p.pendingReqs--
	p.resolved++
	cs := p.clients[rs.ci]
	if ok {
		lat := now.Sub(rs.start)
		p.net.AppLatency(lat)
		cs.lat.add(lat)
		cs.breaker.record(false, now)
	}
	p.net.AppFlow(trace.OpAppDone, cs.node, p.d.attempts[rs.idx][0][0])
}

// OnFlowDone dispatches flow completions to the app plane. Request
// flows complete on the worker's shard (the receive side) and launch
// the response; response flows complete on the client's shard and
// count toward the quorum. Open-loop flows (Attempt == 0) are ignored.
func (p *Plane) OnFlowDone(f *device.Flow, now units.Time) {
	if f.Attempt == 0 {
		return
	}
	ro, ok := p.d.roleOf(f.ID)
	if !ok {
		return
	}
	if !ro.resp {
		// Worker side: answer with this attempt's response flow.
		p.net.Launch(ro.peer)
		return
	}
	rs := p.states[ro.req]
	p.net.AppEvent(device.AppReply)
	if rs.resolved || rs.replied[ro.worker] {
		return // late straggler or duplicate attempt's reply
	}
	rs.replied[ro.worker] = true
	rs.nreplied++
	rs.respRecv += f.Size
	if rs.nreplied >= rs.quorum {
		p.resolve(rs, now, true)
	}
}

// Resolved is the number of owned requests that have reached a
// terminal state (completed, given up or shed). Monotone; safe to sum
// across shards at a barrier as the app-plane progress signal.
func (p *Plane) Resolved() int { return p.resolved }

// StallState reports the plane's watchdog-relevant state: launched but
// unresolved requests, armed retry/hedge timers, and breakers
// currently open. Read only at shard barriers.
func (p *Plane) StallState(now units.Time) (pending, retryTimers, openBreakers int) {
	for _, cs := range p.clients {
		if cs.breaker.open(now) {
			openBreakers++
		}
	}
	return p.pendingReqs, p.retryTimers, openBreakers
}

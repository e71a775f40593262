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

	attempts int
	hedges   int
	timeouts int
	nreplied int
	replied  []bool // per worker, distinct-reply tracking

	resolved bool
	ok       bool
	shed     bool
	start    units.Time
	end      units.Time
	respRecv units.ByteSize // response payload of counted replies
}

// Plane is one shard's view of the application plane. It owns the
// requests whose client host the shard owns and the worker side of
// every request flow the shard receives; the Dispatch table is shared
// read-only. Wire the network's completion callback through
// Plane.OnFlowDone to activate it.
type Plane struct {
	net *device.Network
	d   *Dispatch

	reqs []*reqState // by request index, on the client's shard; empty elsewhere
	next int         // next arrival to inject

	// The client host's jitter stream, breaker and latency observations;
	// idle on a shard that does not own the client.
	client  packet.NodeID
	rng     *sim.Rand // private jitter stream: (seed, client node ID)
	breaker breakerState
	lat     latWindow

	// Monotone progress counter, read at shard barriers.
	resolved int
}

// NewPlane builds the shard's plane and arms its arrival chain. Call
// after Cluster.SealFlows, once per shard, with that shard's Network.
func NewPlane(n *device.Network, d *Dispatch) *Plane {
	p := &Plane{net: n, d: d}
	if len(d.Reqs) == 0 || !n.Owns(d.Reqs[0].Client) {
		return p // another shard owns the client
	}
	p.client = d.Reqs[0].Client
	p.rng = sim.NewRand(n.Cfg.Seed ^ uint64(p.client)*0x9e3779b97f4a7c15)
	p.breaker.cooldown = d.Cfg.Breaker.Cooldown
	p.reqs = make([]*reqState, len(d.Reqs))
	for ri := range d.Reqs {
		p.reqs[ri] = &reqState{pl: p, idx: int32(ri), replied: make([]bool, len(d.Reqs[ri].Workers))}
	}
	n.Eng.AtArg(d.Reqs[0].Arrival, planeArriveFn, p)
	return p
}

// planeArriveFn injects every owned request whose arrival time has
// come, then re-arms for the next one — one chained timer per shard,
// like the open-loop flow injector but at PriTimer (arrivals are
// application events, not wire events).
func planeArriveFn(a any) {
	p := a.(*Plane)
	now := p.net.Eng.Now()
	for p.next < len(p.reqs) && p.d.Reqs[p.next].Arrival <= now {
		rs := p.reqs[p.next]
		p.next++
		p.arrive(rs, now)
	}
	if p.next < len(p.reqs) {
		p.net.Eng.AtArg(p.d.Reqs[p.next].Arrival, planeArriveFn, p)
	}
}

func (p *Plane) arrive(rs *reqState, now units.Time) {
	p.net.AppEvent(device.AppRequest)
	rs.start = now
	if p.breaker.open(now) {
		rs.resolved, rs.shed = true, true
		rs.end = now
		p.resolved++
		p.net.AppEvent(device.AppShed)
		p.net.AppFlow(trace.OpAppDone, p.client, p.d.attempts[rs.idx][0][0])
		return
	}
	p.launch(rs, trace.OpAppReq)
	if h, ok := p.d.Cfg.Policy.(Hedger); ok {
		delay := h.HedgeDelay(p.d.Cfg.Deadline, p.lat.p95(), p.lat.n)
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
	for _, f := range flows {
		p.net.AppFlow(op, p.client, f)
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
	p.net.AppFlow(trace.OpAppTimeout, p.client, p.d.attempts[rs.idx][rs.attempts-1][0])
	p.breaker.record(true, now)
	if rs.attempts < MaxAttempts && !p.breaker.open(now) {
		delay := p.d.Cfg.Policy.Backoff(rs.attempts+1, p.rng)
		p.net.Eng.AfterArg(delay, reqRetryFn, rs)
		return
	}
	p.resolve(rs, now, false)
}

// reqRetryFn launches the retry attempt the deadline scheduled, unless
// every reply arrived during the backoff.
func reqRetryFn(a any) {
	rs := a.(*reqState)
	p := rs.pl
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
	if rs.resolved || rs.attempts != 1 {
		return
	}
	now := p.net.Eng.Now()
	if p.breaker.open(now) {
		return
	}
	rs.hedges++
	p.net.AppEvent(device.AppHedge)
	p.launch(rs, trace.OpAppHedge)
}

// resolve finishes a request (every worker replied, or given up).
func (p *Plane) resolve(rs *reqState, now units.Time, ok bool) {
	rs.resolved, rs.ok = true, ok
	rs.end = now
	p.resolved++
	if ok {
		lat := now.Sub(rs.start)
		p.net.AppLatency(lat)
		p.lat.add(lat)
		p.breaker.record(false, now)
	}
	p.net.AppFlow(trace.OpAppDone, p.client, p.d.attempts[rs.idx][0][0])
}

// OnFlowDone dispatches flow completions to the app plane. Request
// flows complete on the worker's shard (the receive side) and launch
// the response; response flows complete on the client's shard and
// resolve the request once every worker has replied. Open-loop flows
// (Attempt == 0) are ignored.
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
	rs := p.reqs[ro.req]
	p.net.AppEvent(device.AppReply)
	if rs.resolved || rs.replied[ro.worker] {
		return // late straggler or duplicate attempt's reply
	}
	rs.replied[ro.worker] = true
	rs.nreplied++
	rs.respRecv += f.Size
	if rs.nreplied == len(rs.replied) {
		p.resolve(rs, now, true)
	}
}

// Resolved is the number of owned requests that have reached a
// terminal state (completed, given up or shed). Monotone; safe to sum
// across shards at a barrier as the app-plane progress signal.
func (p *Plane) Resolved() int { return p.resolved }

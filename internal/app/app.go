// Package app is the deterministic closed-loop application plane: a
// partition-aggregate / request-response RPC layer on top of the
// device flow machinery. The client issues a request by fanning small
// request flows out to N workers; each worker answers with a response
// flow back to the client, and the request completes once every worker
// has replied, from any attempt. Every request carries an application
// deadline; on expiry the client consults a pluggable RetryPolicy
// (fixed, exponential backoff with deterministic jitter, hedging at
// the p95 of observed latency) for up to MaxAttempts attempts, and the
// client's circuit breaker sheds load when the timeout rate crosses a
// threshold.
//
// The plane exists because incast is born here: the response fan-in IS
// the incast, and a timeout-driven retry re-joins the very incast that
// caused it. Closing the loop lets the simulator report what users saw
// (p99/p999 request latency, timeout rate, retry amplification) next
// to the FCT tables.
//
// Determinism under sharding: every attempt flow is pre-registered
// (Cluster.AddAppFlow) in a fixed global order before SealFlows, so
// FlowIDs never depend on runtime behaviour; all runtime actions are
// shard-local (the client launches request flows it owns, workers
// launch response flows they own, timers run on the owning shard's
// engine at the PriTimer rung); and backoff jitter is drawn from the
// client's PRNG stream derived from (seed, client node ID), never from
// a shared source. See DESIGN.md §12 for the full argument.
package app

import (
	"floodgate/internal/device"
	"floodgate/internal/packet"
	"floodgate/internal/sim"
	"floodgate/internal/topo"
	"floodgate/internal/units"
	"floodgate/internal/workload"
)

// MaxAttempts bounds the attempts per request, including the first.
const MaxAttempts = 3

// Flow sizes: a request flow is one KB, and each worker's response is
// drawn uniformly from [respMin, respMax] (30–40 MTU, the paper's
// incast flow size).
const (
	reqSize = units.KB
	respMin = 30 * packet.MTU
	respMax = 40 * packet.MTU
)

// Breaker configures the client's circuit breaker, which opens when
// breakerThreshold of the last breakerWindow attempt outcomes timed
// out. The zero value disables it.
type Breaker struct {
	// Cooldown is how long an open breaker sheds new requests before
	// closing again (0 disables the breaker).
	Cooldown units.Duration
}

// Config describes one closed-loop workload. The zero value is not
// runnable: Requests, Interval and Deadline must be set.
type Config struct {
	// Requests is the number of closed-loop requests to issue.
	Requests int
	// Interval spaces request arrivals (request i arrives at i·Interval).
	Interval units.Duration
	// FanIn is the number of workers per request (partition-aggregate
	// width); 1 models a memcached-style request/response pair.
	FanIn int
	// Deadline is the application deadline of each attempt window.
	Deadline units.Duration
	// Policy governs retry timing (default FixedRetry: immediate).
	Policy RetryPolicy
	// Breaker configures load shedding (zero value: disabled).
	Breaker Breaker
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.FanIn < 1 {
		c.FanIn = 1
	}
	if c.Policy == nil {
		c.Policy = FixedRetry{}
	}
	return c
}

// Request binds one closed-loop request to concrete hosts.
type Request struct {
	Client   packet.NodeID
	Workers  []packet.NodeID
	Arrival  units.Time
	RespSize []units.ByteSize // per worker, fixed across attempts
}

// GenerateRequests pre-generates the request schedule. Every request's
// client is the host just before the last one — the last host is the
// canonical open-loop incast destination throughout the experiment
// suite, so the client is its rack mate: its cross-rack responses are
// exactly the victim traffic an untamed incast's PFC storm head-of-line
// blocks. Workers are a fresh random subset of the hosts outside the
// client's rack, and response sizes are drawn uniformly from [respMin,
// respMax]. Deterministic given (topology, config, seed).
func GenerateRequests(tp *topo.Topology, cfg Config, seed uint64) []Request {
	cfg = cfg.withDefaults()
	r := sim.NewRand(seed)
	client := tp.Hosts[len(tp.Hosts)-2]
	senders := workload.CrossRackSenders(tp, client)
	reqs := make([]Request, 0, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		fan := cfg.FanIn
		if fan > len(senders) {
			fan = len(senders)
		}
		perm := r.Perm(len(senders))
		workers := make([]packet.NodeID, fan)
		sizes := make([]units.ByteSize, fan)
		for w := 0; w < fan; w++ {
			workers[w] = senders[perm[w]]
			sizes[w] = respMin + units.ByteSize(r.Int63n(int64(respMax-respMin)+1))
		}
		reqs = append(reqs, Request{
			Client: client, Workers: workers,
			Arrival:  units.Time(int64(i) * int64(cfg.Interval)),
			RespSize: sizes,
		})
	}
	return reqs
}

// role decodes what one app flow is for.
type role struct {
	req    int32
	worker int16
	resp   bool
	peer   *device.Flow // on request flows: the response to launch on completion
}

// Dispatch is the immutable flow→role table built at registration
// time and shared read-only by every shard's Plane (it is listed in
// floodlint's SharedImmutable audit).
type Dispatch struct {
	Cfg  Config
	Reqs []Request

	base     packet.FlowID
	roles    []role
	attempts [][][]*device.Flow // [req][attempt-1][worker] request flows
}

// Build registers every possible attempt flow on the cluster — for
// each request, MaxAttempts × FanIn request/response pairs — in a
// fixed global order, and returns the dispatch table. Must run after
// all open-loop AddFlow calls and before SealFlows. The flows are
// deferred (AddAppFlow): unused attempts never launch and cost only
// their registration.
func Build(c *device.Cluster, reqs []Request, cfg Config) *Dispatch {
	cfg = cfg.withDefaults()
	d := &Dispatch{Cfg: cfg, Reqs: reqs}
	d.attempts = make([][][]*device.Flow, len(reqs))
	for ri, rq := range reqs {
		d.attempts[ri] = make([][]*device.Flow, MaxAttempts)
		for a := 1; a <= MaxAttempts; a++ {
			row := make([]*device.Flow, len(rq.Workers))
			for wi, w := range rq.Workers {
				fq := c.AddAppFlow(rq.Client, w, reqSize, rq.Arrival, packet.CatVictimPFC, a)
				fr := c.AddAppFlow(w, rq.Client, rq.RespSize[wi], rq.Arrival, packet.CatIncast, a)
				if d.base == 0 {
					d.base = fq.ID
				}
				row[wi] = fq
				d.roles = append(d.roles,
					role{req: int32(ri), worker: int16(wi), peer: fr},
					role{req: int32(ri), worker: int16(wi), resp: true})
			}
			d.attempts[ri][a-1] = row
		}
	}
	return d
}

// NumRequests is the request count (the run's app completion target).
func (d *Dispatch) NumRequests() int { return len(d.Reqs) }

// roleOf resolves an app flow's role; ok is false for open-loop flows.
func (d *Dispatch) roleOf(id packet.FlowID) (role, bool) {
	i := int(id - d.base)
	if d.base == 0 || i < 0 || i >= len(d.roles) {
		return role{}, false
	}
	return d.roles[i], true
}

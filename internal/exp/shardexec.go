package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"floodgate/internal/device"
	"floodgate/internal/topo"
	"floodgate/internal/units"
)

// This file is the sharded conservative-window executor (DESIGN.md
// §10). The cluster's shards advance in lockstep barrier windows whose
// span is bounded by the topology lookahead L — the minimum time a
// frame needs to cross any shard-cutting link (propagation plus
// minimum serialization). Within a window every shard executes
// independently; frames bound for another shard are staged in per-link
// mailboxes and handed over at the barrier, where they land strictly
// in the receiver's future. Windows are aligned to multiples of L and
// jump straight to the window containing the earliest queued event, so
// idle stretches (drain, RTO waits) cost one barrier per event
// cluster, not one per L.
//
// Everything decided at a barrier — early stop when the workload
// completes, the progress watchdog, the window schedule itself — reads
// only partition-invariant aggregates (the union of the shards' event
// queues, total delivered bytes, total completions). That is what
// makes the executor bit-identical across shard counts: a single-shard
// run executes the same events in the same order between the same
// barriers, and stops at the same quantized time.

// windowResult reports how the window loop ended.
type windowResult struct {
	stalled   bool
	diagnosis *StallDiagnosis
	census    *BarrierCensus // nil on the single-engine path
}

// BarrierCensus is what the barrier windows of a sharded run cost
// (ROADMAP item 6's instrument). The counts are deterministic; the
// wall-clock split is not and, like SnapshotMemStats, never reaches a
// table, fingerprint or -obs artifact.
type BarrierCensus struct {
	Windows  int             // barrier windows crossed
	Events   []uint64        // executed, per shard
	Critical uint64          // Σ per window of the busiest shard's events: all events / Critical is the scaling ceiling
	Frames   int             // cross-shard frames moved at barriers
	Busy     []time.Duration // inside Eng.Run, per shard
	Wait     time.Duration   // Σ per window of the wall time beyond its busiest shard's: the hand-off
	Exchange time.Duration   // the serial mailbox exchange
}

// runWindows drives the cluster to tEnd in conservative windows.
// done/total gate the quantized early stop; a positive horizon arms
// the barrier-level stall watchdog.
func runWindows(c *device.Cluster, tEnd units.Time, horizon units.Duration, done func() int, total int) windowResult {
	L := topo.Lookahead(c.Topo)
	var pool *shardPool
	var res windowResult
	if k := c.K(); k > 1 {
		pool = startShardPool(c, spinFor(k))
		defer pool.stop()
		res.census = &pool.census
	}
	u := units.Time(0)
	lastProgress := units.Time(0)
	lastDelivered := units.ByteSize(0)
	for {
		// Pick the window end: the smallest multiple of L at or after
		// the earliest queued event (partition-invariant once mailboxes
		// are empty), clamped to tEnd. Every event in the window then
		// sits within L of its end, so staged cross-shard frames always
		// arrive after the barrier.
		next := tEnd
		if minAt, ok := c.NextAt(); ok && minAt <= tEnd {
			if w := ceilMul(minAt, L); w < next {
				next = w
			}
		}
		if pool != nil {
			pool.runTo(next)
		} else {
			c.Nets[0].Eng.Run(next)
		}
		if next == u && u > 0 {
			panic("exp: shard window did not advance")
		}
		u = next
		if done() == total {
			break
		}
		if horizon > 0 {
			if d := c.DeliveredBytes(); d != lastDelivered {
				lastDelivered, lastProgress = d, u
			} else if u.Sub(lastProgress) >= horizon {
				res.stalled = true
				res.diagnosis = &StallDiagnosis{
					At:              u,
					Horizon:         horizon,
					IncompleteFlows: total - done(),
					StallSnapshot:   c.StallSnapshot(),
				}
				c.Nets[0].WatchdogTripped()
				break
			}
		}
		if u >= tEnd {
			break
		}
	}
	return res
}

// ceilMul rounds t up to the next multiple of the window span.
func ceilMul(t units.Time, l units.Duration) units.Time {
	step := units.Time(l)
	if step <= 0 {
		return t
	}
	return (t + step - 1) / step * step
}

// shardPool runs shards 1..k-1 on persistent worker goroutines; shard
// 0 executes on the coordinating goroutine. One barrier serves every
// window: the coordinator writes the window end and bumps gen; each
// worker awaits its next gen, runs its engine and bumps acked; the
// coordinator awaits acked reaching gen×(k−1). The two bumps are the
// happens-before edges that make barrier-time reads race-free: gen for
// until and quit, acked for engine queues, collectors, done counters,
// mailboxes and the panics and busy slots.
type shardPool struct {
	c     *device.Cluster
	spin  int // spinFor(k)
	until units.Time
	quit  bool
	gen   atomic.Uint64
	_     [56]byte // workers spin on gen: keep their acks off its cache line
	acked atomic.Uint64
	parks []parker // [0] is the coordinator's
	wg    sync.WaitGroup

	panics []any
	busy   []time.Duration // this window's, per shard
	census BarrierCensus
}

func startShardPool(c *device.Cluster, spin int) *shardPool {
	k := c.K()
	p := &shardPool{c: c, spin: spin, parks: make([]parker, k), panics: make([]any, k), busy: make([]time.Duration, k)}
	p.census = BarrierCensus{Events: make([]uint64, k), Busy: make([]time.Duration, k)}
	for i := range p.parks {
		p.parks[i].wake = make(chan struct{}, 1)
	}
	p.wg.Add(k - 1)
	for i := 1; i < k; i++ {
		go p.worker(i)
	}
	return p
}

func (p *shardPool) worker(i int) {
	defer p.wg.Done()
	for g := uint64(1); ; g++ {
		p.parks[i].await(&p.gen, g, p.spin)
		if p.quit {
			return
		}
		p.runShard(i)
		if p.acked.Add(1) == g*uint64(len(p.parks)-1) {
			p.parks[0].rouse()
		}
	}
}

// runShard advances shard i to the window end, timing it and keeping
// its panic for runTo.
func (p *shardPool) runShard(i int) {
	t0 := time.Now() //lint:allow walltime barrier census, never on a table or artifact path
	defer func() {
		p.busy[i] = time.Since(t0) //lint:allow walltime barrier census, never on a table or artifact path
		if v := recover(); v != nil {
			if i > 0 {
				// Fold in the shard's stack: the coordinator re-panics
				// from its own frame and would otherwise lose the origin.
				v = fmt.Errorf("shard %d: %v\n%s", i, v, debug.Stack())
			}
			p.panics[i] = v
		}
	}()
	p.c.Nets[i].Eng.Run(p.until)
}

// runTo advances every shard to the window end, waits for all of them
// and hands the staged cross-shard frames over. Panics (including
// shard 0's own) are re-raised only after every shard has acked, lowest
// shard index first — the same panic a serial execution would surface.
func (p *shardPool) runTo(until units.Time) {
	t0 := time.Now() //lint:allow walltime barrier census, never on a table or artifact path
	p.until = until
	p.release()
	p.runShard(0)
	p.parks[0].await(&p.acked, p.gen.Load()*uint64(len(p.parks)-1), p.spin)
	for _, v := range p.panics {
		if v != nil {
			panic(v)
		}
	}
	cs := &p.census
	var maxEv uint64
	var maxBusy time.Duration
	for i, n := range p.c.Nets {
		maxEv = max(maxEv, n.Eng.Processed-cs.Events[i])
		cs.Events[i] = n.Eng.Processed
		maxBusy = max(maxBusy, p.busy[i])
		cs.Busy[i] += p.busy[i]
	}
	t1 := time.Now() //lint:allow walltime barrier census, never on a table or artifact path
	cs.Windows++
	cs.Critical += maxEv
	cs.Wait += t1.Sub(t0) - maxBusy
	cs.Frames += p.c.ExchangeFrames()
	cs.Exchange += time.Since(t1) //lint:allow walltime barrier census, never on a table or artifact path
}

// stop retires the workers and returns once they have exited (deferred
// in runWindows, so on the panic path too).
func (p *shardPool) stop() {
	p.quit = true
	p.release()
	p.wg.Wait()
}

// release publishes until and quit with a gen bump and rouses any
// parked worker.
func (p *shardPool) release() {
	p.gen.Add(1)
	for i := 1; i < len(p.parks); i++ {
		p.parks[i].rouse()
	}
}

// spinBudget is how many times a barrier wait re-reads its word before
// parking. It must outlast a whole window of the partner's work (≈ 110
// µs per shard on the §6 mix): on incastmix_fg_shards2, two cores, 2^14
// (≈ 30 µs) parks almost every window and reads 3.21 s, 2^17 reads
// 2.33 s and 2^20 (≈ 1–2 ms) 2.17 s, against 3.40 s parking always.
const spinBudget = 1 << 20

// spinFor spins only when every shard has its own P. With fewer, a
// spinner burns the time slice its partner needs (an unbounded spin
// took `go test ./internal/exp` from 44 s to 581 s at k = 4 on two
// Ps), so those runs park at once.
func spinFor(k int) int {
	if runtime.GOMAXPROCS(0) >= k {
		return spinBudget
	}
	return 0
}

// parker is one barrier participant's sleep slot. A wake-up cannot be
// lost: the sleeper sets asleep, re-checks its word and only then
// sleeps; the waker changes the word first and sends the one token
// only if its Swap took the flag down.
type parker struct {
	asleep atomic.Bool
	wake   chan struct{}
	_      [48]byte // keep the neighbours' flags off this cache line
}

// await returns once word reads want: a bounded spin, then park.
func (w *parker) await(word *atomic.Uint64, want uint64, spin int) {
	for i := 0; word.Load() != want; i++ {
		if i < spin {
			continue
		}
		i = 0 // woken or not, the next wait spins afresh
		w.asleep.Store(true)
		if word.Load() != want || !w.asleep.Swap(false) {
			<-w.wake // not yet — or the waker took the flag down first and its token is coming
		}
	}
}

// rouse wakes the participant if it is parked; call after changing the
// word it awaits.
func (w *parker) rouse() {
	if w.asleep.Load() && w.asleep.Swap(false) {
		w.wake <- struct{}{}
	}
}

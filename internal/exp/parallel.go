package exp

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the run-level parallel executor. Every experiment's
// simulations are independent — Run is a pure function of (RunConfig,
// seed) with a private engine, collector, packet pool and RNG — so
// figures submit their runs to a shared worker pool and assemble
// output strictly in submission order. The tables produced are
// bit-identical to the serial path at any parallelism: workers share
// nothing mutable (see TestSharedNothing), and ordering only matters
// at assembly, which is sequential by construction.
//
// Shared-state audit (asserted by TestSharedNothing and the
// determinism test in parallel_test.go):
//
//   - workload.CDF values (Memcached, WebServer, ...) are written only
//     at package init; Sample/Quantile/Mean read Pts and never write.
//   - topo.Topology is immutable after Build(): routing tables and
//     ports are precomputed in freeze(), and the device layer only
//     takes pointers into them (switch.go keeps *topo.Port for rates).
//     Figures may therefore share one built topology across concurrent
//     runs (e.g. Fig13 reuses tp for all three schemes).
//   - Scheme factory closures (cc.Factory, device.FCFactory) capture
//     only value-type configs; each Run invokes them to mint private
//     per-flow / per-switch state.
//   - The two mutable package variables, windowOverride and
//     clusterBuilt, are test-only and set before any runs start.
//   - A batch's grid (Options.grid) holds its runs' reductions and its
//     experiments' tables; each entry is claimed through a sync.Map and
//     read only after its ready channel closes (memo).

// limiter is a resizable counting semaphore. All simulation fan-out in
// this package draws from one instance, so nested parallelism —
// whole experiments overlapped by floodsim -exp all, each fanning out
// its own runs — cannot oversubscribe the machine: at most `max`
// simulations execute at any moment, process-wide.
type limiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	max  int
	used int
}

func newLimiter() *limiter {
	l := &limiter{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// resize raises (never lowers below in-use) the concurrency cap.
func (l *limiter) resize(max int) {
	l.mu.Lock()
	if max > l.max {
		l.max = max
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

func (l *limiter) acquire() {
	l.mu.Lock()
	for l.used >= l.max {
		l.cond.Wait()
	}
	l.used++
	l.mu.Unlock()
}

func (l *limiter) inUse() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

func (l *limiter) release() {
	l.mu.Lock()
	l.used--
	l.cond.Signal()
	l.mu.Unlock()
}

// simSlots is the process-wide simulation pool. Experiment
// orchestration (building tables, reducing collectors) runs outside
// it; only the per-run jobs hold a slot.
var simSlots = newLimiter()

// parallelism resolves the Options knob: 0 means every core
// (GOMAXPROCS), 1 reproduces the serial path exactly (jobs run inline
// on the calling goroutine, no pool involved), n > 1 caps the pool.
//
// Sharded runs multiply: each concurrent simulation drives Shards
// goroutines, so a par×shards product above GOMAXPROCS would
// oversubscribe the machine with barrier-synchronized workers (the
// worst kind of oversubscription — every shard waits on the slowest).
// The knob is clamped to GOMAXPROCS/Shards (Oversubscribed words the
// notice); results are unaffected because parallelism never changes
// output.
func (o Options) parallelism() int {
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if k := o.shards(); k > 1 {
		par = min(par, max(runtime.GOMAXPROCS(0)/k, 1))
	}
	return par
}

// Oversubscribed is the rule beside Validate that floodsim prints: the
// notice that a batch runs fewer simulations at once than o asks for,
// because par × shards exceeds GOMAXPROCS, or "" when nothing is
// clamped.
func (o Options) Oversubscribed() string {
	asked := o.Parallelism
	if asked <= 0 {
		asked = runtime.GOMAXPROCS(0)
	}
	if runs := o.parallelism(); runs < asked {
		return fmt.Sprintf("exp: parallelism %d x %d shards oversubscribes GOMAXPROCS=%d; clamping to %d concurrent runs",
			asked, o.shards(), runtime.GOMAXPROCS(0), runs)
	}
	return ""
}

// runJobs executes job(0..n-1) on the shared pool and returns the
// results indexed by submission order. With parallelism 1 everything
// runs inline on the caller's goroutine — byte-for-byte the serial path;
// above it every job holds a slot (reduced relies on that). Each job
// must build its own topology, workload and scheme; nothing may be
// written to shared state (see the audit above).
func runJobs[T any](o Options, n int, job func(i int) T) []T {
	out := make([]T, n)
	par := o.parallelism()
	if par <= 1 {
		for i := 0; i < n; i++ {
			out[i] = job(i)
		}
		return out
	}
	simSlots.resize(par)
	// A panicking job must not crash the process from its worker
	// goroutine (unrecoverable) nor deadlock the WaitGroup: each worker
	// recovers, the panic is stored, and after every job settles the
	// lowest-index panic re-raises on the calling goroutine — the same
	// panic the serial path would have raised first, independent of
	// worker scheduling. The experiment boundary (RunByID) recovers it.
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[i] = v
				}
			}()
			simSlots.acquire()
			defer simSlots.release()
			out[i] = job(i)
		}(i)
	}
	wg.Wait()
	for i := range panics {
		if panics[i] != nil {
			panic(panics[i])
		}
	}
	return out
}

// RunMany executes independent simulation runs across the worker pool
// and returns results by submission index. Parallelism comes from the
// first config's Options; 1 degenerates to a serial loop. Output is
// bit-identical to calling Run in a loop regardless of parallelism.
func RunMany(rcs []RunConfig) []*RunResult {
	if len(rcs) == 0 {
		return nil
	}
	return runJobs(rcs[0].Opt, len(rcs), func(i int) *RunResult {
		return Run(rcs[i])
	})
}

// RunExperiments executes the given experiments, overlapping their
// simulations through the same shared pool, and streams each
// experiment's tables to emit strictly in the order given (paper
// order for floodsim -exp all). With parallelism 1 experiments run
// one after another exactly as before. The batch shares one grid
// (Options.grid): an experiment's tables, and a run two views read
// (reduced), are computed once. emit is always called from the calling
// goroutine.
func RunExperiments(ids []string, o Options, emit func(id string, tables []Table, err error)) {
	if err := o.Validate(); err != nil {
		for _, id := range ids {
			emit(id, nil, err)
		}
		return
	}
	o = o.inBatch()
	if o.parallelism() > 1 {
		for _, id := range ids {
			go runByID(id, o)
		}
	}
	for _, id := range ids {
		tables, err := runByID(id, o)
		emit(id, tables, err)
	}
}

// inBatch returns o with a grid: the batch's it shares, or a new one.
func (o Options) inBatch() Options {
	if o.grid == nil {
		o.grid = new(sync.Map)
	}
	return o
}

// outcome is an experiment's tables, or its error.
type outcome struct {
	tables []Table
	err    error
}

// memo is one entry of a batch's grid: the first caller to claim its
// key fills it, and every caller reads it once ready closes. A panic
// while filling stays in the entry and is raised again in every reader,
// so the entry settles even when its computation fails.
type memo[T any] struct {
	ready chan struct{}
	val   T
	fail  any
}

// claimMemo returns key's entry in grid and whether the caller owns
// filling it.
func claimMemo[T any](grid *sync.Map, key string) (*memo[T], bool) {
	v, seen := grid.LoadOrStore(key, &memo[T]{ready: make(chan struct{})})
	return v.(*memo[T]), !seen
}

func (m *memo[T]) fill(f func() T) {
	defer close(m.ready)
	defer func() { m.fail = recover() }()
	m.val = f()
}

func (m *memo[T]) wait() T {
	<-m.ready
	if m.fail != nil {
		panic(m.fail)
	}
	return m.val
}

// reduced returns reduce(Run(rc)), computed once per batch for each
// name (one per kind of reduction) and run key. Under -obs the
// experiment label joins the key, so every experiment still writes its
// own run files. The job that claims an entry first simulates; a job
// that finds it claimed hands its pool slot back while it waits, so a
// waiter costs no simulation slot. Call it from a runJobs job of a
// batch (Experiment.Run gives a lone experiment one): it panics without
// a grid, and above parallelism 1 when no job holds a slot.
func reduced[T any](o Options, name string, rc RunConfig, reduce func(*RunResult) T) T {
	if o.grid == nil {
		panic("exp: reduced outside a batch: give the Options a grid (inBatch)")
	}
	if s := rc.Scheme; (s.CC != nil && s.cc == nil) || (s.FC != nil && s.fc == nil) {
		panic(fmt.Sprintf("exp: scheme %q sets a factory without the config it was built from (Scheme.cc, Scheme.fc): runKey could not tell its runs apart", s.Name))
	}
	if o.parallelism() > 1 && simSlots.inUse() == 0 {
		panic("exp: reduced outside a runJobs job: it would give back a slot it does not hold")
	}
	key := name + "/" + runKey(rc)
	if o.Obs.Enabled() {
		key += "/" + o.Obs.experiment()
	}
	m, own := claimMemo[T](o.grid, key)
	if own {
		m.fill(func() T { return reduce(Run(rc)) })
	} else if o.parallelism() > 1 {
		simSlots.release()
		defer simSlots.acquire()
	}
	return m.wait()
}

// runByID runs one experiment of a batch once, memoising its outcome
// (RunByID's tables, or its error) in the grid for every caller.
func runByID(id string, o Options) ([]Table, error) {
	m, own := claimMemo[outcome](o.grid, "exp/"+id)
	if own {
		m.fill(func() outcome {
			tables, err := RunByID(id, o)
			return outcome{tables, err}
		})
	}
	r := m.wait()
	return r.tables, r.err
}

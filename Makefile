GO ?= go

.PHONY: build fmt test race vet lint fuzz bench bench-test examples profile loc ci

build:
	$(GO) build ./...

# gofmt must have nothing to say (its stderr is dropped: the lint
# fixtures under internal/lint/testdata/broken do not parse on purpose).
fmt:
	@test -z "$$(gofmt -l . 2>/dev/null)" || { echo "gofmt -l . lists:"; gofmt -l . 2>/dev/null; exit 1; }

test:
	$(GO) test ./...

# Race-check the concurrency layer: the run-level worker pool AND the
# sharded conservative-window executor (shardexec.go barriers, cross-
# shard mailboxes) both live in internal/exp — the rest of the suite is
# single-goroutine per shard, enforced by the floodlint goroutine rule.
# The simdebug tag arms the packet-pool and flow-pool lifecycle
# assertions, Floodgate's window conservation law and the switches'
# shared-buffer law, so the same run also catches double-release /
# use-after-release bugs, a leaked or inflated window and unbalanced
# buffer books — which is why the fault plane, the engine, the device
# lifecycle and the Floodgate tests ride along: seeded recovery runs
# (loss, flaps, restarts, the wedged-run watchdog) are where a packet or
# a recycled flow is most likely to be released twice, and where a
# window or a buffer is most likely to drift.
race:
	$(GO) test -race -tags simdebug -timeout 3600s ./internal/exp/... ./internal/fault ./internal/sim ./internal/device ./internal/core

# bench/ is its own module, outside ./...: vet it too.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Static analysis: go vet plus floodlint, the in-tree analyzer suite
# that enforces the determinism, pooling, units, shard-safety and
# event-ordering invariants (see DESIGN.md §7). Exit is nonzero on any
# finding; //lint:allow <rule> <reason> is the one suppression.
lint: vet
	$(GO) run ./cmd/floodlint ./...

# Fuzz the flow-file reader (the tree's fuzz target) for 30 s. Its seed
# corpus already runs in `make test`; this explores beyond it, so it
# stays out of ci. A crasher lands in internal/workload/testdata/fuzz.
fuzz:
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzSpecReader -fuzztime 30s

# The performance ledger (bench/README.md): every BENCHMARK.json
# workload with the setup/run split and the per-layer rungs. This is the
# only benchmark a performance claim may cite; the Benchmark* functions
# under `go test -bench` are conveniences for working on one path.
bench:
	bash bench/run.sh -seed 1

# bench/ is its own module compiled against the simulator's internals
# (sim, exp, device, core, stats, topo): a simulator API change that
# breaks it must fail CI here, not at the next benchmark run.
bench-test:
	$(GO) -C bench test ./...

# Build and run every example with its default flags, so the examples
# stay working code and not only compiling code. They print to stdout
# and write no files; paramsweep and incastmix take about 5 s each.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# CPU + heap profile of the macro incast benchmark, of the flow
# lifecycle under Memcached churn (the go-test twin of the ledger's
# memcached_churn_dcqcn), of set-up on the 102,400-host Clos (the twin
# of clos100k_incast_fg), and a CPU profile of the bare event queue at
# the ledger's replay shape (the go-test twin of the sim.replay_*
# rungs); inspect with `go tool pprof cpu.out`.
# floodsim -cpuprofile/-memprofile profile a full experiment instead.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkRunIncast' -benchtime 50x \
		-cpuprofile cpu.out -memprofile mem.out ./internal/exp
	$(GO) test -run '^$$' -bench 'BenchmarkFlowChurn' -benchtime 10x \
		-cpuprofile cpu.churn.out -memprofile mem.churn.out ./internal/exp
	$(GO) test -run '^$$' -bench 'BenchmarkClosSetup' -benchtime 20x \
		-cpuprofile cpu.clos.out -memprofile mem.clos.out ./internal/exp
	$(GO) test -run '^$$' -bench 'BenchmarkEngineReplay' -benchtime 5000000x \
		-cpuprofile cpu.sim.out ./internal/sim
	@echo "profiles written: cpu.out mem.out cpu.churn.out mem.churn.out cpu.clos.out mem.clos.out cpu.sim.out (go tool pprof <file>)"

# ROADMAP's size count: non-test Go lines outside bench/, in total and
# per internal package, command and the examples (the "small" aim, read
# from one command; the linter is internal/lint plus cmd/floodlint).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l | xargs echo total
	@for d in internal/*/ cmd/*/ examples/; do find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo $$d; done

ci: build fmt lint test race bench-test examples

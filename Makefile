# Montsalvat (Go reproduction) — common tasks.

GO ?= go

.PHONY: all build test race cover bench bench-scale-smoke bench-ring-smoke bench-orderly bench-full serve-smoke obs-smoke crash-smoke fabric-smoke obs-fabric-smoke orderly-smoke fuzz vet fmt examples clean

all: build test

build:
	$(GO) build ./...

# Tier-1: full suite, vet, and a race pass over the trusted-memory data
# path (mee, epc, heap, isolate: none of them locks, so their scratch
# buffers and the EPC memory are safe only under the owning world
# runtime's heapMu, which must wrap every isolate/heap call) and the
# boundary-crossing packages (the ring consumers, world's crossing and
# the batching queue and buffer pool of internal/boundary that it
# shares across goroutines are concurrent, as are the telemetry
# instruments they all publish into; wire values share their payloads
# between copies, and the pooled activation records in world and the
# cached sealing cipher in sgx are reused across goroutines; a
# channel's two directions run on two goroutines, and handle namespaces
# are shared by a session's in-flight requests; DirFS shares one table
# of open file handles). The lane ledgers, the gateway's and the
# recovery passes', and the gateway's lifecycle gate (Shutdown and
# Recover drains against typed refusals) are re-run on 4 Ps, three
# times, to show they repeat under real parallelism. The benchmark
# harness is its own module (benchmark/go.mod), so ./... does not reach
# it: it is vetted and tested on its own, outside any workspace.
test:
	$(GO) test ./...
	$(GO) vet ./...
	GOFLAGS= GOWORK=off $(GO) -C benchmark vet ./...
	GOFLAGS= GOWORK=off $(GO) -C benchmark test ./...
	GOMAXPROCS=4 $(GO) test -count=3 -run 'TestCycleLedgerGolden|TestLane' ./internal/world
	GOMAXPROCS=4 $(GO) test -count=3 -run 'TestRecovery' ./internal/persist
	GOMAXPROCS=4 $(GO) test -count=3 -run 'TestGatewayLifecycleGate|TestServeDrain|TestGateway|TestRecoverReentersLanes' ./internal/serve
	$(GO) test -race ./internal/channel/... ./internal/registry/... ./internal/wire/... ./internal/boundary/... ./internal/mee/... ./internal/epc/... ./internal/heap/... ./internal/isolate/... ./internal/sgx/... ./internal/ring/... ./internal/world/... ./internal/serve/... ./internal/telemetry/... ./internal/persist/... ./internal/fabric/... ./internal/orderly/... ./internal/shim/...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# testing.B benchmarks (quick experiment scale + substrate benchmarks).
bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# Parallel-scaling sanity check: boot the gateway in-process and compare
# 1-client vs 2-client attested throughput through the worker pool and
# the sharded crossing engine; fails on zero parallel throughput or any
# request error.
bench-scale-smoke:
	$(GO) run ./cmd/montsalvat-serve -clients 2 -requests 32

# Zero-copy data plane check: run the bounded ring-vs-frame payload
# sweep (virtual cost accounting, quick scale) — fails if the ring path
# or its fallback routes misbehave at any payload size.
bench-ring-smoke:
	$(GO) run ./cmd/montsalvat-bench -experiment ring-sweep -quick -spin=false

# Regenerate every paper table/figure at full scale (minutes).
bench-full:
	$(GO) run ./cmd/montsalvat-bench

# End-to-end gateway check: boot the enclave gateway over the secure KV
# program, fire a 32-session attested load burst at it over loopback,
# drain, and fail on any handshake failure or request error.
serve-smoke:
	$(GO) run ./cmd/montsalvat-serve -smoke -sessions 32 -requests 16

# Observability check: same gateway smoke with the live introspection
# endpoint up — the run scrapes its own /metrics and /traces and fails
# unless the core metric families and a sampled cross-boundary trace
# (ecall with nested ocall) are present.
obs-smoke:
	$(GO) run ./cmd/montsalvat-serve -smoke -sessions 16 -requests 16 -metrics-addr 127.0.0.1:0

# Durability check: boot a durable gateway (sealed WAL + checkpoints +
# monotonic-counter rollback protection), kill and recover the enclave
# twice with attested sessions re-established after each crash, and fail
# unless every acked write survives both.
crash-smoke:
	$(GO) run ./cmd/montsalvat-serve -crash-smoke -sessions 8 -requests 16

# Fabric check: boot a 4-shard x 1-replica fabric in one process, drive
# a concurrent routed load burst, kill one primary mid-run, promote its
# replica, and fail unless every acked write reads back afterwards.
fabric-smoke:
	$(GO) run ./cmd/montsalvat-fabric -shards 4 -replicas 1 -load -failover -clients 4 -requests 32

# Fleet observability check: run the fabric load + failover drill with
# the observability plane mounted (2 replicas so a ship fan-out spans 3
# Worlds) and -obs-check asserting its core promises: one trace ID
# spanning at least three Worlds, a complete kill -> promote-begin
# -> promote-commit -> epoch-bump timeline in the event journal, and
# traced commit-leader spans parenting the ship spans (so the trace
# attributes every replica delta to the round that shipped it).
obs-fabric-smoke:
	$(GO) run ./cmd/montsalvat-fabric -shards 3 -replicas 2 -load -failover -clients 4 -requests 24 -metrics-addr 127.0.0.1:0 -obs-check

# Model-check smoke: bounded exhaustive exploration of the boundary,
# recovery, and failover state machines. The serve side sweeps the
# in-process world alphabet (exhaustive depth 6, a deep states-bounded
# pass, lockrank-armed passes over world and served gateway); the
# fabric side exhausts the two-shard failover alphabet. Fails on any
# invariant violation, printing the shrunk trace as a replayable seed.
orderly-smoke:
	$(GO) run ./cmd/montsalvat-serve -orderly-check
	$(GO) run ./cmd/montsalvat-fabric -orderly-check

# Model-checker throughput: the orderly-rate experiment (the orderly
# explorer's budgeted deep mode) appends its distinct states/sec per
# configuration to BENCH.json as one record; an invariant violation
# fails the run.
bench-orderly:
	$(GO) run ./cmd/montsalvat-bench -experiment orderly-rate -quick -spin=false -json BENCH.json

# Every fuzz target in the tree, FUZZTIME each (`go test -fuzz` takes
# one target of one package per run). A target added anywhere joins the
# run without an edit here.
FUZZTIME ?= 30s
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run=NONE -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

vet:
	$(GO) vet ./...
	gofmt -l .

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/securekv
	$(GO) run ./examples/pagerank
	$(GO) run ./examples/unpartitioned

clean:
	$(GO) clean ./...

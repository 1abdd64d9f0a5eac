# Montsalvat (Go reproduction) — common tasks.

GO ?= go

.PHONY: all build test race cover bench bench-orderly bench-full orderly-smoke fuzz vet fmt examples clean

all: build test

build:
	$(GO) build ./...

# Tier-1: full suite, vet, and a race pass over the trusted-memory data
# path (mee, epc, heap, isolate: none of them locks, so their scratch
# buffers and the EPC memory are safe only under the owning world
# runtime's heapMu, which must wrap every isolate/heap call) and the
# boundary-crossing packages (ring callers, each running its call's far
# side on its own goroutine under a ring's producer lock, world's
# crossing and the batching queue and buffer pool of internal/boundary
# that it shares across goroutines are concurrent, as are the telemetry
# instruments they all publish into; wire values share their payloads
# between copies, and the pooled activation records in world and the
# cached sealing cipher in sgx are reused across goroutines; a
# channel's two directions run on two goroutines, and handle namespaces
# are shared by a session's in-flight requests; DirFS shares one table
# of open file handles; internal/smoke serves a durable gateway over
# loopback, crashes and recovers it, and scrapes its live telemetry
# endpoint, the end-to-end checks the CLIs no longer carry). The lane
# ledgers, the gateway's and the
# recovery passes', the void relays on every route, the GC-helper steps
# (swept by the collecting goroutine, beside concurrent mutators) and the
# gateway's lifecycle gate (Shutdown and Recover drains against typed
# refusals), the handles a callee uses on its caller's behalf, the one
# handle a list element a method body reads takes, a ref whose handle
# slot went to another object, the in-enclave put stream's ledger and
# the ring data plane (world's ring tests and
# internal/ring) are re-run on 4 Ps, ten times, to show they repeat
# under real parallelism. The MEE's portable block path (other architectures,
# amd64 without AES-NI) is tested under -tags purego and cross-vetted for
# arm64, since an amd64 host with AES-NI runs the assembly kernel. The benchmark
# harness is its own module (benchmark/go.mod), so ./... does not reach
# it: it is vetted and tested on its own, outside any workspace. The
# product-surface check (internal/surface) runs inside the first line:
# it type-checks this module and benchmark/, and fails on an exported
# name in internal/ that only tests reference, or on a struct field
# that is written and never read.
test:
	$(GO) test ./...
	$(GO) vet ./...
	$(GO) test -tags purego ./internal/mee ./internal/epc
	GOARCH=arm64 $(GO) vet ./internal/mee ./internal/epc
	GOFLAGS= GOWORK=off $(GO) -C benchmark vet ./...
	GOFLAGS= GOWORK=off $(GO) -C benchmark test ./...
	GOMAXPROCS=4 $(GO) test -count=10 -run 'TestCycleLedgerGolden|TestKVPutLedgerGolden|TestScannedElementsHoldOneHandle|TestStaleRefNeverAliases|TestLane|TestVoidRelay|TestGCHelper|TestHelpers|TestCalleeBorrowsCallerRetentions|TestBodyResolvesSelfOnce|TestRing' ./internal/world
	GOMAXPROCS=4 $(GO) test -count=10 ./internal/ring
	GOMAXPROCS=4 $(GO) test -count=10 -run 'TestRecovery' ./internal/persist
	GOMAXPROCS=4 $(GO) test -count=10 -run 'TestGatewayLifecycleGate|TestServeDrain|TestGateway|TestRecoverReentersLanes' ./internal/serve
	$(GO) test -run NONE -bench . -benchtime 1x -benchmem ./internal/heap ./internal/epc ./internal/isolate ./internal/world
	$(GO) test -race ./internal/channel/... ./internal/registry/... ./internal/wire/... ./internal/boundary/... ./internal/mee/... ./internal/epc/... ./internal/heap/... ./internal/isolate/... ./internal/sgx/... ./internal/ring/... ./internal/world/... ./internal/serve/... ./internal/telemetry/... ./internal/persist/... ./internal/fabric/... ./internal/orderly/... ./internal/shim/... ./internal/smoke/...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# testing.B benchmarks (quick experiment scale + substrate benchmarks).
bench:
	$(GO) test -bench=. -benchmem -run=NONE .

# Regenerate every paper table/figure at full scale (all 24 experiments:
# 78 s on a 2-core host, plus the build).
bench-full:
	$(GO) run ./cmd/montsalvat-bench

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
# configuration to BENCH.json as one record labelled LABEL; an invariant
# violation fails the run.
LABEL ?= run
bench-orderly:
	$(GO) run ./cmd/montsalvat-bench -experiment orderly-rate -quick -json BENCH.json -label $(LABEL)

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
	test -z "$$(gofmt -l .)"

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/securekv
	$(GO) run ./examples/pagerank
	$(GO) run ./examples/unpartitioned

clean:
	$(GO) clean ./...

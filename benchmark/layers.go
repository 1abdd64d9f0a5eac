package main

import (
	"montsalvat/internal/fabric"
	"montsalvat/internal/persist"
	"montsalvat/internal/serve"
	"montsalvat/internal/world"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists
// the same names, units and directions; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are the metrics a user of the system sees. Each is
// emitted, and is never 0, on every workload. Host-currency metrics are
// wall clock or CPU time on this machine; cycles_per_op is the
// simulated currency of the paper's virtual-cycle ledger.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"get_p90_us", "us", "lower", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"put_p90_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
	{"cycles_per_op", "cycles", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs are the metrics of single layers, layer = module name.
// Counts come from the sequential passes and are per op of the seeded
// ledger stream; *_us and *_ns are host time, *_cycles simulated.
var perLayerDefs = []metricDef{
	{"world.self_us", "us", "lower", 0},
	{"world.get_self_us", "us", "lower", 0},
	{"world.self_cycles", "cycles", "lower", 0},
	{"world.cycles_per_op", "cycles", "lower", 0},
	{"world.remote_calls_per_op", "count", "lower", 0},
	{"world.proxies_per_op", "count", "lower", 0},
	{"world.marshalled_bytes_per_op", "bytes", "lower", 0},
	{"boundary.route_ring_share", "ratio", "higher", 0},
	{"boundary.route_switchless_share", "ratio", "higher", 0},
	{"boundary.route_full_share", "ratio", "lower", 0},
	{"boundary.route_fallback_share", "ratio", "lower", 0},
	{"boundary.batch_size", "count", "higher", 0},
	{"boundary.batched_calls_per_op", "count", "higher", 0},
	{"ring.doorbells_per_submit", "ratio", "lower", 0},
	{"ring.stalls_per_op", "count", "lower", 0},
	{"ring.sealed_bytes_per_op", "bytes", "lower", 0},
	{"ring.overflow_bytes_per_op", "bytes", "lower", 0},
	{"sgx.ecalls_per_op", "count", "lower", 0},
	{"sgx.ocalls_per_op", "count", "lower", 0},
	{"sgx.switchless_calls_per_op", "count", "higher", 0},
	{"sgx.seal_us_per_kib", "us/kib", "lower", 0},
	{"mee.copied_bytes_per_op", "bytes", "lower", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.bytes_per_op", "bytes", "lower", 0},
	{"heap.trusted_collections_per_kop", "count", "lower", 0},
	{"heap.trusted_bytes_copied_per_op", "bytes", "lower", 0},
	{"heap.gc_pause_ms_total", "ms", "lower", 0},
	{"registry.released_per_op", "count", "lower", 0},
	{"registry.sweeps", "count", "lower", 0},
	{"serve.self_us", "us", "lower", 0},
	{"serve.get_self_us", "us", "lower", 0},
	{"serve.self_cycles", "cycles", "lower", 0},
	{"serve.handshake_ms", "ms", "lower", 0},
	{"serve.wire_bytes_per_op", "bytes", "lower", 0},
	{"serve.rejected_ratio", "ratio", "lower", 0},
	{"serve.peak_inflight", "count", "lower", 0},
	{"persist.self_us", "us", "lower", 0},
	{"persist.self_cycles", "cycles", "lower", 0},
	{"persist.append_us", "us", "lower", 0},
	{"persist.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"persist.records_per_frame", "count", "higher", 0},
	{"persist.checkpoints", "count", "lower", 0},
	{"persist.replayed_records", "count", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"shim.self_us", "us", "lower", 0},
	{"shim.self_cycles", "cycles", "lower", 0},
	{"shim.dirfs_append_us", "us", "lower", 0},
	{"shim.memfs_append_us", "us", "lower", 0},
	{"shim.ocalls_per_op", "count", "lower", 0},
	{"fabric.route_self_us", "us", "lower", 0},
	{"fabric.ship_self_us", "us", "lower", 0},
	{"fabric.route_self_cycles", "cycles", "lower", 0},
	{"fabric.ship_self_cycles", "cycles", "lower", 0},
	{"fabric.ship_rounds_per_op", "count", "lower", 0},
	{"fabric.ship_bytes_per_op", "bytes", "lower", 0},
	{"fabric.sync_fallbacks", "count", "lower", 0},
	{"fabric.redirects_per_op", "count", "lower", 0},
	{"fabric.shard_busy_skew", "ratio", "lower", 0},
	{"fabric.modeled_puts_per_s", "1/s", "higher", 0},
	{"fabric.boot_ms", "ms", "lower", 0},
	{"fabric.promote_cycles", "cycles", "lower", 0},
	{"core.build_ms", "ms", "lower", 0},
	{"host.calib_ns", "ns", "lower", 0},
	{"host.alloc_bytes_per_op", "bytes", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.heap_inuse_mb", "mb", "lower", 0},
	{"host.invol_ctx_switches", "count", "lower", 0},
	{"driver.get_p99_us", "us", "lower", 0},
	{"driver.put_p99_us", "us", "lower", 0},
	{"driver.ops", "count", "higher", 0},
	{"driver.round_spread", "ratio", "lower", 0},
	{"driver.cycles_repeat_diff", "ratio", "lower", 0},
	{"driver.ladder_gap_ratio", "ratio", "lower", 0},
	{"driver.trace_overhead_ratio", "ratio", "lower", 0},
	{"driver.failed_ratio", "ratio", "lower", 0},
	{"driver.lost_acked_writes", "count", "lower", 0},
}

// snapshot is one reading of every public Stats struct a stack exposes.
// Layers are measured from outside: a count is the difference of two
// snapshots around a pass.
type snapshot struct {
	world   world.Stats
	serve   serve.Stats
	persist persist.Stats
	fabric  fabric.Stats
	router  fabric.RouterStats
	busy    map[int]int64
}

func (st *stack) snapshot() snapshot {
	var sn snapshot
	if st.world != nil {
		sn.world = st.world.Stats()
	}
	if st.gateway != nil {
		sn.serve = st.gateway.W.Stats()
		if m := st.gateway.Manager(); m != nil {
			sn.persist = m.Stats()
		}
	}
	if st.fabric != nil {
		sn.fabric = st.fabric.Stats()
		sn.busy = st.fabric.ShardBusyCycles()
		sn.router = st.router.Stats()
	}
	return sn
}

// modelHz converts the busiest shard's virtual cycles into a modelled
// rate: the clock of the paper's evaluation machine.
const modelHz = 3.8e9

// worldCounts reports the crossing engine's layers (world, boundary,
// ring, sgx, mee, heap, registry, shim) from two world.Stats readings
// around ops operations.
func worldCounts(o *outcome, a, b world.Stats, ops int) {
	n := float64(ops)
	per := func(name string, d float64) { o.set(name, d/n, ops) }
	da, db := a.Dispatch, b.Dispatch

	per("world.remote_calls_per_op", float64(b.Trusted.RemoteCallsOut+b.Untrusted.RemoteCallsOut-a.Trusted.RemoteCallsOut-a.Untrusted.RemoteCallsOut))
	per("world.proxies_per_op", float64(b.Trusted.ProxiesCreated+b.Untrusted.ProxiesCreated-a.Trusted.ProxiesCreated-a.Untrusted.ProxiesCreated))
	per("world.marshalled_bytes_per_op", float64(b.Trusted.MarshalledBytes+b.Untrusted.MarshalledBytes-a.Trusted.MarshalledBytes-a.Untrusted.MarshalledBytes))

	ringCalls := float64(db.RingCalls - da.RingCalls)
	switchless := float64(db.SwitchlessCalls - da.SwitchlessCalls)
	full := float64(db.FullCalls - da.FullCalls)
	fellBack := float64(db.FallbackCalls + db.RingFallbacks + db.RingOversize - da.FallbackCalls - da.RingFallbacks - da.RingOversize)
	crossings := ringCalls + switchless + full
	o.set("boundary.route_ring_share", ratio(ringCalls, crossings), int(crossings))
	o.set("boundary.route_switchless_share", ratio(switchless, crossings), int(crossings))
	o.set("boundary.route_full_share", ratio(full, crossings), int(crossings))
	o.set("boundary.route_fallback_share", ratio(fellBack, crossings), int(crossings))
	flushes := float64(db.BatchFlushes - da.BatchFlushes)
	batched := float64(db.BatchedCalls - da.BatchedCalls)
	o.set("boundary.batch_size", ratio(batched, flushes), int(flushes))
	per("boundary.batched_calls_per_op", batched)

	submits := float64(db.RingSubmits - da.RingSubmits)
	o.set("ring.doorbells_per_submit", ratio(float64(db.RingDoorbells-da.RingDoorbells), submits), int(submits))
	per("ring.stalls_per_op", float64(db.RingStalls-da.RingStalls))
	per("ring.sealed_bytes_per_op", float64(db.RingSealedBytes-da.RingSealedBytes))
	per("ring.overflow_bytes_per_op", float64(db.RingOverflowBytes-da.RingOverflowBytes))

	per("sgx.ecalls_per_op", float64(b.Enclave.Ecalls-a.Enclave.Ecalls))
	per("sgx.ocalls_per_op", float64(b.Enclave.Ocalls-a.Enclave.Ocalls))
	per("sgx.switchless_calls_per_op", float64(b.Enclave.SwitchlessEcalls+b.Enclave.SwitchlessOcalls-a.Enclave.SwitchlessEcalls-a.Enclave.SwitchlessOcalls))
	per("mee.copied_bytes_per_op", float64(db.MEECopiedBytes-da.MEECopiedBytes))

	o.set("heap.trusted_collections_per_kop", 1000*float64(b.TrustedHeap.Collections-a.TrustedHeap.Collections)/n, ops)
	per("heap.trusted_bytes_copied_per_op", float64(b.TrustedHeap.BytesCopied-a.TrustedHeap.BytesCopied))
	pause := b.TrustedHeap.TotalPause + b.UntrustedHeap.TotalPause - a.TrustedHeap.TotalPause - a.UntrustedHeap.TotalPause
	o.set("heap.gc_pause_ms_total", float64(pause)/1e6, ops)
	per("registry.released_per_op", float64(b.TrustedSweeps.Released+b.UntrustedSweeps.Released-a.TrustedSweeps.Released-a.UntrustedSweeps.Released))
	o.set("registry.sweeps", float64(b.TrustedSweeps.Sweeps+b.UntrustedSweeps.Sweeps-a.TrustedSweeps.Sweeps-a.UntrustedSweeps.Sweeps), ops)
	per("shim.ocalls_per_op", float64(b.Shim.Ocalls-a.Shim.Ocalls))
}

// serveCounts reports the gateway's traffic from two serve.Stats
// readings around ops operations.
func serveCounts(o *outcome, a, b serve.Stats, ops int) {
	o.set("serve.wire_bytes_per_op", float64(b.BytesIn+b.BytesOut-a.BytesIn-a.BytesOut)/float64(ops), ops)
}

// admission reports how the gateway's admission control fared over a
// whole run, from its counters at the end.
func admission(o *outcome, s serve.Stats) {
	rejected := s.RejectedOverload + s.RejectedDraining + s.RejectedDeadline + s.RejectedForeign +
		s.RejectedSession + s.RejectedSessionBusy + s.RejectedWrongShard
	o.set("serve.rejected_ratio", ratio(float64(rejected), float64(s.Requests+rejected)), int(s.Requests+rejected))
	o.set("serve.peak_inflight", float64(s.PeakInFlight), int(s.Requests))
}

// persistCounts reports the write-ahead log's amplification and framing
// from two persist.Stats readings around a pass over which the log's
// files grew by walBytes.
func persistCounts(o *outcome, a, b persist.Stats, walBytes int64) {
	appends := float64(b.Appends - a.Appends)
	frames := appends
	if g := b.GroupCommits - a.GroupCommits; g > 0 {
		appends, frames = float64(b.GroupedRecords-a.GroupedRecords), float64(g)
	}
	o.set("persist.records_per_frame", ratio(appends, frames), int(frames))
	o.set("persist.wal_bytes_per_user_byte", ratio(float64(walBytes), float64(b.AppendedBytes-a.AppendedBytes)), int(appends))
	o.set("persist.checkpoints", float64(b.Checkpoints-a.Checkpoints), 1)
}

// fabricCounts reports routing and replication from two snapshots of a
// fabric stack around ops operations.
func fabricCounts(o *outcome, a, b snapshot, ops int) {
	n := float64(ops)
	o.set("fabric.ship_rounds_per_op", float64(b.fabric.ShipRounds-a.fabric.ShipRounds)/n, ops)
	o.set("fabric.ship_bytes_per_op", float64(b.fabric.ShipBytes-a.fabric.ShipBytes)/n, ops)
	o.set("fabric.sync_fallbacks", float64(b.fabric.SyncFallbacks-a.fabric.SyncFallbacks), ops)
	o.set("fabric.redirects_per_op", float64(b.router.Redirects-a.router.Redirects)/n, ops)
	var busiest, total float64
	for id, c := range b.busy {
		d := float64(c - a.busy[id])
		total += d
		if d > busiest {
			busiest = d
		}
	}
	o.set("fabric.shard_busy_skew", ratio(busiest, total/float64(len(b.busy))), len(b.busy))
	o.set("fabric.modeled_puts_per_s", ratio(n*modelHz, busiest), ops)
}

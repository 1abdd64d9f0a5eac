package fabric

// shipper.go drives checkpoint shipping for one primary→replica pair:
// it owns the attested peer channel and the locally tracked inventory
// of what the replica holds, and pushes incremental ReplicaDeltas. The
// shard's round leader (shard.go) drives it, and acks gate on the
// acked-LSN watermark it maintains. A paused shipper (test and
// operations hook) is skipped by every round: that is exactly how a
// replica goes stale, and what the promotion-time rollback check
// exists to catch.
//
// Locking: ioMu serialises whole ship rounds (delta capture, the
// network round-trip, the inventory update) so concurrent callers —
// a round leader and a checkpoint ship — never interleave deltas out
// of order. paused is an atomic flag, so pause/resume never wait behind
// a network round-trip. ackedLSN is the replica's replication
// watermark: the highest primary LSN this replica has durably applied,
// advanced monotonically after every successful (or provably empty)
// round.
//
// Each ship round is instrumented on the primary's registry under the
// montsalvat_persist_ship_* family (bytes shipped, wall-clock latency,
// per-replica failures) and, when the triggering request was traced,
// recorded as a child span of that request — the ack path's replication
// cost is visible per-trace, not just in aggregate.

import (
	"sync/atomic"
	"time"

	"montsalvat/internal/lockrank"
	"montsalvat/internal/persist"
	"montsalvat/internal/telemetry"
)

type shipper struct {
	node *shardNode
	conn *PeerConn

	// Shipping instruments, cached off the node's registry (nil-safe:
	// a node without telemetry ships with zero overhead past a branch).
	bytesShipped *telemetry.Counter
	latency      *telemetry.Histogram
	failures     *telemetry.Counter

	// ioMu serialises ship rounds and guards have. Held across the
	// network round-trip by design (rounds must not interleave), which
	// is why paused is not under it.
	ioMu lockrank.Mutex
	have map[string]int64

	// paused makes every round skip this replica (shardNode.shipRound).
	paused atomic.Bool

	// ackedLSN is the highest primary LSN known durably applied at the
	// replica — the input to the shard's replication watermark. CAS
	// keeps it monotonic even if a slow round finishes after a newer
	// one.
	ackedLSN atomic.Uint64
}

// newShipper wraps a freshly attested channel, seeding the inventory
// from the replica's own answer so re-attachment after a partial ship
// stays incremental.
func newShipper(node *shardNode, conn *PeerConn) (*shipper, error) {
	have, err := conn.Have()
	if err != nil {
		return nil, err
	}
	reg := node.tel.Registry()
	sh := &shipper{
		node:         node,
		conn:         conn,
		have:         have,
		bytesShipped: reg.Counter("montsalvat_persist_ship_bytes_total"),
		latency:      reg.Histogram("montsalvat_persist_ship_latency_ns"),
		failures:     reg.Counter("montsalvat_persist_ship_failures_total", "replica", conn.RemoteOrigin()),
	}
	sh.ioMu.SetRank(lockrank.RankShipIO, "fabric.shipper.ioMu")
	return sh, nil
}

// ship pushes one delta round, continuing sc's trace (the round
// waiting on this) into a per-replica ship span. Pausing is the round's
// business (shardNode.shipRound), not ship's. Lock order: the node's
// manager pointer is resolved (under n.mu) before sh.ioMu, because n.mu
// ranks above ioMu in the hierarchy; the manager's own mutex is then
// taken inside ReplicaDelta while ioMu is held. Callers hold neither
// n.mu nor the manager's mutex when calling.
func (sh *shipper) ship(sc telemetry.SpanContext) error {
	mgr := sh.node.manager()
	sh.ioMu.Lock()
	defer sh.ioMu.Unlock()
	d, err := mgr.ReplicaDelta(sh.have)
	if err != nil {
		sh.failures.Inc()
		return err
	}
	if d.Empty() {
		// Nothing to move: the replica already held everything up to
		// the cut — the watermark still advances.
		sh.noteAcked(d.LastLSN)
		return nil
	}
	sp := sh.node.tel.Tracer().StartRemote(sc, "ship "+sh.conn.RemoteOrigin())
	sp.SetSealedBytes(d.Bytes())
	start := time.Now()
	if _, _, err := sh.conn.ShipCtx(sp.Context(), d); err != nil {
		sh.failures.Inc()
		sp.Finish(err)
		return err
	}
	sh.latency.ObserveDuration(time.Since(start))
	sh.bytesShipped.Add(uint64(d.Bytes()))
	sp.Finish(nil)
	persist.UpdateHave(sh.have, d)
	sh.noteAcked(d.LastLSN)
	sh.node.fab.shipRounds.Add(1)
	sh.node.fab.shipBytes.Add(uint64(d.Bytes()))
	sh.node.tel.Events().Emit(telemetry.EventShip, ShardOrigin(sh.node.id), sc.TraceID,
		"%d bytes to %s", d.Bytes(), sh.conn.RemoteOrigin())
	return nil
}

// noteAcked advances the replication watermark monotonically.
func (sh *shipper) noteAcked(lsn uint64) {
	for {
		cur := sh.ackedLSN.Load()
		if lsn <= cur || sh.ackedLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

func (sh *shipper) close() {
	sh.conn.Close()
}

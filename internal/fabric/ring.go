// Package fabric shards one logical Montsalvat World across N enclave
// gateways and replicates each shard for failover — the horizontal
// scaling layer over internal/serve and internal/persist.
//
// Three mechanisms compose:
//
//   - A partition router: the demo KV keyspace is spread over the
//     shards by a consistent-hash ring (Table). Every gateway installs
//     the ring as its serve.ShardCheck predicate, so a request for a
//     key the shard does not own is rejected with a typed
//     serve.WrongShardError naming the owner; clients (Router) refresh
//     their table on redirects and retry toward the owner under a
//     bounded redirect budget.
//
//   - Attested enclave-to-enclave channels: the serve X25519+quote
//     handshake applied symmetrically — each side quotes the key
//     exchange transcript and verifies the other's measurement — giving
//     an AES-256-GCM peer channel from a primary to each of its
//     standbys with no client in the loop. The channel carries
//     replication only: an inventory request and delta shipments.
//
//   - Checkpoint-shipping replication: each primary streams its sealed
//     durable root (persist checkpoints + WAL tail + monotonic-counter
//     file) to a warm-standby replica over the peer channel,
//     synchronously inside the gateway's Journal hook — a write is
//     acked only after it is both durable and replicated. Promote
//     recovers the replica from the shipped root and splices it into
//     the routing table at a new epoch; a replica whose recovered
//     counter stamp or LSN trails what the dead primary had acked is
//     rejected (ErrStaleReplica) — the monotonic-counter rollback
//     defense extended across machines.
package fabric

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodesPerShard is the number of ring points each shard contributes.
// More points smooth the key distribution; 64 keeps the imbalance under
// a few percent for the shard counts the fabric targets (1–16).
const vnodesPerShard = 64

// ShardInfo names one shard of the fabric as clients see it.
type ShardInfo struct {
	// ID is the stable shard identity; keys map to IDs, and promotion
	// keeps the ID while changing the address and measurement.
	ID int
	// Addr is the shard's current gateway address.
	Addr string
	// Measurement is the enclave measurement clients must verify when
	// attesting a session to this shard.
	Measurement [32]byte
}

// ShardOrigin is the canonical namespace origin for a shard ID.
func ShardOrigin(id int) string { return fmt.Sprintf("shard-%d", id) }

// Table is one epoch of the routing topology: the shard set and the
// consistent-hash ring derived from it. Tables are immutable; topology
// changes (promotion) publish a new table at a higher epoch.
type Table struct {
	// Epoch increases with every topology change. A gateway rejecting a
	// wrong-shard request stamps its epoch into the redirect, so a
	// client holding an older table knows a refresh is not optional.
	Epoch  uint64
	Shards []ShardInfo

	points []ringPoint
}

type ringPoint struct {
	hash uint64
	id   int
}

// NewTable builds the ring for a shard set. The ring depends only on
// shard IDs, so every node of the fabric — and every client — derives
// the same key→shard mapping from the same membership, regardless of
// address changes.
func NewTable(epoch uint64, shards []ShardInfo) Table {
	t := Table{Epoch: epoch, Shards: append([]ShardInfo(nil), shards...)}
	t.points = make([]ringPoint, 0, len(shards)*vnodesPerShard)
	for _, s := range t.Shards {
		for v := 0; v < vnodesPerShard; v++ {
			t.points = append(t.points, ringPoint{hash: ringHash(fmt.Sprintf("shard-%d/vnode-%d", s.ID, v)), id: s.ID})
		}
	}
	sort.Slice(t.points, func(i, j int) bool {
		if t.points[i].hash != t.points[j].hash {
			return t.points[i].hash < t.points[j].hash
		}
		return t.points[i].id < t.points[j].id
	})
	return t
}

// Owner maps a key to the shard that owns it: the first ring point at
// or after the key's hash, wrapping at the top.
func (t Table) Owner(key string) int {
	if len(t.points) == 0 {
		return -1
	}
	h := ringHash(key)
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].hash >= h })
	if i == len(t.points) {
		i = 0
	}
	return t.points[i].id
}

// Shard returns the info for a shard ID.
func (t Table) Shard(id int) (ShardInfo, bool) {
	for _, s := range t.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return ShardInfo{}, false
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	// fnv-1a's trailing bytes pass through only one multiply each, which
	// clusters sequential keys ("user:0001", "user:0002", ...) onto
	// nearby ring positions. A 64-bit finalizer restores avalanche.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

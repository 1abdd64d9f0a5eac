package fabric

// fabric.go is the controller: it boots N primary shards and R warm
// standbys per shard inside one process, wires the replication channels
// (mutually attested, gating every ack), publishes the
// routing table, and drives the failure-handling verbs — KillShard
// captures the acked position of a dying primary, Promote recovers a
// standby against it. One signer and one platform secret span the
// fabric: every enclave carries the same MRSIGNER, so sealed state
// ships between them, while each World keeps its own measurement-bound
// attested endpoints.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/core"
	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
)

// Options configures a Fabric.
type Options struct {
	// Shards is the number of primaries the keyspace is partitioned
	// over (>= 1).
	Shards int
	// Replicas is the number of warm standbys per shard (>= 0).
	Replicas int
	// Platform issues and verifies quotes for every enclave of the
	// fabric and for its clients. Defaults to a seeded platform.
	Platform *sgx.Platform
	// Fleet, when set, is the fabric-wide observability plane: every
	// node gets a private shard-labeled metrics registry from it, while
	// all nodes share the fleet's tracer and event journal — one trace
	// ID follows a request across Worlds, and one totally-ordered
	// timeline records session, replication, and failover events. The
	// fleet registry also receives the montsalvat_fabric_* counters.
	Fleet *telemetry.Fleet
	// Logf receives diagnostics from every layer of the fabric.
	Logf func(format string, args ...any)
	// Signer signs every node's enclave; nil means sgx.DefaultSigner.
	// Signers memoize SIGSTRUCTs per measurement, so a shared signer
	// makes repeated fabric construction pay RSA signing once.
	Signer *sgx.Signer
	// Build, when set, is a prebuilt partitioned KV build whose images
	// every node's World loads instead of re-running the partitioning
	// transform and image build per node. Builds are deterministic and
	// images are immutable at run time (worlds already share them
	// across Kill/Restart), so sharing one build across nodes — and
	// across fabric incarnations — is safe.
	Build *core.BuildResult
}

// Stats are fabric-lifetime counters.
type Stats struct {
	Shards                  int
	Epoch                   uint64
	ShipRounds              uint64
	ShipBytes               uint64
	Promotions              uint64
	StalePromotionsRejected uint64
	PeerHandshakes          uint64
	// SyncFallbacks is always 0: the fallback ack path is gone. Read by
	// benchmark/layers.go; remove with the next benchmark PR.
	SyncFallbacks uint64
}

// Fabric is a running sharded deployment.
type Fabric struct {
	opts     Options
	platform *sgx.Platform
	signer   *sgx.Signer
	secret   sgx.PlatformSecret

	mu    sync.Mutex
	nodes map[int]*shardNode
	reps  map[int][]*replicaNode
	dead  []*shardNode // killed primaries, closed with the fabric

	table atomic.Value // Table

	shipRounds     atomic.Uint64
	shipBytes      atomic.Uint64
	promotions     atomic.Uint64
	staleRejected  atomic.Uint64
	peerHandshakes atomic.Uint64
}

// New boots the fabric: worlds, gateways, replication channels, routing
// table (epoch 1). On return every shard is serving and every replica
// holds a full copy of its primary's (empty) durable root.
func New(opts Options) (*Fabric, error) {
	if opts.Shards < 1 {
		return nil, errors.New("fabric: need at least one shard")
	}
	if opts.Replicas < 0 {
		return nil, errors.New("fabric: negative replica count")
	}
	platform := opts.Platform
	if platform == nil {
		platform = sgx.NewPlatformFromSeed([]byte("montsalvat-fabric"))
	}
	signer := opts.Signer
	if signer == nil {
		var err error
		if signer, err = sgx.DefaultSigner(); err != nil {
			return nil, err
		}
	}
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		opts:     opts,
		platform: platform,
		signer:   signer,
		secret:   secret,
		nodes:    make(map[int]*shardNode),
		reps:     make(map[int][]*replicaNode),
	}
	f.table.Store(NewTable(0, nil))

	fail := func(err error) (*Fabric, error) {
		f.Close()
		return nil, err
	}

	for id := 0; id < opts.Shards; id++ {
		n, err := newShardNode(f, id)
		if err != nil {
			return fail(fmt.Errorf("fabric: shard %d: %w", id, err))
		}
		f.nodes[id] = n
	}
	f.publishTable()

	for id := 0; id < opts.Shards; id++ {
		n := f.nodes[id]
		for j := 0; j < opts.Replicas; j++ {
			r, err := newReplicaNode(f, id, j, n.w.Enclave().Measurement())
			if err != nil {
				return fail(fmt.Errorf("fabric: shard %d replica %d: %w", id, j, err))
			}
			f.reps[id] = append(f.reps[id], r)
		}
		if err := f.shipTo(n, f.reps[id]); err != nil {
			return fail(err)
		}
	}

	if ft := opts.Fleet.Telemetry(); ft != nil {
		ft.Registry().RegisterCollector(f.collectMetrics)
	}
	return f, nil
}

// shipTo opens an attested replication channel from primary n to each
// standby in reps and pushes each its first delta: everything the
// standby lacks of n's durable root. Once it returns, n's acks wait on
// every one of them.
func (f *Fabric) shipTo(n *shardNode, reps []*replicaNode) error {
	for _, r := range reps {
		conn, err := DialPeer(
			r.ln.Addr().String(),
			PeerIdentity{Platform: f.platform, Enclave: n.w.Enclave(), Origin: ShardOrigin(n.id)},
			replicaOrigin(n.id, r.idx),
			r.measurement(),
		)
		if err != nil {
			return fmt.Errorf("fabric: shard %d replica %d channel: %w", n.id, r.idx, err)
		}
		sh, err := newShipper(n, conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("fabric: shard %d replica %d inventory: %w", n.id, r.idx, err)
		}
		if err := n.attachShipper(sh); err != nil {
			return fmt.Errorf("fabric: shard %d replica %d initial ship: %w", n.id, r.idx, err)
		}
	}
	return nil
}

// nodeTel returns the per-node telemetry slice for a fabric node (nil
// without a Fleet): a private registry plus the fleet-shared tracer and
// event journal.
func (f *Fabric) nodeTel(origin string) *telemetry.Telemetry {
	return f.opts.Fleet.Node(origin)
}

// fleetEvents returns the fleet-wide event journal (nil without a
// Fleet).
func (f *Fabric) fleetEvents() *telemetry.EventLog {
	return f.opts.Fleet.Telemetry().Events()
}

// publishTable rebuilds the routing table from the live node set at the
// next epoch. Caller must not hold f.mu... it takes it.
func (f *Fabric) publishTable() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.publishTableLocked()
}

func (f *Fabric) publishTableLocked() {
	cur := f.Table()
	infos := make([]ShardInfo, 0, len(f.nodes))
	for id, n := range f.nodes {
		infos = append(infos, ShardInfo{ID: id, Addr: n.ln.Addr().String(), Measurement: n.srv.Measurement()})
	}
	f.table.Store(NewTable(cur.Epoch+1, infos))
	f.fleetEvents().Emit(telemetry.EventEpochBump, "fabric", 0,
		"epoch %d -> %d (%d shards)", cur.Epoch, cur.Epoch+1, len(infos))
}

// Table returns the current routing table.
func (f *Fabric) Table() Table {
	return f.table.Load().(Table)
}

// Client builds a routing client over this fabric's topology; shard
// sessions are dialed on first use. With a Fleet configured the router
// joins the fleet plane: its route spans and redirect events land in
// the shared tracer and journal.
func (f *Fabric) Client(RouterConfig) *Router {
	tel := f.opts.Fleet.Telemetry()
	return &Router{f: f, tracer: tel.Tracer(), events: tel.Events(), table: f.Table(), conns: make(map[int]*routerConn)}
}

// Platform returns the attestation platform shared by the fabric.
func (f *Fabric) Platform() *sgx.Platform { return f.platform }

// node returns the live primary for a shard.
func (f *Fabric) node(id int) (*shardNode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[id]
	if !ok {
		return nil, fmt.Errorf("fabric: no live primary for shard %d", id)
	}
	return n, nil
}

// Checkpoint forces a checkpoint on one shard (rotating its WAL
// lineage and bumping its counter) and ships the result.
func (f *Fabric) Checkpoint(id int) error {
	n, err := f.node(id)
	if err != nil {
		return err
	}
	if err := n.manager().Checkpoint(); err != nil {
		return err
	}
	_, err = n.shipRound(telemetry.SpanContext{})
	return err
}

// PauseReplication stops (or resumes) shipping from a shard to its
// replicas — the operational failure mode that produces a stale
// replica, exposed so tests and drills can exercise the rollback
// rejection.
func (f *Fabric) PauseReplication(id int, paused bool) error {
	n, err := f.node(id)
	if err != nil {
		return err
	}
	n.mu.Lock()
	shippers := append([]*shipper(nil), n.shippers...)
	n.mu.Unlock()
	for _, sh := range shippers {
		sh.paused.Store(paused)
	}
	return nil
}

// KillShard fails a primary: its enclave dies mid-service and its
// endpoints close. Returns the Expectation a promoted successor must
// meet. The shard stays dark (clients get connection errors, siblings
// keep redirecting to it) until Promote installs a successor.
func (f *Fabric) KillShard(id int) (Expectation, error) {
	f.mu.Lock()
	n, ok := f.nodes[id]
	if !ok {
		f.mu.Unlock()
		return Expectation{}, fmt.Errorf("fabric: no live primary for shard %d", id)
	}
	delete(f.nodes, id)
	f.dead = append(f.dead, n)
	f.mu.Unlock()
	exp := n.kill()
	f.fleetEvents().Emit(telemetry.EventKill, ShardOrigin(id), 0,
		"primary killed at stamp %d lsn %d", exp.Stamp, exp.LSN)
	return exp, nil
}

// Promote installs the next standby of a shard as its primary, provided
// it recovers to at least the expectation captured at KillShard. The new
// primary ships to the shard's surviving standbys before the routing
// table names it, so its first ack is as replicated as its
// predecessor's; a standby it cannot reach fails the promotion. On a
// stale standby the promotion is refused (ErrStaleReplica), the standby
// is discarded, and the shard stays dark — the next standby (if any)
// can be tried.
func (f *Fabric) Promote(id int, expect Expectation) error {
	f.mu.Lock()
	if _, live := f.nodes[id]; live {
		f.mu.Unlock()
		return fmt.Errorf("fabric: shard %d still has a live primary", id)
	}
	list := f.reps[id]
	if len(list) == 0 {
		f.mu.Unlock()
		return fmt.Errorf("fabric: shard %d has no standby to promote", id)
	}
	r, rest := list[0], list[1:]
	f.reps[id] = rest
	f.mu.Unlock()

	start := time.Now()
	f.fleetEvents().Emit(telemetry.EventPromoteBegin, ShardOrigin(id), 0,
		"promoting replica %d, need stamp %d lsn %d", r.idx, expect.Stamp, expect.LSN)
	n, err := r.promote(expect)
	if err != nil {
		if errors.Is(err, ErrStaleReplica) {
			f.staleRejected.Add(1)
		}
		r.w.Close()
		return err
	}
	if err := f.shipTo(n, rest); err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = n.shutdown(ctx)
		return err
	}
	dur := time.Since(start)
	f.mu.Lock()
	f.nodes[id] = n
	// promote-commit strictly precedes the epoch-bump publishTableLocked
	// emits: the failover timeline reads kill -> promote-begin ->
	// promote-commit -> epoch-bump.
	f.fleetEvents().Emit(telemetry.EventPromoteCommit, ShardOrigin(id), 0,
		"replica %d promoted in %v", r.idx, dur.Round(time.Millisecond))
	f.publishTableLocked()
	f.mu.Unlock()
	f.promotions.Add(1)
	f.opts.Fleet.Telemetry().Registry().
		Histogram("montsalvat_fabric_promotion_duration_ns").ObserveDuration(dur)
	return nil
}

// ShardBusyCycles snapshots each live primary's charged virtual-cycle
// total — the simulation's cost currency. The scaling benchmark models
// fabric capacity from the busiest shard's cycle delta, so the numbers
// reflect the partitioning itself rather than how many host cores the
// single-process harness happens to get.
func (f *Fabric) ShardBusyCycles() map[int]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int]int64, len(f.nodes))
	for id, n := range f.nodes {
		out[id] = n.w.Clock().Total()
	}
	return out
}

// Stats snapshots the fabric counters.
func (f *Fabric) Stats() Stats {
	t := f.Table()
	return Stats{
		Shards:                  len(t.Shards),
		Epoch:                   t.Epoch,
		ShipRounds:              f.shipRounds.Load(),
		ShipBytes:               f.shipBytes.Load(),
		Promotions:              f.promotions.Load(),
		StalePromotionsRejected: f.staleRejected.Load(),
		PeerHandshakes:          f.peerHandshakes.Load(),
	}
}

func (f *Fabric) collectMetrics(reg *telemetry.Registry) {
	t := f.Table()
	reg.Gauge("montsalvat_fabric_shards").Set(int64(len(t.Shards)))
	reg.Gauge("montsalvat_fabric_epoch").Set(int64(t.Epoch))
	reg.Counter("montsalvat_fabric_ship_rounds_total").Set(f.shipRounds.Load())
	reg.Counter("montsalvat_fabric_ship_bytes_total").Set(f.shipBytes.Load())
	reg.Counter("montsalvat_fabric_promotions_total").Set(f.promotions.Load())
	reg.Counter("montsalvat_fabric_stale_promotions_rejected_total").Set(f.staleRejected.Load())
	reg.Counter("montsalvat_fabric_peer_handshakes_total").Set(f.peerHandshakes.Load())
}

// Close drains every gateway and tears the whole fabric down.
func (f *Fabric) Close() error {
	f.mu.Lock()
	nodes := f.nodes
	reps := f.reps
	dead := f.dead
	f.nodes = make(map[int]*shardNode)
	f.reps = make(map[int][]*replicaNode)
	f.dead = nil
	f.mu.Unlock()

	var first error
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, list := range reps {
		for _, r := range list {
			r.close()
		}
	}
	for _, n := range dead {
		n.w.Close()
	}
	return first
}

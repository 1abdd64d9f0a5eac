package fabric

// shard.go is one primary of the fabric: a World running the demo KV
// program behind an attested serve gateway, its acked puts journaled
// through a persist.Manager whose complete durable root (WAL,
// checkpoints, monotonic counter) lives on a per-shard filesystem —
// the unit that checkpoint shipping replicates and promotion rebuilds.
// The gateway's ShardCheck predicate rejects keys the consistent-hash
// ring assigns elsewhere, and its Journal hook appends every put and
// holds the ack until a ship round has carried the put's LSN to every
// unpaused replica, so "acked" always implies "durable on the replica
// set".

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/lockrank"
	"montsalvat/internal/persist"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// Expectation is the durable position a dead primary had acknowledged:
// the counter stamp of its last checkpoint lineage and the highest LSN
// whose ack left. A replica may only be promoted if it recovers to at
// least this position — the cross-machine extension of the
// monotonic-counter rollback defense.
type Expectation struct {
	Stamp uint64
	LSN   uint64
}

// shardNode is one primary shard: world, gateway, durable manager, and
// the shippers feeding its standbys. A primary opens one listener, its
// gateway's: it dials its standbys and accepts no peer channel.
type shardNode struct {
	id  int
	fab *Fabric

	// tel is this node's slice of the fleet observability plane: a
	// private metrics registry plus the fleet-shared tracer and event
	// journal. Nil when the fabric runs without a Fleet.
	tel *telemetry.Telemetry

	w  *world.World
	fs *shim.MemFS
	kv *persist.WorldKV

	srv       *serve.Server
	ln        net.Listener
	serveDone chan error

	// mu guards mgr, shippers, and the ack state below. Lock hierarchy:
	// n.mu > shipper ioMu > the manager's locks; n.mu is never held
	// across a ship or a waiter's completion.
	mu       lockrank.Mutex
	mgr      *persist.Manager
	shippers []*shipper

	// waiters are the journaled puts whose acks are parked on the
	// replication watermark. shipping marks a round leader at work:
	// waiters non-empty implies shipping, so no waiter is ever parked
	// without a goroutine shipping on its behalf.
	waiters  []pendingAck
	shipping bool

	// ackedHigh is the highest LSN this node has acknowledged. It seeds
	// from the recovered position at gateway start and advances with
	// every completed ack. kill() quotes it as the promotion
	// expectation: the durable-but-unacked tail beyond it carries no
	// promise and must not fail a healthy successor, while everything
	// at or below it was covered by every unpaused replica before its
	// ack left.
	ackedHigh uint64
}

// pendingAck is one journaled put parked on the replication watermark:
// its ack leaves when a ship round covers lsn on every unpaused
// replica, or fails with the error of the round that left it uncovered.
type pendingAck struct {
	lsn      uint64
	sc       telemetry.SpanContext
	complete func(error)
}

// buildWorld constructs one fabric World. Every world shares the fabric
// signer, so all enclaves carry the same MRSIGNER and sealed state
// written by one can be unsealed by another — the property replication
// and promotion rest on. tel (optional) instruments the world's
// boundary crossings on that node's registry and joins its RMI spans to
// the fleet-shared tracer.
func (f *Fabric) buildWorld(tel *telemetry.Telemetry) (*world.World, error) {
	opts := world.DefaultOptions()
	opts.Signer = f.signer
	opts.Telemetry = tel
	if b := f.opts.Build; b != nil {
		return world.NewPartitioned(opts, b.TrustedImage, b.UntrustedImage, b.Transform.Interface)
	}
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	return w, err
}

// newStoreRef creates and pins a fresh KVStore in w.
func newStoreRef(w *world.World) (wire.Value, error) {
	var ref wire.Value
	err := w.Exec(false, func(env classmodel.Env) error {
		v, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		ref = v
		return nil
	})
	if err != nil {
		return wire.Value{}, err
	}
	if err := w.Untrusted().Pin(ref); err != nil {
		return wire.Value{}, err
	}
	return ref, nil
}

// openManager boots a persist.Manager for shard id over fs and w's
// current enclave, registers kv, and recovers. The counter store lives
// on the same fs (FSCounterStore), so the rollback-protection state is
// part of the replicated root. tel (optional) gives the manager the
// node's metrics registry and the fleet event journal.
func (f *Fabric) openManager(id int, w *world.World, fs shim.FS, kv *persist.WorldKV, tel *telemetry.Telemetry) (*persist.Manager, persist.Report, error) {
	ctr, err := sgx.NewMonotonicCounter(f.secret, persist.NewFSCounterStore(fs, shardDir), ShardOrigin(id))
	if err != nil {
		return nil, persist.Report{}, err
	}
	m, err := persist.Open(persist.Options{
		FS:        fs,
		Enclave:   w.Enclave(),
		Secret:    f.secret,
		Counter:   ctr,
		Dir:       shardDir,
		Telemetry: tel.Registry(),
		Events:    tel.Events(),
		Node:      ShardOrigin(id),
		Logf:      f.opts.Logf,
	})
	if err != nil {
		return nil, persist.Report{}, err
	}
	if err := m.Register(kv); err != nil {
		return nil, persist.Report{}, err
	}
	rep, err := m.Recover()
	if err != nil {
		return nil, persist.Report{}, err
	}
	return m, rep, nil
}

// shardDir is the durable-root directory on each shard's filesystem.
const shardDir = "p/"

// newShardNode boots primary id: world, store, manager, gateway.
// Shippers attach later (Fabric.shipTo), once the replica listeners
// exist.
func newShardNode(f *Fabric, id int) (*shardNode, error) {
	tel := f.nodeTel(ShardOrigin(id))
	w, err := f.buildWorld(tel)
	if err != nil {
		return nil, err
	}
	n := &shardNode{id: id, fab: f, tel: tel, w: w, fs: shim.NewMemFS()}
	n.mu.SetRank(lockrank.RankFabricNode, "fabric.shardNode.mu")
	n.kv = persist.NewWorldKV("kv", w)
	ref, err := newStoreRef(w)
	if err != nil {
		w.Close()
		return nil, err
	}
	n.kv.SetRef(ref)
	mgr, _, err := f.openManager(id, w, n.fs, n.kv, tel)
	if err != nil {
		w.Close()
		return nil, err
	}
	n.mgr = mgr
	if err := n.startGateway(); err != nil {
		w.Close()
		return nil, err
	}
	return n, nil
}

// startGateway opens the serve endpoint for this shard's world.
func (n *shardNode) startGateway() error {
	f := n.fab
	sOpts := serve.Options{
		World:      n.w,
		Platform:   f.platform,
		Logf:       f.opts.Logf,
		ShardCheck: f.shardCheckFor(n.id),
		Telemetry:  n.tel,
		Node:       ShardOrigin(n.id),
		Journal:    n.journal,
	}
	// Everything recovered counts as acked — it was validated against
	// the predecessor's expectation.
	n.ackedHigh = n.mgr.Stats().LastLSN
	srv, err := serve.New(sOpts)
	if err != nil {
		return err
	}
	srv.Export("kv", func(env classmodel.Env) (wire.Value, error) {
		ref := n.kv.Ref()
		if ref.IsNull() {
			return wire.Value{}, errors.New("store not initialised")
		}
		return ref, nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n.srv, n.ln = srv, ln
	n.serveDone = make(chan error, 1)
	go func() { n.serveDone <- srv.Serve(ln) }()
	return nil
}

// shardCheckFor is the gateway partition predicate for shard id: KV
// operations carrying a key the current ring assigns to another shard
// are rejected with the typed redirect.
func (f *Fabric) shardCheckFor(id int) func(op, class, method string, args []wire.Value) error {
	return func(op, class, method string, args []wire.Value) error {
		if class != demo.KVStoreCls || (method != "put" && method != "get") || len(args) == 0 {
			return nil
		}
		key, ok := args[0].AsStr()
		if !ok {
			return nil
		}
		t := f.Table()
		if owner := t.Owner(key); owner != id {
			return &serve.WrongShardError{Owner: owner, Epoch: t.Epoch}
		}
		return nil
	}
}

func (n *shardNode) manager() *persist.Manager {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mgr
}

// journal is the gateway's Journal hook. The append runs inline —
// concurrent workers meeting on the commit queue is exactly what forms
// a group — and the ack then waits on replication: complete fires once
// a ship round has covered the put's LSN, with that round's error if it
// did not. An un-replicated write is never acknowledged. The mutation's
// trace context rides along so the replication leg of the ack path
// lands in the same trace as the client's put. Non-put mutations
// complete immediately.
func (n *shardNode) journal(m serve.Mutation, complete func(error)) {
	if m.Op != serve.MutationCall || m.Class != demo.KVStoreCls || m.Method != "put" || len(m.Args) < 2 {
		complete(nil)
		return
	}
	key, _ := m.Args[0].AsStr()
	val, _ := m.Args[1].AsStr()
	lsn, err := n.manager().Append("kv", persist.OpPut, key, []byte(val))
	if err != nil {
		complete(err)
		return
	}
	n.awaitReplicated(pendingAck{lsn: lsn, sc: m.Trace, complete: complete})
}

// awaitReplicated parks an ack on the replication watermark. The first
// waiter to find no round leader becomes one and ships rounds on its
// own goroutine until no waiter remains — so an uncontended put ships
// inline, and puts that land while a round is in flight share the next
// one, however many they are.
func (n *shardNode) awaitReplicated(pa pendingAck) {
	n.mu.Lock()
	n.waiters = append(n.waiters, pa)
	if n.shipping {
		n.mu.Unlock()
		return
	}
	n.shipping = true
	n.mu.Unlock()
	for n.ackRound() {
	}
}

// ackRound ships one round on behalf of the parked waiters and releases
// them: those the round covered ack, and if a replica failed the rest
// fail with its error — precisely the waiters that round left
// uncovered. A waiter that parked after the round cut its delta (no
// error, not covered) stays for the next round. It reports false, and
// resigns the leadership, once no waiter remains. The round is traced
// as a commit-leader span continuing the oldest waiter's trace; the
// per-replica ship spans parent under it, so a trace shows one
// replication round serving many puts.
func (n *shardNode) ackRound() bool {
	n.mu.Lock()
	if len(n.waiters) == 0 {
		n.shipping = false
		n.mu.Unlock()
		return false
	}
	sc := n.waiters[0].sc
	n.mu.Unlock()

	sp := n.tel.Tracer().StartRemote(sc, "commit-leader")
	covered, err := n.shipRound(sp.Context())
	sp.Finish(err)

	n.mu.Lock()
	var released []pendingAck
	rest := n.waiters[:0]
	for _, pa := range n.waiters {
		if pa.lsn <= covered {
			n.ackedHigh = max(n.ackedHigh, pa.lsn)
		} else if err == nil {
			rest = append(rest, pa)
			continue
		}
		released = append(released, pa)
	}
	clear(n.waiters[len(rest):])
	n.waiters = rest
	n.mu.Unlock()
	for _, pa := range released {
		if pa.lsn <= covered {
			pa.complete(nil)
		} else {
			pa.complete(err)
		}
	}
	return true
}

// shipRound pushes the current durable root to every unpaused replica,
// continuing sc's trace into each ship, and returns the replication
// watermark — the highest LSN every one of them has durably applied —
// with the first ship error. A paused replica is skipped by the ship
// and by the watermark alike: that is how a replica goes stale, and
// what the promotion-time check exists to catch. With no replica to
// wait for everything is covered.
func (n *shardNode) shipRound(sc telemetry.SpanContext) (covered uint64, err error) {
	n.mu.Lock()
	shippers := append([]*shipper(nil), n.shippers...)
	n.mu.Unlock()
	covered = ^uint64(0)
	for _, sh := range shippers {
		if sh.paused.Load() {
			continue
		}
		if serr := sh.ship(sc); serr != nil && err == nil {
			err = fmt.Errorf("fabric: shard %d ship to %s: %w", n.id, sh.conn.RemoteOrigin(), serr)
		}
		if a := sh.ackedLSN.Load(); a < covered {
			covered = a
		}
	}
	return covered, err
}

// attachShipper registers a connected replica channel and pushes the
// initial full delta.
func (n *shardNode) attachShipper(sh *shipper) error {
	n.mu.Lock()
	n.shippers = append(n.shippers, sh)
	n.mu.Unlock()
	return sh.ship(telemetry.SpanContext{})
}

// kill simulates primary failure: kill the enclave, tear the gateway
// and the replication channels down, then quote the acked position.
// In-flight requests fail or finish through their round leader while
// the gateway drains; nothing acked is lost (it was shipped before the
// ack), and the expectation is read after the drain so it bounds every
// ack that ever left.
func (n *shardNode) kill() Expectation {
	n.w.Kill()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = n.srv.Shutdown(ctx)
	cancel()
	n.ln.Close()
	n.closeShippers()
	<-n.serveDone
	// The successor only has to cover what was acked: the
	// durable-but-unacked tail past ackedHigh carries no promise, and a
	// healthy replica may not hold it.
	stamp := n.manager().Stats().Epoch
	n.mu.Lock()
	defer n.mu.Unlock()
	return Expectation{Stamp: stamp, LSN: n.ackedHigh}
}

// closeShippers closes the replication channels. The shippers stay
// attached: a round that outlives the close fails its waiters on the
// dead channel instead of finding no replica to wait for.
func (n *shardNode) closeShippers() {
	n.mu.Lock()
	shippers := n.shippers
	n.mu.Unlock()
	for _, sh := range shippers {
		sh.close()
	}
}

// shutdown is the graceful path (Fabric.Close): drain the gateway —
// in-flight puts finish through their round leaders — then tear down.
func (n *shardNode) shutdown(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	n.ln.Close()
	n.closeShippers()
	<-n.serveDone
	n.w.Close()
	return err
}

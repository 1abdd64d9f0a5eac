package fabric

// replica.go is the warm standby for one shard: a booted World (so the
// replica has an enclave identity to attest and a heap ready to absorb
// recovery) plus a filesystem that receives the primary's shipped
// durable root. Until promotion the replica executes nothing — it only
// authenticates its primary and applies deltas. Promote turns the
// standby into a primary: recover from the shipped root, verify the
// recovered position against what the dead primary had acknowledged
// (the rollback check), and open a gateway.

import (
	"errors"
	"fmt"
	"net"

	"montsalvat/internal/persist"
	"montsalvat/internal/shim"
	"montsalvat/internal/world"
)

// ErrStaleReplica refuses promotion of a replica whose shipped root
// trails the dead primary's acknowledged position: promoting it would
// serve rolled-back state as if it were current — exactly the attack
// (or operational mistake) the monotonic counter exists to stop.
var ErrStaleReplica = errors.New("fabric: stale replica; promotion refused")

// StaleReplicaError carries the positions behind an ErrStaleReplica.
type StaleReplicaError struct {
	Shard                int
	HaveStamp, WantStamp uint64
	HaveLSN, WantLSN     uint64
}

func (e *StaleReplicaError) Error() string {
	return fmt.Sprintf("fabric: stale replica for shard %d: recovered stamp=%d lsn=%d, primary acked stamp=%d lsn=%d",
		e.Shard, e.HaveStamp, e.HaveLSN, e.WantStamp, e.WantLSN)
}

func (e *StaleReplicaError) Unwrap() error { return ErrStaleReplica }

// replicaOrigin is the channel identity of replica idx of a shard.
func replicaOrigin(shardID, idx int) string {
	return fmt.Sprintf("%s/replica-%d", ShardOrigin(shardID), idx)
}

// replicaNode is one warm standby.
type replicaNode struct {
	shardID int
	idx     int
	fab     *Fabric

	w  *world.World
	fs *shim.MemFS

	host     *PeerHost
	ln       net.Listener
	hostDone chan error
}

// newReplicaNode boots a standby for shardID whose peer host admits one
// origin, the shard's, proving primaryMeas. Every primary of the shard
// runs the same image under the same signer, so a standby promoted in
// its predecessor's place passes the same check.
func newReplicaNode(f *Fabric, shardID, idx int, primaryMeas [32]byte) (*replicaNode, error) {
	tel := f.nodeTel(replicaOrigin(shardID, idx))
	w, err := f.buildWorld(tel)
	if err != nil {
		return nil, err
	}
	r := &replicaNode{shardID: shardID, idx: idx, fab: f, w: w, fs: shim.NewMemFS()}
	r.host = &PeerHost{
		Identity: PeerIdentity{Platform: f.platform, Enclave: w.Enclave(), Origin: replicaOrigin(shardID, idx)},
		Peers:    map[string][32]byte{ShardOrigin(shardID): primaryMeas},
		Have:     func() (map[string]int64, error) { return persist.HaveMap(r.fs, shardDir) },
		Apply: func(d persist.Delta) (uint64, uint64, error) {
			if err := persist.ApplyDelta(r.fs, d); err != nil {
				return 0, 0, err
			}
			return d.Stamp, d.LastLSN, nil
		},
		Logf:        f.opts.Logf,
		OnHandshake: func() { f.peerHandshakes.Add(1) },
		Telemetry:   tel,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		return nil, err
	}
	r.ln = ln
	r.hostDone = make(chan error, 1)
	go func() { r.hostDone <- r.host.Serve(ln) }()
	return r, nil
}

// measurement is what the primary must verify when dialing this
// standby.
func (r *replicaNode) measurement() [32]byte {
	return r.w.Enclave().Measurement()
}

// promote turns the standby into a primary for its shard. The shipped
// root is recovered on this replica's enclave (same MRSIGNER, so the
// sealed checkpoints and counter MACs verify), then the recovered
// position is checked against the expectation captured from the dead
// primary: a recovered stamp or LSN below it means the replica missed
// acknowledged state — rolled back relative to what clients were
// promised — and promotion is refused.
func (r *replicaNode) promote(expect Expectation) (*shardNode, error) {
	r.host.Close()
	<-r.hostDone

	kv := persist.NewWorldKV("kv", r.w)
	ref, err := newStoreRef(r.w)
	if err != nil {
		return nil, err
	}
	kv.SetRef(ref)
	// The promoted node takes over the shard's identity: its manager and
	// gateway report under the shard origin, continuing the dead
	// primary's metric series rather than starting a replica-named one.
	tel := r.fab.nodeTel(ShardOrigin(r.shardID))
	mgr, rep, err := r.fab.openManager(r.shardID, r.w, r.fs, kv, tel)
	if err != nil {
		return nil, fmt.Errorf("fabric: promote shard %d: %w", r.shardID, err)
	}
	if rep.CheckpointStamp < expect.Stamp || rep.LastLSN < expect.LSN {
		return nil, &StaleReplicaError{
			Shard:     r.shardID,
			HaveStamp: rep.CheckpointStamp, WantStamp: expect.Stamp,
			HaveLSN: rep.LastLSN, WantLSN: expect.LSN,
		}
	}

	n := &shardNode{id: r.shardID, fab: r.fab, tel: tel, w: r.w, fs: r.fs, kv: kv, mgr: mgr}
	if err := n.startGateway(); err != nil {
		return nil, err
	}
	return n, nil
}

// close tears the standby down without promoting it.
func (r *replicaNode) close() {
	r.host.Close()
	<-r.hostDone
	r.w.Close()
}

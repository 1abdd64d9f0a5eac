package persist

// This file holds world-backed state adapters: bridges from application
// state living inside a partitioned World to the Manager's State
// interface, so the durability layer can checkpoint and replay
// enclave-resident objects, not just in-process maps.

import (
	"errors"
	"fmt"
	"sync"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// ErrNoStoreRef reports a WorldKV used before SetRef pointed it at a
// live store object (required again after every World restart — refs
// die with the enclave).
var ErrNoStoreRef = errors.New("persist: WorldKV has no live store ref (SetRef after boot and after every restart)")

// WorldKV adapts an enclave-resident key-value store object (the demo
// KVStore shape: put, string keys and values, an "entries" list of
// Entry objects with getkey/getvalue) to State. Each State method is
// one pass run inside the runtime that hosts the store — the trusted
// one whenever the world has an enclave — so a recovery phase costs one
// ecall, not one per key: Restore and Apply drive put from inside,
// Snapshot walks the entries list once into the deterministic encoding
// MapState uses, so a WorldKV checkpoint restores into either adapter.
// The adapter holds a world ref, not the object: after a crash/restart
// cycle the caller re-creates the store and re-points the adapter with
// SetRef before Recover.
type WorldKV struct {
	name string
	w    *world.World

	mu  sync.Mutex
	ref wire.Value
}

// NewWorldKV returns an adapter named name over w, with no store ref
// yet.
func NewWorldKV(name string, w *world.World) *WorldKV {
	return &WorldKV{name: name, w: w, ref: wire.Null()}
}

// SetRef points the adapter at a live store object. Must be called
// before the first Snapshot/Restore/Apply and again after every world
// restart.
func (k *WorldKV) SetRef(ref wire.Value) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ref = ref
}

// Ref returns the current store ref (null before SetRef).
func (k *WorldKV) Ref() wire.Value {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ref
}

// Name implements State.
func (k *WorldKV) Name() string { return k.name }

// pass runs fn once inside the runtime hosting the store, with the
// store ref. A proxy and its mirror share one identity hash, so the
// ref the untrusted side holds names the mirror in the enclave. The
// world's batch queues are flushed first: a store whose constructor
// relay is still queued has no mirror yet, and queued puts must land
// before a snapshot reads the store. A pass that drives put (puts)
// runs on a lane of its own when the TCS budget grants one: it enters
// by the lane's hand-off and serves each put's audit ocall itself,
// instead of paying a full transition per put (world.Lane). Without a
// lane it crosses in full.
func (k *WorldKV) pass(puts bool, fn func(env classmodel.Env, ref wire.Value) error) error {
	k.mu.Lock()
	ref := k.ref
	k.mu.Unlock()
	if ref.IsNull() {
		return ErrNoStoreRef
	}
	if err := k.w.Flush(); err != nil {
		return err
	}
	var lane *world.Lane
	if puts {
		if lanes, err := k.w.OpenLanes(1); err == nil && len(lanes) == 1 {
			lane = lanes[0]
			defer lane.Close()
		}
	}
	return k.w.ExecSpan(k.w.Mode() != world.ModeNoSGX, nil, lane, func(env classmodel.Env) error {
		return fn(env, ref)
	})
}

// Snapshot implements State: one pass reads the key and value of every
// Entry on the store's entries list.
func (k *WorldKV) Snapshot() ([]byte, error) {
	var pairs []kvPair
	err := k.pass(false, func(env classmodel.Env, ref wire.Value) error {
		entries, err := env.GetField(ref, "entries")
		if err != nil {
			return err
		}
		sz, err := env.Call(entries, "size")
		if err != nil {
			return err
		}
		n, _ := sz.AsInt()
		pairs = make([]kvPair, 0, n)
		for i := int64(0); i < n; i++ {
			e, err := env.Call(entries, "get", wire.Int(i))
			if err != nil {
				return err
			}
			kv, err := env.Call(e, "getkey")
			if err != nil {
				return err
			}
			vv, err := env.Call(e, "getvalue")
			if err != nil {
				return err
			}
			key, _ := kv.AsStr()
			val, _ := vv.AsStr()
			pairs = append(pairs, kvPair{key, []byte(val)})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", k.name, err)
	}
	return encodePairs(pairs), nil
}

// Restore implements State: one pass writes the snapshot's pairs into
// the (freshly re-created, empty) store through put. A snapshot with
// no pairs makes no pass.
func (k *WorldKV) Restore(data []byte) error {
	pairs, err := decodePairs(data)
	if err != nil || len(pairs) == 0 {
		return err
	}
	err = k.pass(true, func(env classmodel.Env, ref wire.Value) error {
		for _, p := range pairs {
			if _, err := env.Call(ref, "put", wire.Str(p.key), wire.Str(string(p.val))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("persist: restore %s: %w", k.name, err)
	}
	return nil
}

// Apply implements State: one pass replays a segment's puts through the
// store's put (idempotent — last write wins). The demo store has no
// delete surface, so OpDelete is a replay error, raised before the pass
// starts.
func (k *WorldKV) Apply(recs []Record) error {
	for _, rec := range recs {
		if rec.Op != OpPut {
			return fmt.Errorf("%w: op %d on world kv", ErrRecordMalformed, rec.Op)
		}
	}
	return k.pass(true, func(env classmodel.Env, ref wire.Value) error {
		for _, rec := range recs {
			if _, err := env.Call(ref, "put", wire.Str(rec.Key), wire.Str(string(rec.Value))); err != nil {
				return fmt.Errorf("persist: replay %s put %q: %w", k.name, rec.Key, err)
			}
		}
		return nil
	})
}

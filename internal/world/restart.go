package world

import (
	"errors"
	"fmt"
)

// ErrNotKilled is returned by Restart when the world is still live.
var ErrNotKilled = errors.New("world: restart of a live world (call Kill first)")

// Kill tears down the trusted side of a partitioned world in place: the
// ring groups close (the ecall rings release their TCS slots), lanes
// release theirs, and the enclave is destroyed — the simulation of
// the enclave process dying (crash, host restart, EPC eviction storm).
// The World object itself survives: the clock keeps running, telemetry
// stays registered, and the retained build inputs (images, options,
// signing identity) let Restart re-create the trusted runtime with the
// same MRSIGNER, so MRSIGNER-sealed persistent state written before the
// kill remains unsealable after it.
//
// After Kill, Enclave/Trusted/Untrusted return nil, Exec returns
// ErrWrongRuntime, and CloseErr degrades to a plain clock stop.
// Kill is idempotent and a no-op outside ModePartitioned.
func (w *World) Kill() {
	if w.mode != ModePartitioned {
		return
	}
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.killed {
		return
	}
	w.teardownLocked()
	w.killed = true
}

// teardownLocked takes the current generation — whole or half-built —
// down to the killed shape: ring groups closed and lanes left (their
// TCS slots released), the enclave destroyed, every rebuildable pointer
// nil. Caller holds stateMu, or is the only one who can reach w.
func (w *World) teardownLocked() {
	for _, l := range w.lanes {
		l.leaveLocked()
	}
	w.erings.Close()
	w.orings.Close()
	if w.enclave != nil {
		w.enclave.Destroy()
	}
	w.enclave, w.trusted, w.untrusted = nil, nil, nil
	w.erings, w.orings = nil, nil
}

// Restart rebuilds a killed partitioned world: a fresh enclave is
// created, measured and verified from the retained trusted image
// (re-attestation — same lifecycle as first boot), both runtimes are
// re-created empty with fresh batching queues and ring groups, every
// open lane re-enters, and static initialisers run again. Application
// state does NOT come back by itself: callers recover it from the
// persistence layer (unseal the latest counter-valid checkpoint, replay
// the WAL tail) after Restart returns — see internal/persist and
// serve.Server.Recover.
//
// Because the build options retain the original signing identity, the
// new enclave reports the same MRSIGNER: sealed blobs written under
// sgx.SealToMRSIGNER before the kill unseal cleanly after it, while
// MRENCLAVE-sealed blobs survive only if the trusted image is
// bit-identical (it is — the image is retained, not rebuilt).
//
// The GC helpers' setting (StartGCHelpers) is the world's, so it holds
// across Kill and Restart.
func (w *World) Restart() error {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.mode != ModePartitioned {
		return ErrWrongRuntime
	}
	if !w.killed {
		return ErrNotKilled
	}
	if err := w.rebuildLocked(); err != nil {
		// A half-built world is torn back down to the killed state so the
		// caller can retry.
		w.teardownLocked()
		return fmt.Errorf("world: restart: %w", err)
	}
	w.killed = false
	return nil
}

// rebuildLocked runs the boot sequence of a partitioned world from the
// retained inputs: first boot and every Restart. Caller holds stateMu.
func (w *World) rebuildLocked() error {
	if err := w.initEnclave(w.buildOpts, w.tImg); err != nil {
		return err
	}
	var err error
	w.trusted, err = w.newRuntime("trusted", true, w.tImg, w.buildOpts.TrustedHeap)
	if err != nil {
		return err
	}
	w.untrusted, err = w.newRuntime("untrusted", false, w.uImg, w.buildOpts.UntrustedHeap)
	if err != nil {
		return err
	}
	if err := w.initBoundary(); err != nil {
		return err
	}
	// Each generation's runtimes point at each other and at their own
	// outgoing ring group — the untrusted runtime enters through the
	// ecall group, the trusted one leaves through the ocall group — and at
	// no other generation's; the pointers are set here, before any call
	// can run on either, and never again (Runtime.peer).
	w.trusted.peer, w.untrusted.peer = w.untrusted, w.trusted
	w.untrusted.rings, w.trusted.rings = w.erings, w.orings
	for _, l := range w.lanes {
		if l.leave, err = w.enclave.EnterResident(); err != nil {
			return err
		}
	}
	return w.runStaticInits()
}

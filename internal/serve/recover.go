package serve

import (
	"context"
	"fmt"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// Mutation describes one successfully executed state-changing request,
// handed to Options.Journal before the client sees the OK. Args are the
// world-level (imported) argument values — object refs carry world
// hashes, which die with the enclave, so journalers that need replay
// across restarts should log only value-typed arguments (the demo
// KVStore journal does exactly that).
type Mutation struct {
	// Op is MutationNew or MutationCall.
	Op string
	// Class is the instantiated class (new) or the receiver's class
	// (call).
	Class string
	// Method is the invoked method (empty for new).
	Method string
	// Args are the world-level argument values.
	Args []wire.Value
	// Trace is the request's propagated span context (zero when the
	// request was untraced): journalers that do further cross-World work
	// on the ack path — checkpoint shipping — continue the trace with it.
	Trace telemetry.SpanContext
}

// Mutation.Op values, matching the wire ops that produced them.
const (
	MutationNew  = opNew
	MutationCall = opCall
)

// Export registers (or, with a nil provider, removes) a named binding:
// a well-known server-side object clients resolve with Client.Bind. The
// provider runs inside an untrusted Exec frame per bind request and
// returns the world ref to hand out.
//
// Bindings are the re-entry point after recovery: session handles die
// with the enclave, so a reconnecting client binds the name again and
// the provider — re-pointed at the recovered object by the restore
// callback — hands it the new incarnation.
func (srv *Server) Export(name string, provider func(env classmodel.Env) (wire.Value, error)) {
	srv.exportsMu.Lock()
	defer srv.exportsMu.Unlock()
	if provider == nil {
		delete(srv.exports, name)
		return
	}
	srv.exports[name] = provider
}

func (srv *Server) lookupExport(name string) func(env classmodel.Env) (wire.Value, error) {
	srv.exportsMu.RLock()
	defer srv.exportsMu.RUnlock()
	return srv.exports[name]
}

// Recover takes the gateway through an enclave crash/recovery cycle
// without stopping the process:
//
//  1. New requests and handshakes are rejected with statusRecovering
//     (clients see ErrRecovering: reconnect and retry, unlike the
//     terminal ErrDraining).
//  2. In-flight requests drain, bounded by ctx — they run against the
//     old enclave, which is still alive. Requests queued for a slot
//     keep waiting and are refused once they get one.
//  3. Every session is invalidated and its connection closed: session
//     keys and handles are bound to the dead enclave incarnation, so
//     they cannot be resumed, only re-established. Session teardown
//     skips the GC-release path (the objects die with the enclave).
//  4. restore runs: the caller kills and restarts the world, recovers
//     durable state through internal/persist, and re-points its
//     exported bindings at the recovered objects.
//  5. The gateway reopens: handshakes attest the new enclave, clients
//     re-bind their objects by name.
//
// If the drain deadline expires before restore starts, the world is
// untouched and the gateway reopens (the crash-recovery cycle simply
// did not happen). If restore itself fails the gateway stays in the
// recovering state — there is no consistent world to serve — and
// Recover may be called again to retry. Shutdown wins: a Recover called
// after it returns ErrClosed, and so does one still in its drain when
// Shutdown starts.
func (srv *Server) Recover(ctx context.Context, restore func() error) error {
	srv.recoverMu.Lock()
	defer srv.recoverMu.Unlock()
	// Draining is final; a retry after a failed restore finds the gateway
	// recovering already.
	if !srv.adm.state.CompareAndSwap(nil, &ErrRecovering) && srv.adm.refusal() != ErrRecovering {
		return ErrClosed
	}
	start := time.Now()
	srv.events.Emit(telemetry.EventDrain, srv.opts.Node, 0, "recovery drain")
	// A Shutdown that starts meanwhile wins: it closes abort.
	if err := srv.adm.drain(ctx, srv.adm.abort); err != nil {
		// Nothing was torn down yet: abort the cycle and keep serving,
		// unless a Shutdown took over.
		if !srv.adm.state.CompareAndSwap(&ErrRecovering, nil) {
			return ErrClosed
		}
		return fmt.Errorf("serve: recovery drain: %w", err)
	}

	// Invalidate every session. The dead mark makes teardown skip the
	// GC-release path even after recovering clears — these handles
	// belong to the old enclave no matter when the loop goroutine gets
	// around to exiting.
	invalidated := srv.closeSessions(true)

	if err := restore(); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}

	srv.adm.state.CompareAndSwap(&ErrRecovering, nil)
	srv.recoveries.Add(1)
	srv.events.Emit(telemetry.EventRecoveryReplay, srv.opts.Node, 0,
		"gateway recovered in %v, %d sessions invalidated", time.Since(start).Round(time.Millisecond), invalidated)
	srv.opts.Logf("serve: recovered in %v (%d sessions invalidated, %d recoveries total)",
		time.Since(start).Round(time.Millisecond), invalidated, srv.recoveries.Load())
	return nil
}

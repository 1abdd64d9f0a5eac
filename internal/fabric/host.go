package fabric

// host.go is the responder side of a peer channel: an accept loop that
// mutually attests each inbound connection (AcceptPeer) and then serves
// peer operations — durable-root inventory and delta application for
// replication, bind/call for cross-shard object access. Each accepted
// channel owns an origin-tagged registry.Namespace: every handle the
// host issues over the channel is pinned to the host shard's identity,
// and calls resolve handles with LookupFrom, so a handle minted by a
// different shard (or an unauthenticated guess) is refused as foreign
// instead of resolving to whatever object happens to wear the same
// number here.

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/persist"
	"montsalvat/internal/registry"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// PeerHost serves peer-channel operations for one fabric node.
type PeerHost struct {
	// Identity is this end of every accepted channel (the host's
	// platform, enclave, and shard origin).
	Identity PeerIdentity
	// Timeout bounds the handshake.
	Timeout time.Duration

	// Have reports the host's durable-root inventory; nil rejects
	// replication inventory requests.
	Have func() (map[string]int64, error)
	// Apply applies one replication delta and returns the (stamp, LSN)
	// position the host now holds; nil rejects shipments.
	Apply func(persist.Delta) (stamp, lastLSN uint64, err error)

	// World executes bind/call requests; nil rejects them.
	World *world.World
	// Exports maps bindable names to live object refs, mirroring
	// serve.Server.Export.
	Exports map[string]func() (wire.Value, error)

	// Logf receives diagnostics; OnHandshake fires per attested channel
	// (telemetry hook).
	Logf        func(format string, args ...any)
	OnHandshake func()

	// Telemetry, when set, continues propagated trace contexts across
	// the channel (ship-apply and peer-call spans) and journals ship
	// events. Nil disables both at the cost of one branch.
	Telemetry *telemetry.Telemetry

	mu     sync.Mutex
	peers  map[string][32]byte
	ln     net.Listener
	conns  map[*PeerConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// SetPeers installs the set of shard origins allowed to open channels
// here, each mapped to the measurement that origin's enclave must
// prove. Safe to call while serving (topology changes on promotion).
func (h *PeerHost) SetPeers(peers map[string][32]byte) {
	cp := make(map[string][32]byte, len(peers))
	for origin, meas := range peers {
		cp[origin] = meas
	}
	h.mu.Lock()
	h.peers = cp
	h.mu.Unlock()
}

func (h *PeerHost) peerSet() map[string][32]byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peers
}

func (h *PeerHost) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// Serve accepts and serves peer channels on ln until Close.
func (h *PeerHost) Serve(ln net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return ErrPeerClosed
	}
	h.ln = ln
	if h.conns == nil {
		h.conns = make(map[*PeerConn]struct{})
	}
	h.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		h.wg.Add(1)
		go h.serveConn(conn)
	}
}

// Close stops the accept loop, tears down live channels, and waits for
// their serve goroutines.
func (h *PeerHost) Close() {
	h.mu.Lock()
	h.closed = true
	ln := h.ln
	conns := make([]*PeerConn, 0, len(h.conns))
	for pc := range h.conns {
		conns = append(conns, pc)
	}
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, pc := range conns {
		pc.Close()
	}
	h.wg.Wait()
}

func (h *PeerHost) serveConn(conn net.Conn) {
	defer h.wg.Done()
	pc, err := AcceptPeer(conn, h.Identity, h.peerSet(), h.Timeout)
	if err != nil {
		h.logf("fabric: peer accept (%s): %v", h.Identity.Origin, err)
		conn.Close()
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		pc.Close()
		return
	}
	h.conns[pc] = struct{}{}
	h.mu.Unlock()
	if h.OnHandshake != nil {
		h.OnHandshake()
	}

	ns := registry.NewNamespaceFor(h.Identity.Origin)
	defer func() {
		pc.Close()
		h.mu.Lock()
		delete(h.conns, pc)
		h.mu.Unlock()
		h.releaseAll(ns)
	}()

	for {
		req, err := pc.ch.Recv()
		if err != nil {
			return // teardown or peer hangup
		}
		if _, err := pc.ch.Send(wire.AppendValues(pc.ch.Frame(), h.dispatch(ns, req))); err != nil {
			return
		}
	}
}

// releaseAll drops the retention behind every handle the channel issued.
func (h *PeerHost) releaseAll(ns *registry.Namespace) {
	entries := ns.Drain()
	if len(entries) == 0 || h.World == nil {
		return
	}
	rt := h.World.Untrusted()
	for _, e := range entries {
		if err := rt.Unpin(wire.Ref(e.Class, e.Hash)); err != nil {
			h.logf("fabric: peer unpin %s#%d: %v", e.Class, e.Handle, err)
		}
	}
}

// peerOK, peerError and peerForeign build a response: the status, then
// the results or a message.
func peerOK(vals ...wire.Value) []wire.Value {
	return append([]wire.Value{wire.Str(peerStatusOK)}, vals...)
}

func peerError(format string, args ...any) []wire.Value {
	return []wire.Value{wire.Str(peerStatusError), wire.Str(fmt.Sprintf(format, args...))}
}

func peerForeign(err error) []wire.Value {
	return []wire.Value{wire.Str(peerStatusForeign), wire.Str(err.Error())}
}

// dispatch decodes one request — a list of the operation and exactly
// that operation's fields — and serves it.
func (h *PeerHost) dispatch(ns *registry.Namespace, req []byte) []wire.Value {
	vs, err := wire.UnmarshalList(req)
	if err != nil || len(vs) < 1 {
		return peerError("malformed peer request")
	}
	op, _ := vs[0].AsStr()
	switch op {
	case peerOpHave:
		return h.serveHave()
	case peerOpShip:
		return h.serveShip(vs[1:])
	case peerOpBind:
		return h.serveBind(ns, vs[1:])
	case peerOpCall:
		return h.serveCall(ns, vs[1:])
	default:
		return peerError("unknown peer op %q", op)
	}
}

func (h *PeerHost) serveHave() []wire.Value {
	if h.Have == nil {
		return peerError("replication not served here")
	}
	have, err := h.Have()
	if err != nil {
		return peerError("inventory: %v", err)
	}
	names := make([]string, 0, len(have))
	for name := range have {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]wire.Value, 0, len(names))
	for _, name := range names {
		entries = append(entries, wire.List(wire.Str(name), wire.Int(have[name])))
	}
	return peerOK(wire.List(entries...))
}

func (h *PeerHost) serveShip(args []wire.Value) []wire.Value {
	if h.Apply == nil {
		return peerError("replication not served here")
	}
	if len(args) != 3 {
		return peerError("ship arity")
	}
	blob, ok := args[0].AsBytes()
	if !ok {
		return peerError("ship payload")
	}
	sc := traceOf(args[1], args[2])
	sp := h.Telemetry.Tracer().StartRemote(sc, "ship-apply")
	sp.SetSealedBytes(len(blob))
	d, err := persist.DecodeDelta(blob)
	if err != nil {
		sp.Finish(err)
		return peerError("decode delta: %v", err)
	}
	stamp, lsn, err := h.Apply(d)
	if err != nil {
		sp.Finish(err)
		return peerError("apply delta: %v", err)
	}
	h.Telemetry.Events().Emit(telemetry.EventShip, h.Identity.Origin, sc.TraceID,
		"applied %d bytes, now stamp %d lsn %d", len(blob), stamp, lsn)
	sp.Finish(nil)
	return peerOK(wire.Int(int64(stamp)), wire.Int(int64(lsn)))
}

func (h *PeerHost) serveBind(ns *registry.Namespace, args []wire.Value) []wire.Value {
	if h.World == nil {
		return peerError("objects not served here")
	}
	if len(args) != 1 {
		return peerError("bind arity")
	}
	name, _ := args[0].AsStr()
	export, ok := h.Exports[name]
	if !ok {
		return peerError("no export %q", name)
	}
	ref, err := export()
	if err != nil {
		return peerError("export %q: %v", name, err)
	}
	out, err := wire.MapRefs(ref, h.exportRef(ns))
	if err != nil {
		return peerError("export %q: %v", name, err)
	}
	return peerOK(out)
}

func (h *PeerHost) serveCall(ns *registry.Namespace, args []wire.Value) []wire.Value {
	if h.World == nil {
		return peerError("objects not served here")
	}
	if len(args) != 6 {
		return peerError("call arity")
	}
	origin, _ := args[0].AsStr()
	handle, _ := args[1].AsInt()
	method, _ := args[2].AsStr()
	if args[3].Kind() != wire.KindList {
		return peerError("call argument vector")
	}
	sc := traceOf(args[4], args[5])
	// The cross-shard namespace check: a handle — the receiver's, or one
	// embedded anywhere in the arguments — resolves only when the caller
	// presents the origin shard that issued it.
	importRef := func(ref wire.Value) (wire.Value, error) {
		_, handle, _ := ref.AsRef()
		e, ok := ns.LookupFrom(origin, handle)
		if !ok {
			return wire.Value{}, fmt.Errorf("handle %d is not origin %q (host namespace %q)", handle, origin, ns.Origin())
		}
		return wire.Ref(e.Class, e.Hash), nil
	}
	recv, err := importRef(wire.Ref("", handle))
	if err == nil {
		args[3], err = wire.MapRefs(args[3], importRef)
	}
	if err != nil {
		return peerForeign(err)
	}
	imported, _ := args[3].AsList()
	sp := h.Telemetry.Tracer().StartRemote(sc, "peer-call "+method)
	var out wire.Value
	err = h.World.ExecSpan(false, sp, nil, func(env classmodel.Env) error {
		v, err := env.Call(recv, method, imported...)
		if err != nil {
			return err
		}
		out, err = wire.MapRefs(v, h.exportRef(ns))
		return err
	})
	sp.Finish(err)
	if err != nil {
		class, _, _ := recv.AsRef()
		return peerError("call %s.%s: %v", class, method, err)
	}
	return peerOK(out)
}

// exportRef pins a ref result and issues an origin-tagged handle for it
// (world.Runtime.PinNamed), as a serve session's export path does. A
// namespace drained by the channel's close refuses it.
func (h *PeerHost) exportRef(ns *registry.Namespace) func(wire.Value) (wire.Value, error) {
	return func(ref wire.Value) (wire.Value, error) {
		handle, err := h.World.Untrusted().PinNamed(ns, ref)
		if err != nil {
			return wire.Value{}, err
		}
		if handle == 0 {
			return wire.Value{}, ErrPeerClosed
		}
		class, _, _ := ref.AsRef()
		return wire.Ref(class, handle), nil
	}
}

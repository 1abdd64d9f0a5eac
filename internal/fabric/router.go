package fabric

// router.go is the client side of the partition scheme: a Router holds
// one attested session per shard (dialed lazily, verified against that
// shard's measurement from the routing table) and maps each key through
// the consistent-hash ring. Topology is discovered, not configured: on
// a WrongShardError redirect or a dead connection the router refreshes
// its table from the fabric and retries toward the owner, under a
// bounded redirect budget so a stale or disagreeing topology degrades
// into a typed error instead of a loop.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"montsalvat/internal/serve"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
)

// ErrRedirectBudget reports a request that could not land after
// maxRedirects redirects/refreshes.
var ErrRedirectBudget = errors.New("fabric: redirect budget exhausted")

// maxRedirects bounds how many redirect-or-refresh hops one request may
// take.
const maxRedirects = 3

// RouterConfig is empty: every Router is configured by its Fabric.
// Fabric.Client keeps the parameter because benchmark/stack.go passes
// it; remove with the next benchmark PR.
type RouterConfig struct{}

// RouterStats counts routing events.
type RouterStats struct {
	// Requests is the number of operations attempted.
	Requests uint64
	// Redirects counts wrong-shard rejections received.
	Redirects uint64
	// Refreshes counts routing-table refreshes taken.
	Refreshes uint64
}

// Router is a sharded KV client.
type Router struct {
	f      *Fabric
	tracer *telemetry.Tracer
	events *telemetry.EventLog

	mu    sync.Mutex
	table Table
	conns map[int]*routerConn

	requests  atomic.Uint64
	redirects atomic.Uint64
	refreshes atomic.Uint64
}

type routerConn struct {
	c    *serve.Client
	kv   serve.Handle
	addr string
}

// Put routes a write to the owner of key.
func (r *Router) Put(key, val string) error {
	_, err := r.do("put", key, wire.Str(key), wire.Str(val))
	return err
}

// Get routes a read to the owner of key. ok is false when the key is
// absent.
func (r *Router) Get(key string) (val string, ok bool, err error) {
	v, err := r.do("get", key, wire.Str(key))
	if err != nil {
		return "", false, err
	}
	if v.IsNull() {
		return "", false, nil
	}
	s, _ := v.AsStr()
	return s, true, nil
}

// Stats snapshots routing counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Requests:  r.requests.Load(),
		Redirects: r.redirects.Load(),
		Refreshes: r.refreshes.Load(),
	}
}

// Close tears down every shard session.
func (r *Router) Close() {
	r.mu.Lock()
	conns := r.conns
	r.conns = make(map[int]*routerConn)
	r.mu.Unlock()
	for _, rc := range conns {
		rc.c.Close()
	}
}

func (r *Router) currentTable() Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table
}

// refresh re-reads the fabric's table and drops sessions whose
// shard moved (new address or measurement).
func (r *Router) refresh() Table {
	t := r.f.Table()
	r.refreshes.Add(1)
	var stale []*routerConn
	r.mu.Lock()
	if t.Epoch >= r.table.Epoch {
		r.table = t
		for id, rc := range r.conns {
			if s, ok := t.Shard(id); !ok || s.Addr != rc.addr {
				stale = append(stale, rc)
				delete(r.conns, id)
			}
		}
	} else {
		t = r.table
	}
	r.mu.Unlock()
	for _, rc := range stale {
		rc.c.Close()
	}
	return t
}

// conn returns (dialing if needed) the session for a shard under the
// given table view.
func (r *Router) conn(t Table, id int) (*routerConn, error) {
	r.mu.Lock()
	if rc, ok := r.conns[id]; ok {
		r.mu.Unlock()
		return rc, nil
	}
	r.mu.Unlock()

	info, ok := t.Shard(id)
	if !ok {
		return nil, fmt.Errorf("fabric: shard %d not in routing table (epoch %d)", id, t.Epoch)
	}
	c, err := serve.Dial(info.Addr, serve.ClientConfig{Platform: r.f.platform, Measurement: info.Measurement})
	if err != nil {
		return nil, err
	}
	h, err := c.Bind("kv")
	if err != nil {
		c.Close()
		return nil, err
	}
	rc := &routerConn{c: c, kv: h, addr: info.Addr}
	r.mu.Lock()
	if cur, ok := r.conns[id]; ok {
		// Lost a dial race; keep the established session.
		r.mu.Unlock()
		c.Close()
		return cur, nil
	}
	r.conns[id] = rc
	r.mu.Unlock()
	return rc, nil
}

// drop discards a session after a transport failure.
func (r *Router) drop(id int, rc *routerConn) {
	r.mu.Lock()
	if cur, ok := r.conns[id]; ok && cur == rc {
		delete(r.conns, id)
	}
	r.mu.Unlock()
	rc.c.Close()
}

// isTransportErr reports whether err is a session transport failure (a
// killed gateway poisons its clients with the raw read error) rather
// than a typed response: those sessions are dead, not wrong.
func isTransportErr(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.As(err, &ne)
}

// do routes one operation: hash the key, call the owner, and on a
// redirect or dead session refresh the table and retry — at most
// maxRedirects hops. A sampled operation is one root span whose context
// rides every hop, so the retry after a WrongShardError joins the
// originating trace instead of starting a fresh one; each redirect is a
// child span annotated with the old and new owner and the table epoch.
func (r *Router) do(method, key string, args ...wire.Value) (v wire.Value, err error) {
	r.requests.Add(1)
	sp := r.tracer.StartRoot("route " + method)
	sp.SetNode("router")
	defer func() { sp.Finish(err) }()
	t := r.currentTable()
	forced := -1 // owner hint from the last redirect, when the refreshed table still disagrees
	var lastErr error
	for attempt := 0; attempt <= maxRedirects; attempt++ {
		owner := t.Owner(key)
		if forced >= 0 {
			owner = forced
			forced = -1
		}
		if owner < 0 {
			return wire.Value{}, fmt.Errorf("fabric: empty routing table (epoch %d)", t.Epoch)
		}
		rc, err := r.conn(t, owner)
		if err != nil {
			lastErr = err
			t = r.refresh()
			continue
		}
		v, err := rc.c.CallCtx(sp.Context(), 0, rc.kv, method, args...)
		if err == nil {
			return v, nil
		}
		lastErr = err
		var ws *serve.WrongShardError
		switch {
		case errors.As(err, &ws):
			// The gateway knows better than our table: refresh, and if
			// the refreshed table still routes to the rejecting shard,
			// follow the redirect hint directly.
			r.redirects.Add(1)
			hop := r.tracer.StartChild(sp, "redirect")
			hop.SetRedirect(owner, ws.Owner, ws.Epoch)
			hop.Finish(nil)
			r.events.Emit(telemetry.EventRedirect, "router", sp.Context().TraceID,
				"%s %q: owner %d -> %d epoch %d", method, key, owner, ws.Owner, ws.Epoch)
			t = r.refresh()
			if t.Owner(key) == owner && ws.Owner != owner {
				forced = ws.Owner
			}
		case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrRecovering), isTransportErr(err):
			// Dead or recovering session: drop it and rediscover.
			r.drop(owner, rc)
			t = r.refresh()
		default:
			return wire.Value{}, err
		}
	}
	return wire.Value{}, fmt.Errorf("%w (%d hops): %v", ErrRedirectBudget, maxRedirects, lastErr)
}

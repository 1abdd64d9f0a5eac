package serve

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
)

// sendRaw issues plain — an already encoded request carrying id — over
// the client's session as roundTrip would, and returns the response.
func sendRaw(t *testing.T, c *Client, id int64, plain []byte) response {
	t.Helper()
	p := pendingCalls.Get().(*pendingCall)
	p.c, p.id = c, id
	c.mu.Lock()
	c.pending[id] = p
	c.mu.Unlock()
	c.writeMu.Lock()
	_, err := c.ch.Send(append(c.ch.Frame(), plain...))
	c.writeMu.Unlock()
	if err != nil {
		t.Fatalf("raw send: %v", err)
	}
	resp, ok := <-p.resp
	if !ok {
		t.Fatal("connection dropped instead of answering")
	}
	return resp
}

// TestServeOverDeepRequest: a request nested past wire.MaxDepth — once
// 2.4 s of CPU and 250 MB of stack at the frame limit, and a dead process
// beyond it — is refused as a bad request under its own id, and neither
// the session nor the server is the worse for it.
func TestServeOverDeepRequest(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	store, err := c.New(demo.KVStoreCls)
	if err != nil {
		t.Fatal(err)
	}

	id := c.seq.Add(1)
	// [id, then as many one-element list headers as fit the frame limit].
	plain := wire.AppendListHeader(nil, 2)
	plain = wire.Append(plain, wire.Int(id))
	plain = append(plain, bytes.Repeat([]byte{byte(wire.KindList), 1}, (maxFrameBytes-64)/2)...)
	resp := sendRaw(t, c, id, plain)
	if resp.id != id || resp.status != statusBadRequest {
		t.Fatalf("over-deep request: id %d status %q, want id %d status %q", resp.id, resp.status, id, statusBadRequest)
	}
	if err := resp.err(); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("over-deep request: %v, want ErrBadRequest", err)
	}

	// The session still serves, with its counters in step...
	if _, err := c.Call(store, "put", wire.Str("k"), wire.Str("v")); err != nil {
		t.Fatalf("put after the refusal: %v", err)
	}
	if got, err := c.Call(store, "get", wire.Str("k")); err != nil || !got.Equal(wire.Str("v")) {
		t.Fatalf("get after the refusal: %v, %v", got, err)
	}
	// ...and so does the server, for others.
	c2, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	defer c2.Close()
	if _, err := c2.New(demo.KVStoreCls); err != nil {
		t.Fatal(err)
	}
	if s := srv.Stats(); s.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2", s.Sessions)
	}
}

// TestServeSessionLimitConcurrent: the limit holds however many clients
// dial at once. Before a slot was reserved at the check, every dial that
// passed it while the first was still attesting got a session.
func TestServeSessionLimitConcurrent(t *testing.T) {
	srv, addr, cfg := startServer(t, demo.MustKVProgram(), Options{MaxSessions: 1})
	const dials = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		clients []*Client
		limited int
	)
	for i := 0; i < dials; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, cfg)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				clients = append(clients, c)
			case errors.Is(err, ErrSessionLimit):
				limited++
			default:
				t.Errorf("dial: %v", err)
			}
		}()
	}
	wg.Wait()
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	if len(clients) != 1 || limited != dials-1 {
		t.Fatalf("%d sessions and %d ErrSessionLimit from %d dials, want 1 and %d", len(clients), limited, dials, dials-1)
	}
	if s := srv.Stats(); s.Sessions != 1 || s.RejectedSession != dials-1 {
		t.Fatalf("server counts %d sessions, %d rejected; want 1, %d", s.Sessions, s.RejectedSession, dials-1)
	}
	// The refused dials gave their reservations back: once the session
	// goes, the slot is free again.
	clients[0].Close()
	clients = nil
	waitFor(t, func() bool { return srv.Stats().Sessions == 0 })
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatalf("dial after the session closed: %v", err)
	}
	c.Close()
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
	}
}

// warmKVClient dials a gateway over the KV program and returns a session
// whose store holds "user:0001", with every pool and cache on the get
// path filled.
func warmKVClient(tb testing.TB) (*Client, Handle) {
	tb.Helper()
	_, addr, cfg := startServer(tb, demo.MustKVProgram(), Options{})
	c, err := Dial(addr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	store, err := c.New(demo.KVStoreCls)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Call(store, "put", wire.Str("user:0001"), wire.Str("session-token-0001")); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := c.Call(store, "get", wire.Str("user:0001")); err != nil {
			tb.Fatal(err)
		}
	}
	return c, store
}

// clientGetAllocCeiling bounds the heap allocations of one served get,
// counted over the whole process: client encode and rendezvous, session
// decode and admission, the Exec frame, the relayed call into the enclave
// with its bucket scan, and the response back. What is left is the
// request's own values (decoded strings and argument vectors on both
// sides), the closures that carry the Exec body across the boundary, and
// the variadic argument slices of the KV program's own Env calls; a
// request rides its lane worker in a pooled record (session.call), which
// allocates nothing.
const clientGetAllocCeiling = 22

// raceAllocSlack is what the race detector's sync.Pool drops add to a
// served get: 27 or 28 allocations are measured under -race.
const raceAllocSlack = 8

func TestClientGetAllocs(t *testing.T) {
	c, store := warmKVClient(t)
	key := wire.Str("user:0001")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Call(store, "get", key); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one served get: %v allocations", allocs)
	ceiling := clientGetAllocCeiling
	if raceEnabled {
		ceiling += raceAllocSlack
	}
	if allocs > float64(ceiling) {
		t.Fatalf("one served get = %v allocs, want <= %d", allocs, ceiling)
	}
}

var sinkResult wire.Value

// BenchmarkClientGet is one closed-loop gateway get over loopback: the
// unit of the gateway-mixed workload.
func BenchmarkClientGet(b *testing.B) {
	c, store := warmKVClient(b)
	key := wire.Str("user:0001")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := c.Call(store, "get", key)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = v
	}
}

package serve

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/sgx"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// TestServeTelemetryCollector drives a session against an instrumented
// gateway and asserts the collector absorbs the serving counters —
// including a typed rejection reason — into the shared registry.
func TestServeTelemetryCollector(t *testing.T) {
	tel := telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 256})
	wopts := world.DefaultOptions()
	wopts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), wopts)
	if err != nil {
		t.Fatalf("build world: %v", err)
	}
	platform := sgx.NewPlatformFromSeed([]byte("serve-telemetry-test"))
	srv, err := New(Options{World: w, Platform: platform, Telemetry: tel})
	if err != nil {
		w.Close()
		t.Fatalf("new server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.Close()
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("shutdown: %v", err)
		}
		<-done
		w.Close()
	}()

	c, err := Dial(ln.Addr().String(), ClientConfig{Platform: platform, Measurement: srv.Measurement()})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	store, err := c.New(demo.KVStoreCls)
	if err != nil {
		t.Fatalf("new store: %v", err)
	}
	if _, err := c.Call(store, "put", wire.Str("k"), wire.Str("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := c.Release(store); err != nil {
		t.Fatalf("release: %v", err)
	}
	// A released handle is foreign: this is the typed rejection the
	// reason-labelled counter must expose.
	if _, err := c.Call(store, "size"); err == nil {
		t.Fatal("call on released handle succeeded")
	}

	// A reply leaves before its latency sample lands: wait for the last.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if tel.Registry().Snapshot().Histograms["montsalvat_serve_request_ns"].Count == srv.Stats().Requests {
			break
		}
	}
	snap := tel.Registry().Snapshot()
	st := srv.Stats()
	if got := snap.Counters["montsalvat_serve_sessions_total"]; got != st.SessionsTotal {
		t.Fatalf("sessions metric = %d, server says %d", got, st.SessionsTotal)
	}
	if got := snap.Counters["montsalvat_serve_requests_total"]; got == 0 || got != st.Requests {
		t.Fatalf("requests metric = %d, server says %d", got, st.Requests)
	}
	if got := snap.Counters[`montsalvat_serve_rejected_total{reason="foreign_ref"}`]; got != 1 {
		t.Fatalf("foreign_ref rejections = %d, want 1", got)
	}
	// The store's constructor and the put were handed to lanes: the only
	// ecalls are the entries of the default 32 lanes.
	if got := snap.Counters[`montsalvat_boundary_calls_total{route="resident"}`]; got != 2 {
		t.Fatalf("resident crossings = %d, want 2", got)
	}
	if got := snap.Counters["montsalvat_sgx_ecalls_total"]; got != 32 {
		t.Fatalf("ecalls = %d, want the 32 lane entries", got)
	}
	// All declared reasons stay visible even at zero, so dashboards can
	// reference them before the first incident.
	for _, reason := range []string{"overloaded", "draining", "deadline", "session_limit", "session_busy"} {
		key := `montsalvat_serve_rejected_total{reason="` + reason + `"}`
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("missing rejection reason series %s", key)
		}
	}
	if snap.Histograms["montsalvat_serve_handshake_ns"].Count == 0 {
		t.Fatal("handshake latency histogram empty")
	}
	hr := snap.Histograms["montsalvat_serve_request_ns"]
	if hr.Count == 0 || hr.Count != st.Requests {
		t.Fatalf("request latency histogram count = %d, requests = %d", hr.Count, st.Requests)
	}

	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		`montsalvat_serve_rejected_total{reason="foreign_ref"} 1`,
		"montsalvat_serve_sessions_active",
		"montsalvat_serve_request_ns_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

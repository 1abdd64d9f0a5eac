package smoke

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

var testPlatform = sgx.NewPlatformFromSeed([]byte("montsalvat-smoke-test"))

// startDurable boots a durable gateway over fs on a fresh partitioned
// KV world, torn down with the test. tel, when set, instruments both.
func startDurable(t *testing.T, fs shim.FS, tel *telemetry.Telemetry) *Gateway {
	t.Helper()
	opts := world.DefaultOptions()
	opts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	g, err := StartGateway(GatewayOptions{World: w, Platform: testPlatform, Durable: true, FS: fs, Telemetry: tel})
	if err != nil {
		t.Fatalf("durable gateway boot: %v", err)
	}
	t.Cleanup(g.Close)
	return g
}

// session dials the gateway and binds its exported store; the caller
// closes the client.
func session(t *testing.T, g *Gateway) (*serve.Client, serve.Handle) {
	t.Helper()
	c, err := serve.Dial(g.Addr(), g.ClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Bind("kv")
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c, h
}

// putAll writes n keys of one round through a fresh session and acks
// them in led.
func putAll(t *testing.T, g *Gateway, led *Ledger, round, n int) {
	t.Helper()
	c, h := session(t, g)
	defer c.Close()
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("r%d-v%03d", round, i)
		if _, err := c.Call(h, "put", wire.Str(k), wire.Str(v)); err != nil {
			t.Fatalf("round %d put %s: %v", round, k, err)
		}
		led.Ack(k, v)
	}
}

// verify reads every acked write back through a fresh session.
func verify(t *testing.T, g *Gateway, led *Ledger) {
	t.Helper()
	c, h := session(t, g)
	defer c.Close()
	err := led.Verify(func(key string) (string, bool, error) {
		v, err := c.Call(h, "get", wire.Str(key))
		if err != nil || v.IsNull() {
			return "", false, err
		}
		s, _ := v.AsStr()
		return s, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableGatewayCrashRecover drives the crash cycle the orderly
// checks share: writes before and after a checkpoint, a kill and
// recovery under Server.Recover (new sessions are refused with the
// typed retry signal meanwhile), every acked write read back; then more
// acked writes, a second crash of the recovered enclave, and the whole
// ledger read back again.
func TestDurableGatewayCrashRecover(t *testing.T) {
	g := startDurable(t, shim.NewMemFS(), nil)
	led := NewLedger()
	putAll(t, g, led, 1, 12)
	if err := g.Manager().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	putAll(t, g, led, 2, 6) // overwrites half of round 1 from the WAL tail
	crash := func(n int) {
		t.Helper()
		if err := g.Settle(0); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.CrashRecover(ctx, nil); err != nil {
			t.Fatalf("crash recovery %d: %v", n, err)
		}
	}
	crash(1)
	if st := g.Manager().Stats(); st.ReplayedRecords != 6 {
		t.Errorf("recovery replayed %d records, want the 6 of the tail", st.ReplayedRecords)
	}
	verify(t, g, led)
	putAll(t, g, led, 3, 16) // overwrites round 1 and adds 4 new keys
	crash(2)
	verify(t, g, led)
	if st := g.W.Stats(); st.Recoveries != 2 || st.RejectedRecovering < 2 {
		t.Fatalf("%d recoveries and %d mid-recovery rejections, want 2 and >= 2",
			st.Recoveries, st.RejectedRecovering)
	}
}

// TestDurableGatewayOnFreshDirFS boots a durable gateway on a real
// directory nobody prepared — no "p/" made in advance — and has it ack
// and serve a put, with its log on disk under p/.
func TestDurableGatewayOnFreshDirFS(t *testing.T) {
	root := t.TempDir()
	fs, err := shim.NewDirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	g := startDurable(t, fs, nil)
	led := NewLedger()
	putAll(t, g, led, 1, 3)
	verify(t, g, led)
	segs, err := filepath.Glob(filepath.Join(root, "p", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment under %s/p: %v %v", root, segs, err)
	}
	if info, err := os.Stat(segs[len(segs)-1]); err != nil || info.Size() == 0 {
		t.Fatalf("live segment %v: %v", info, err)
	}
}

// coreMetrics are the families a live scrape of a served gateway must
// carry: transition routing, latency distribution, GC sweeps, typed
// admission rejections, enclave transition counts, served requests.
var coreMetrics = []string{
	"montsalvat_boundary_calls_total",
	"montsalvat_boundary_dispatch_ns_count",
	"montsalvat_sgx_ecalls_total",
	"montsalvat_sgx_ocalls_total",
	"montsalvat_gc_sweeps_total",
	`montsalvat_serve_rejected_total{reason="overloaded"}`,
	"montsalvat_serve_requests_total",
	"montsalvat_serve_request_ns_count",
}

// TestServedTelemetryScrape serves a few puts and gets on an
// instrumented gateway, every call traced, then scrapes the live
// introspection endpoint: /metrics must carry every core family and
// /traces a sampled ocall nested under the ecall that made it.
func TestServedTelemetryScrape(t *testing.T) {
	tel := telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 4096})
	g := startDurable(t, shim.NewMemFS(), tel)
	g.wld.StartGCHelpers()
	ms, err := telemetry.Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ms.Close() })
	led := NewLedger()
	putAll(t, g, led, 1, 8)
	verify(t, g, led)

	scrape := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	metrics := string(scrape("/metrics"))
	for _, name := range coreMetrics {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	var spans []telemetry.Span
	if err := json.Unmarshal(scrape("/traces"), &spans); err != nil {
		t.Fatalf("/traces: %v", err)
	}
	for _, sp := range spans {
		if sp.Dir == "ocall" && sp.ParentID != 0 {
			return
		}
	}
	t.Fatalf("/traces: no nested ocall span among %d spans", len(spans))
}

// TestLedgerVerify checks that the read-back catches both ways an acked
// write can go wrong: missing, and served with another value.
func TestLedgerVerify(t *testing.T) {
	led := NewLedger()
	led.Ack("a", "1")
	led.Ack("b", "2")
	led.Ack("a", "3") // the last promise is the one checked
	store := map[string]string{"a": "3", "b": "2"}
	get := func(k string) (string, bool, error) { v, ok := store[k]; return v, ok, nil }
	if err := led.Verify(get); err != nil {
		t.Fatal(err)
	}
	store["a"] = "1"
	if err := led.Verify(get); err == nil {
		t.Fatal("diverged write passed read-back")
	}
	delete(store, "a")
	if err := led.Verify(get); err == nil {
		t.Fatal("lost write passed read-back")
	}
}

// TestFailoverTimeline checks chain matching over a journal: two
// complete failovers match in order; a chain missing its epoch bump
// does not.
func TestFailoverTimeline(t *testing.T) {
	chain := []telemetry.EventType{telemetry.EventKill, telemetry.EventPromoteBegin, telemetry.EventPromoteCommit, telemetry.EventEpochBump}
	var evs []telemetry.Event
	for i := 0; i < 2; i++ {
		for _, typ := range chain {
			evs = append(evs, telemetry.Event{Seq: uint64(len(evs) + 1), Type: typ})
		}
	}
	seqs, err := FailoverTimeline(evs, 2)
	if err != nil || len(seqs) != 8 || seqs[7] != 8 {
		t.Fatalf("FailoverTimeline = %v, %v; want seqs 1..8", seqs, err)
	}
	if _, err := FailoverTimeline(evs[:7], 2); err == nil {
		t.Fatal("second failover without an epoch bump matched")
	}
}

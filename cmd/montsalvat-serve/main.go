// Command montsalvat-serve runs the enclave gateway over the secure
// key-value store program (paper §6.7): a partitioned world whose
// trusted KVStore lives on the enclave heap, served to network clients
// over attested, encrypted sessions.
//
// Usage:
//
//	montsalvat-serve                          # serve on :7415
//	montsalvat-serve -addr 127.0.0.1:0        # serve on an ephemeral port
//	montsalvat-serve -load -addr HOST:PORT    # run the load generator
//	montsalvat-serve -smoke                   # in-process server + load burst
//	montsalvat-serve -crash-smoke             # durable gateway kill/recover cycle
//	montsalvat-serve -metrics-addr :9415      # live introspection endpoint
//
// Server and load generator share the simulated attestation platform
// through -attest-seed, and the client derives the expected enclave
// measurement by rebuilding the same program (native image builds are
// deterministic), so a gateway serving a different program fails
// attestation instead of serving.
//
// With -metrics-addr, the gateway exposes /metrics (Prometheus text),
// /traces (sampled boundary-transition spans as JSON), /snapshot and
// /healthz. -trace-sample controls how many boundary-call roots are
// traced; -snapshot-interval logs a periodic JSON metrics snapshot for
// headless runs. In -smoke mode with -metrics-addr, the smoke run also
// scrapes its own endpoint and fails unless the core metric families
// and a sampled cross-boundary trace are present.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"montsalvat/internal/bench"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/orderly"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/world"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "montsalvat-serve:", err)
		os.Exit(1)
	}
}

// gatewayConfig carries the server-side knobs from flags to the boot
// helpers.
type gatewayConfig struct {
	maxInflight int
	maxSessions int
	switchless  bool
	batching    bool

	metricsAddr      string
	traceSample      float64
	snapshotInterval time.Duration
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("montsalvat-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7415", "gateway listen (or -load target) address")
		load       = fs.Bool("load", false, "run the load generator against -addr instead of serving")
		smoke      = fs.Bool("smoke", false, "boot an in-process gateway, run a load burst, verify, exit")
		crashSmoke = fs.Bool("crash-smoke", false, "boot a durable in-process gateway, kill and recover the enclave twice under load, verify, exit")
		orderlyChk = fs.Bool("orderly-check", false, "model-check the world and gateway state machines (bounded exhaustive exploration), exit")
		sessions   = fs.Int("sessions", 8, "load generator: concurrent attested sessions")
		requests   = fs.Int("requests", 64, "load generator: requests per session")
		clients    = fs.Int("clients", 0, "scaling benchmark: boot an in-process gateway, compare 1-client vs N-client throughput, exit")
		attestSeed = fs.String("attest-seed", "montsalvat-serve-demo", "shared attestation platform seed")
		cfg        gatewayConfig
	)
	fs.IntVar(&cfg.maxInflight, "max-inflight", 32, "server: bound on concurrently executing requests")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 64, "server: bound on concurrent sessions")
	fs.BoolVar(&cfg.switchless, "switchless", true, "server: charge transitions at the §7 switchless cost")
	fs.BoolVar(&cfg.batching, "batching", true, "server: transition batching")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "server: telemetry HTTP endpoint address (empty disables)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0.01, "server: fraction of boundary-call roots traced (0..1)")
	fs.DurationVar(&cfg.snapshotInterval, "snapshot-interval", 0, "server: periodic metrics snapshot log interval (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	platform := sgx.NewPlatformFromSeed([]byte(*attestSeed))

	if *clients > 0 {
		return runScale(out, platform, *clients, *requests, cfg)
	}
	if *load {
		return runLoad(out, *addr, platform, *sessions, *requests)
	}
	if *crashSmoke {
		return runCrashSmoke(out, platform, *sessions, *requests, cfg)
	}
	if *orderlyChk {
		return orderly.RunCheck(out, orderly.ServeCheckPasses())
	}
	if *smoke {
		// The observability smoke asserts a sampled trace is present, so
		// unless the operator pinned a rate, trace every call.
		sampleSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "trace-sample" {
				sampleSet = true
			}
		})
		if !sampleSet {
			cfg.traceSample = 1
		}
		return runSmoke(out, platform, *sessions, *requests, cfg)
	}
	return runServer(out, *addr, platform, cfg, nil)
}

// newTelemetry builds the observability bundle for the config, or nil
// when both the endpoint and the snapshot logger are off — the world
// and gateway then run the zero-overhead uninstrumented paths.
func (c gatewayConfig) newTelemetry() *telemetry.Telemetry {
	if c.metricsAddr == "" && c.snapshotInterval <= 0 {
		return nil
	}
	return telemetry.New(telemetry.Options{
		TraceSampleRate: c.traceSample,
		TraceBuffer:     4096,
	})
}

// buildWorld boots the partitioned KV world the gateway serves.
func buildWorld(cfg gatewayConfig, tel *telemetry.Telemetry) (*world.World, error) {
	prog, err := demo.KVProgram()
	if err != nil {
		return nil, err
	}
	opts := world.DefaultOptions()
	opts.Cfg = simcfg.Default()
	opts.Cfg.Switchless = cfg.switchless
	opts.Cfg.Batching = cfg.batching
	opts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(prog, opts)
	if err != nil {
		return nil, err
	}
	w.StartGCHelpers()
	return w, nil
}

// startObservability brings up the introspection endpoint and snapshot
// logger the config asks for. The returned stop function is safe to
// call when nothing was started.
func startObservability(out io.Writer, cfg gatewayConfig, tel *telemetry.Telemetry) (addr string, stop func(), err error) {
	stopLog := tel.StartSnapshotLogger(cfg.snapshotInterval, func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	})
	if cfg.metricsAddr == "" {
		return "", stopLog, nil
	}
	ms, err := telemetry.Serve(cfg.metricsAddr, tel)
	if err != nil {
		stopLog()
		return "", nil, err
	}
	fmt.Fprintf(out, "telemetry on http://%s/metrics (traces at /traces, sample rate %g)\n",
		ms.Addr(), cfg.traceSample)
	return ms.Addr().String(), func() { stopLog(); _ = ms.Close() }, nil
}

// expectedMeasurement derives the enclave measurement a client must
// demand: it builds the same trusted image (builds are deterministic).
func expectedMeasurement() ([32]byte, error) {
	prog, err := demo.KVProgram()
	if err != nil {
		return [32]byte{}, err
	}
	build, err := core.BuildPartitioned(prog)
	if err != nil {
		return [32]byte{}, err
	}
	return build.TrustedImage.Measurement(), nil
}

// runServer serves until SIGINT/SIGTERM, then drains. ready, when
// non-nil, receives the bound address once listening (used by -smoke
// and tests).
func runServer(out io.Writer, addr string, platform *sgx.Platform, cfg gatewayConfig, ready chan<- string) error {
	tel := cfg.newTelemetry()
	w, err := buildWorld(cfg, tel)
	if err != nil {
		return err
	}
	defer w.Close()
	srv, err := serve.New(serve.Options{
		World:       w,
		Platform:    platform,
		MaxInFlight: cfg.maxInflight,
		MaxSessions: cfg.maxSessions,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	_, stopObs, err := startObservability(out, cfg, tel)
	if err != nil {
		_ = ln.Close()
		return err
	}
	defer stopObs()
	meas := srv.Measurement()
	fmt.Fprintf(out, "enclave gateway serving %q on %s\n", demo.KVStoreCls, ln.Addr())
	fmt.Fprintf(out, "enclave measurement %x\n", meas[:8])
	if ready != nil {
		ready <- ln.Addr().String()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	select {
	case err := <-serveDone:
		return err
	case <-stop:
	}
	fmt.Fprintln(out, "draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveDone; err != nil {
		return err
	}
	printStats(out, srv)
	return nil
}

func runLoad(out io.Writer, addr string, platform *sgx.Platform, sessions, requests int) error {
	meas, err := expectedMeasurement()
	if err != nil {
		return err
	}
	res, err := bench.ServeLoad(bench.ServeLoadOptions{
		Addr:     addr,
		Client:   serve.ClientConfig{Platform: platform, Measurement: meas},
		Sessions: sessions,
		Requests: requests,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.String())
	if res.HandshakeFailures > 0 {
		return fmt.Errorf("%d sessions failed attestation", res.HandshakeFailures)
	}
	return nil
}

// runScale boots a gateway in-process and measures ServeLoad throughput
// at one attested client and at N, reporting the parallel speedup — the
// end-to-end check that concurrent sessions' proxy calls really execute
// in parallel through the worker pool and the sharded crossing engine.
func runScale(out io.Writer, platform *sgx.Platform, clients, requests int, cfg gatewayConfig) error {
	tel := cfg.newTelemetry()
	w, err := buildWorld(cfg, tel)
	if err != nil {
		return err
	}
	defer w.Close()
	srv, err := serve.New(serve.Options{
		World:       w,
		Platform:    platform,
		MaxInFlight: cfg.maxInflight,
		MaxSessions: cfg.maxSessions,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	fmt.Fprintf(out, "scale: gateway on %s, %d requests/client\n", ln.Addr(), requests)

	client := serve.ClientConfig{Platform: platform, Measurement: srv.Measurement()}
	run := func(n int) (bench.ServeLoadResult, error) {
		res, err := bench.ServeLoad(bench.ServeLoadOptions{
			Addr:     ln.Addr().String(),
			Client:   client,
			Sessions: n,
			Requests: requests,
		})
		if err != nil {
			return res, err
		}
		if res.HandshakeFailures > 0 || res.Errors > 0 {
			return res, fmt.Errorf("%d handshake failures, %d request errors at %d clients",
				res.HandshakeFailures, res.Errors, n)
		}
		return res, nil
	}
	solo, err := run(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scale:  1 client : %8.0f req/s  p50 %v\n", solo.Throughput, solo.P50.Round(time.Microsecond))
	par, err := run(clients)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scale: %2d clients: %8.0f req/s  p50 %v  speedup %.2fx\n",
		clients, par.Throughput, par.P50.Round(time.Microsecond), par.Throughput/solo.Throughput)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveDone; err != nil {
		return err
	}
	if par.Throughput <= 0 {
		return fmt.Errorf("scale failed: zero parallel throughput at %d clients", clients)
	}
	return nil
}

// runSmoke boots a gateway in-process, fires a load burst at it over
// loopback TCP, drains, and fails on any handshake failure or request
// error — the CI end-to-end check. With -metrics-addr it additionally
// scrapes the introspection endpoint mid-run and asserts the core
// metric families and a sampled cross-boundary trace.
func runSmoke(out io.Writer, platform *sgx.Platform, sessions, requests int, cfg gatewayConfig) error {
	tel := cfg.newTelemetry()
	w, err := buildWorld(cfg, tel)
	if err != nil {
		return err
	}
	defer w.Close()
	srv, err := serve.New(serve.Options{
		World:       w,
		Platform:    platform,
		MaxInFlight: cfg.maxInflight,
		MaxSessions: cfg.maxSessions,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	obsAddr, stopObs, err := startObservability(out, cfg, tel)
	if err != nil {
		_ = ln.Close()
		return err
	}
	defer stopObs()
	meas := srv.Measurement()
	fmt.Fprintf(out, "smoke: gateway on %s, measurement %x\n", ln.Addr(), meas[:8])
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	res, err := bench.ServeLoad(bench.ServeLoadOptions{
		Addr:     ln.Addr().String(),
		Client:   serve.ClientConfig{Platform: platform, Measurement: srv.Measurement()},
		Sessions: sessions,
		Requests: requests,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.String())

	if obsAddr != "" {
		if err := scrapeCheck(out, obsAddr); err != nil {
			return fmt.Errorf("observability smoke: %w", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveDone; err != nil {
		return err
	}
	printStats(out, srv)

	if res.HandshakeFailures > 0 {
		return fmt.Errorf("smoke failed: %d handshake failures", res.HandshakeFailures)
	}
	if res.Errors > 0 {
		return fmt.Errorf("smoke failed: %d request errors", res.Errors)
	}
	want := sessions * requests
	if res.Requests != want {
		return fmt.Errorf("smoke failed: completed %d/%d requests", res.Requests, want)
	}
	st := srv.Stats()
	if st.HandshakeFailures > 0 {
		return fmt.Errorf("smoke failed: server counted %d handshake failures", st.HandshakeFailures)
	}
	if st.PeakInFlight > cfg.maxInflight {
		return fmt.Errorf("smoke failed: peak in-flight %d exceeds bound %d", st.PeakInFlight, cfg.maxInflight)
	}
	fmt.Fprintln(out, "smoke: OK")
	return nil
}

// coreMetrics are the families the observability smoke demands from a
// live scrape: transition routing, latency distribution, GC releases,
// typed admission rejections, enclave transition counts.
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

// scrapeCheck pulls /metrics and /traces off a live endpoint and fails
// unless every core metric family and one sampled cross-boundary trace
// with a nested ocall span are present.
func scrapeCheck(out io.Writer, addr string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, name := range coreMetrics {
		if !strings.Contains(text, name) {
			return fmt.Errorf("/metrics missing %s", name)
		}
	}

	resp, err = client.Get("http://" + addr + "/traces")
	if err != nil {
		return err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var spans []telemetry.Span
	if err := json.Unmarshal(body, &spans); err != nil {
		return fmt.Errorf("/traces: %w", err)
	}
	var nested bool
	for _, sp := range spans {
		if sp.Dir == "ocall" && sp.ParentID != 0 {
			nested = true
			break
		}
	}
	if len(spans) == 0 {
		return fmt.Errorf("/traces: no sampled spans")
	}
	if !nested {
		return fmt.Errorf("/traces: no nested ocall span among %d spans", len(spans))
	}
	fmt.Fprintf(out, "smoke: scraped %d metric families' worth of text, %d sampled spans (nested ocall present)\n",
		len(coreMetrics), len(spans))
	return nil
}

func printStats(out io.Writer, srv *serve.Server) {
	st := srv.Stats()
	fmt.Fprintf(out, "gateway: %d sessions served, %d requests, peak in-flight %d\n",
		st.SessionsTotal, st.Requests, st.PeakInFlight)
	fmt.Fprintf(out, "gateway: rejects overload=%d draining=%d deadline=%d foreign=%d session-busy=%d, handshake failures=%d\n",
		st.RejectedOverload, st.RejectedDraining, st.RejectedDeadline, st.RejectedForeign, st.RejectedSessionBusy, st.HandshakeFailures)
	fmt.Fprintf(out, "gateway: %d B in, %d B out\n", st.BytesIn, st.BytesOut)
}

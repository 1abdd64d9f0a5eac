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
//	montsalvat-serve -metrics-addr :9415      # live introspection endpoint
//	montsalvat-serve -orderly-check           # model-check world and gateway
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
// headless runs.
//
// The gateway charges every full transition at the §7 switchless cost
// and batches transitions; the end-to-end checks of this stack are the
// tests of internal/serve and internal/smoke.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
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

	metricsAddr      string
	traceSample      float64
	snapshotInterval time.Duration
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("montsalvat-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:7415", "gateway listen (or -load target) address")
		load       = fs.Bool("load", false, "run the load generator against -addr instead of serving")
		orderlyChk = fs.Bool("orderly-check", false, "model-check the world and gateway state machines (bounded exhaustive exploration), exit")
		sessions   = fs.Int("sessions", 8, "load generator: concurrent attested sessions")
		requests   = fs.Int("requests", 64, "load generator: requests per session")
		attestSeed = fs.String("attest-seed", "montsalvat-serve-demo", "shared attestation platform seed")
		cfg        gatewayConfig
	)
	fs.IntVar(&cfg.maxInflight, "max-inflight", 32, "server: bound on concurrently executing requests")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 64, "server: bound on concurrent sessions")
	fs.StringVar(&cfg.metricsAddr, "metrics-addr", "", "server: telemetry HTTP endpoint address (empty disables)")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0.01, "server: fraction of boundary-call roots traced (0..1)")
	fs.DurationVar(&cfg.snapshotInterval, "snapshot-interval", 0, "server: periodic metrics snapshot log interval (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	platform := sgx.NewPlatformFromSeed([]byte(*attestSeed))

	if *load {
		return runLoad(out, *addr, platform, *sessions, *requests)
	}
	if *orderlyChk {
		return orderly.RunCheck(out, orderly.ServeCheckPasses())
	}
	return runServer(out, *addr, platform, cfg)
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

// buildWorld boots the partitioned KV world the gateway serves, with
// switchless transition costs and batching on.
func buildWorld(tel *telemetry.Telemetry) (*world.World, error) {
	prog, err := demo.KVProgram()
	if err != nil {
		return nil, err
	}
	opts := world.DefaultOptions()
	opts.Cfg = simcfg.Default()
	opts.Cfg.Switchless = true
	opts.Cfg.Batching = true
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
func startObservability(out io.Writer, cfg gatewayConfig, tel *telemetry.Telemetry) (stop func(), err error) {
	stopLog := tel.StartSnapshotLogger(cfg.snapshotInterval, func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	})
	if cfg.metricsAddr == "" {
		return stopLog, nil
	}
	ms, err := telemetry.Serve(cfg.metricsAddr, tel)
	if err != nil {
		stopLog()
		return nil, err
	}
	fmt.Fprintf(out, "telemetry on http://%s/metrics (traces at /traces, sample rate %g)\n",
		ms.Addr(), cfg.traceSample)
	return func() { stopLog(); _ = ms.Close() }, nil
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

// runServer serves until SIGINT/SIGTERM, then drains.
func runServer(out io.Writer, addr string, platform *sgx.Platform, cfg gatewayConfig) error {
	tel := cfg.newTelemetry()
	w, err := buildWorld(tel)
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
	stopObs, err := startObservability(out, cfg, tel)
	if err != nil {
		_ = ln.Close()
		return err
	}
	defer stopObs()
	meas := srv.Measurement()
	fmt.Fprintf(out, "enclave gateway serving %q on %s\n", demo.KVStoreCls, ln.Addr())
	fmt.Fprintf(out, "enclave measurement %x\n", meas[:8])

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

func printStats(out io.Writer, srv *serve.Server) {
	st := srv.Stats()
	fmt.Fprintf(out, "gateway: %d sessions served, %d requests, peak in-flight %d\n",
		st.SessionsTotal, st.Requests, st.PeakInFlight)
	fmt.Fprintf(out, "gateway: rejects overload=%d draining=%d deadline=%d foreign=%d session-busy=%d, handshake failures=%d\n",
		st.RejectedOverload, st.RejectedDraining, st.RejectedDeadline, st.RejectedForeign, st.RejectedSessionBusy, st.HandshakeFailures)
	fmt.Fprintf(out, "gateway: %d B in, %d B out\n", st.BytesIn, st.BytesOut)
}

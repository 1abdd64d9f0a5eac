// Command montsalvat-fabric runs the sharded enclave fabric in one
// process: N enclave gateways each owning a partition of the demo KV
// keyspace, R warm-standby replicas per shard fed by checkpoint
// shipping over attested peer channels (every ack waits for the round
// that covers it), and a consistent-hash router in front.
//
// Usage:
//
//	montsalvat-fabric -shards 4 -replicas 1        # serve until SIGINT
//	montsalvat-fabric -shards 4 -replicas 1 -load  # load burst + verify, exit
//	montsalvat-fabric -shards 2 -replicas 1 -load -failover
//	                                               # load, kill a primary
//	                                               # mid-run, promote its
//	                                               # replica, verify
//	montsalvat-fabric -metrics-addr :9415          # fleet observability endpoint
//
// With -load the process is its own client: concurrent routers drive
// the keyspace through attested sessions, every acknowledged write is
// read back, and the run fails if any is missing. With -failover one
// primary is killed after the first load phase and its replica promoted
// — acked writes must survive the switch.
//
// -metrics-addr mounts the fabric-wide observability plane: one
// endpoint serving shard-labeled montsalvat_fabric_* metrics
// (/metrics, /snapshot), the fleet-shared trace ring (/traces), and
// the structured event journal (/events). With -failover the event
// journal is dumped as a one-line-per-event failover timeline at the
// end of the run. The plane's promises (cross-World traces, commit
// rounds parenting their ships, a complete promotion timeline) are
// asserted by the tests of internal/fabric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"montsalvat/internal/fabric"
	"montsalvat/internal/orderly"
	"montsalvat/internal/sgx"
	"montsalvat/internal/smoke"
	"montsalvat/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "montsalvat-fabric:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("montsalvat-fabric", flag.ContinueOnError)
	var (
		shards      = fs.Int("shards", 2, "number of primary shards")
		replicas    = fs.Int("replicas", 1, "warm standbys per shard")
		load        = fs.Bool("load", false, "drive a load burst through the router, verify, exit")
		failover    = fs.Bool("failover", false, "with -load: kill one primary mid-run and promote its replica")
		clients     = fs.Int("clients", 4, "load: concurrent router clients")
		requests    = fs.Int("requests", 64, "load: writes per client per phase")
		attestSeed  = fs.String("attest-seed", "montsalvat-fabric-demo", "attestation platform seed")
		metricsAddr = fs.String("metrics-addr", "", "fleet observability HTTP endpoint address (empty disables)")
		traceSample = fs.Float64("trace-sample", 1, "fraction of routed operations traced (0 disables tracing)")
		orderlyChk  = fs.Bool("orderly-check", false, "model-check the fabric failover state machine (bounded exhaustive exploration), exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *orderlyChk {
		return orderly.RunCheck(out, orderly.FabricCheckPasses())
	}
	if *failover && !*load {
		return fmt.Errorf("-failover requires -load")
	}
	if *failover && *replicas < 1 {
		return fmt.Errorf("-failover needs -replicas >= 1")
	}

	var fleet *telemetry.Fleet
	if *metricsAddr != "" {
		fleet = telemetry.NewFleet(telemetry.Options{TraceSampleRate: *traceSample, TraceBuffer: 4096})
	}
	start := time.Now()
	f, err := fabric.New(fabric.Options{
		Shards:   *shards,
		Replicas: *replicas,
		Platform: sgx.NewPlatformFromSeed([]byte(*attestSeed)),
		Fleet:    fleet,
	})
	if err != nil {
		return err
	}
	defer f.Close()

	t := f.Table()
	fmt.Fprintf(out, "fabric: %d shards x %d replicas up in %v (table epoch %d)\n",
		*shards, *replicas, time.Since(start).Round(time.Millisecond), t.Epoch)
	for _, s := range t.Shards {
		fmt.Fprintf(out, "fabric: shard %d on %s measurement %x\n", s.ID, s.Addr, s.Measurement[:8])
	}

	if fleet != nil {
		ms, err := telemetry.Serve(*metricsAddr, fleet.Telemetry())
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fleet observability on http://%s/metrics (+ /traces /events /snapshot)\n", ms.Addr())
		defer func() { _ = ms.Close() }()
	}

	if *load {
		return runLoad(out, f, fleet, *clients, *requests, *failover)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	<-stop
	fmt.Fprintln(out, "draining...")
	return nil
}

// runLoad drives phases of writes through concurrent routers, killing
// and promoting one shard between phases when failover is set. Every
// acknowledged write is read back at the end. With a fleet attached,
// failover runs end by dumping the event journal as a timeline.
func runLoad(out io.Writer, f *fabric.Fabric, fleet *telemetry.Fleet, clients, requests int, failover bool) error {
	acked := smoke.NewLedger()
	phase := func(name string, tolerant bool) error {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := f.Client(fabric.RouterConfig{})
				defer r.Close()
				for i := 0; i < requests; i++ {
					k := fmt.Sprintf("%s:c%d:k%05d", name, c, i)
					v := fmt.Sprintf("v%d-%d", c, i)
					if err := r.Put(k, v); err != nil {
						if tolerant {
							continue // a dark shard refuses; unacked writes carry no promise
						}
						errs <- fmt.Errorf("%s put %s: %w", name, k, err)
						return
					}
					acked.Ack(k, v)
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return err
		}
		fmt.Fprintf(out, "load: phase %s done in %v (%d acked writes total)\n",
			name, time.Since(start).Round(time.Millisecond), acked.Len())
		return nil
	}

	if err := phase("p1", false); err != nil {
		return err
	}
	if failover {
		victim := f.Table().Shards[len(f.Table().Shards)-1].ID
		exp, err := f.KillShard(victim)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "failover: killed shard %d (acked through stamp %d, lsn %d)\n", victim, exp.Stamp, exp.LSN)
		start := time.Now()
		if err := f.Promote(victim, exp); err != nil {
			return fmt.Errorf("promote shard %d: %w", victim, err)
		}
		fmt.Fprintf(out, "failover: promoted replica in %v (table epoch %d)\n",
			time.Since(start).Round(time.Millisecond), f.Table().Epoch)
		if err := phase("p2", false); err != nil {
			return err
		}
	}

	verify := f.Client(fabric.RouterConfig{})
	defer verify.Close()
	if err := acked.Verify(verify.Get); err != nil {
		return err
	}
	st := f.Stats()
	fmt.Fprintf(out, "load: verified %d acked writes across %d shards\n", acked.Len(), st.Shards)
	fmt.Fprintf(out, "fabric: %d ship rounds (%d B), %d promotions, %d stale rejections, %d peer handshakes\n",
		st.ShipRounds, st.ShipBytes, st.Promotions, st.StalePromotionsRejected, st.PeerHandshakes)

	if fleet != nil && failover {
		printTimeline(out, fleet)
	}
	fmt.Fprintln(out, "load: OK")
	return nil
}

// printTimeline dumps the fleet event journal as a one-line-per-event
// failover timeline, offsets relative to the oldest retained event.
func printTimeline(out io.Writer, fleet *telemetry.Fleet) {
	events := fleet.Telemetry().Events().Dump()
	if len(events) == 0 {
		return
	}
	fmt.Fprintf(out, "timeline: %d events\n", len(events))
	base := events[0].TimeNS
	for _, ev := range events {
		fmt.Fprintf(out, "  %s\n", ev.Line(base))
	}
}

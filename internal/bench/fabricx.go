package bench

// Fabric experiments: horizontal throughput scaling of the sharded
// enclave fabric, and failover time (kill the primary, promote the
// replica from shipped state). Both drive real attested sessions
// through the Router against an in-process N-shard fabric, so the
// numbers include the session crypto, the per-shard WAL append, and —
// when replicas are configured — synchronous checkpoint shipping.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"montsalvat/internal/fabric"
	"montsalvat/internal/simcfg"
)

// fabricShardCounts is the shard-count sweep.
func fabricShardCounts(opts Options) []int {
	if opts.Quick {
		return []int{1, 2, 4}
	}
	return []int{1, 2, 4, 8}
}

// fabricLoadPoint is one measured shard count. The wall rates are what
// the single-process harness achieved on however many cores it got; the
// modeled rates divide the op count by the busiest shard's charged
// virtual-cycle delta — the simulation's currency — so they reflect the
// partitioning itself: with an even key spread, the busiest shard's
// share of the work (and so the modeled capacity) scales with the shard
// count.
type fabricLoadPoint struct {
	PutsPerSec        float64
	GetsPerSec        float64
	ModeledPutsPerSec float64
	ModeledGetsPerSec float64
}

// modeledRate converts the busiest shard's cycle delta into ops/sec at
// the simulated clock rate.
func modeledRate(before, after map[int]int64, ops int) float64 {
	var worst int64
	for id, a := range after {
		if d := a - before[id]; d > worst {
			worst = d
		}
	}
	if worst <= 0 {
		return 0
	}
	return float64(ops) / (float64(worst) / simcfg.CPUHz)
}

// runFabricScalePoint boots a fabric with the given shard count and
// drives clients concurrent routers through a put phase then a get
// phase, returning the steady-state throughput of each.
//
// A warm-up round runs before the timer: every client dials its
// attested session to every shard and faults the hot pages into the
// EPC. Without it the put phase mostly measures session establishment —
// the handshake count grows with shards x clients, so the cold curve
// *degrades* with shard count for setup reasons that have nothing to do
// with the per-put path (the fabric-v1 entry in BENCH_fabric.json was
// recorded cold, which is much of its 2->8 shard flatline).
func runFabricScalePoint(shards, clients, opsPerClient int) (fabricLoadPoint, error) {
	f, err := fabric.New(fabric.Options{Shards: shards})
	if err != nil {
		return fabricLoadPoint{}, err
	}
	defer f.Close()

	routers := make([]*fabric.Router, clients)
	for c := range routers {
		routers[c] = f.Client(fabric.RouterConfig{})
		defer routers[c].Close()
	}

	var failed atomic.Int64
	phase := func(warmups int, op func(r *fabric.Router, key, val string) error) (wall, modeled float64, err error) {
		var wg sync.WaitGroup
		if warmups > 0 {
			for c, r := range routers {
				wg.Add(1)
				go func(c int, r *fabric.Router) {
					defer wg.Done()
					for i := 0; i < warmups; i++ {
						key := fmt.Sprintf("warm:c%d:%d", c, i)
						if err := r.Put(key, key); err != nil {
							failed.Add(1)
							return
						}
					}
				}(c, r)
			}
			wg.Wait()
			if n := failed.Swap(0); n > 0 {
				return 0, 0, fmt.Errorf("%d clients failed during warm-up", n)
			}
		}
		before := f.ShardBusyCycles()
		start := time.Now()
		for c, r := range routers {
			wg.Add(1)
			go func(c int, r *fabric.Router) {
				defer wg.Done()
				for i := 0; i < opsPerClient; i++ {
					key := fmt.Sprintf("c%d:k%06d", c, i)
					if err := op(r, key, key); err != nil {
						failed.Add(1)
						return
					}
				}
			}(c, r)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		after := f.ShardBusyCycles()
		if n := failed.Swap(0); n > 0 {
			return 0, 0, fmt.Errorf("%d clients failed", n)
		}
		ops := clients * opsPerClient
		if elapsed > 0 {
			wall = float64(ops) / elapsed
		}
		return wall, modeledRate(before, after, ops), nil
	}

	// The host core is shared, so wall rates are noisy downward (stolen
	// cycles); take the best of a few reps as the noise-robust estimate
	// of what the code path sustains. Puts overwrite the same keys each
	// rep, and the get phase reads keys the put phase wrote, so reps
	// after the first are inherently warm.
	var p fabricLoadPoint
	for rep := 0; rep < fabricScaleReps; rep++ {
		warmups := 0
		if rep == 0 {
			warmups = 4 * shards
		}
		wall, modeled, err := phase(warmups, func(r *fabric.Router, key, val string) error {
			return r.Put(key, val)
		})
		if err != nil {
			return fabricLoadPoint{}, fmt.Errorf("put phase: %w", err)
		}
		if wall > p.PutsPerSec {
			p.PutsPerSec, p.ModeledPutsPerSec = wall, modeled
		}
		if wall, modeled, err = phase(0, func(r *fabric.Router, key, _ string) error {
			_, ok, err := r.Get(key)
			if err == nil && !ok {
				return fmt.Errorf("lost key %q", key)
			}
			return err
		}); err != nil {
			return fabricLoadPoint{}, fmt.Errorf("get phase: %w", err)
		}
		if wall > p.GetsPerSec {
			p.GetsPerSec, p.ModeledGetsPerSec = wall, modeled
		}
	}
	return p, nil
}

// fabricScaleReps is how many times each scale point's phase pair is
// measured; the best wall rate is kept (multi-tenant hosts steal cycles,
// so noise is one-sided and min-time/best-rate is the robust statistic).
const fabricScaleReps = 3

// fabricScaleParams picks the client fan-out and per-client volume.
// The full-mode volume keeps each timed phase well past the scheduler
// warm-up so single-core wall rates are repeatable.
func fabricScaleParams(opts Options) (clients, opsPerClient int) {
	return opts.scale(8, 4), opts.scale(400, 40)
}

// FabricScale regenerates the shard-scaling experiment: put and get
// throughput of the routed keyspace at 1/2/4/8 shards, normalised
// against the single-shard baseline.
func FabricScale(opts Options) (*Table, error) {
	shardCounts := fabricShardCounts(opts)
	clients, opsPerClient := fabricScaleParams(opts)

	t := &Table{
		ID:      "fabric-scale",
		Title:   "Sharded fabric throughput vs shard count",
		XLabel:  "series \\ shards",
		Unit:    "ops/s",
		Columns: intColumns(shardCounts),
	}
	var puts, gets, modeled, speed []float64
	for _, n := range shardCounts {
		p, err := runFabricScalePoint(n, clients, opsPerClient)
		if err != nil {
			return nil, fmt.Errorf("fabric-scale shards=%d: %w", n, err)
		}
		puts = append(puts, p.PutsPerSec)
		gets = append(gets, p.GetsPerSec)
		modeled = append(modeled, p.ModeledPutsPerSec)
		if modeled[0] > 0 {
			speed = append(speed, p.ModeledPutsPerSec/modeled[0])
		} else {
			speed = append(speed, 0)
		}
	}
	t.AddRow("put-wall", puts...)
	t.AddRow("get-wall", gets...)
	t.AddRow("put-modeled", modeled...)
	t.AddRow("put-modeled-speedup", speed...)
	last := len(shardCounts) - 1
	t.AddNote("%d clients x %d ops/phase, measured after a warm-up round (sessions dialed, EPC hot); every op is an attested session call plus a per-shard WAL append",
		clients, opsPerClient)
	t.AddNote("modeled rate = ops / busiest shard's charged cycles at %.1f GHz; wall rate is host-core-bound",
		simcfg.CPUHz/1e9)
	t.AddNote("modeled put speedup at %d shards: %.2fx over one shard (ideal %.0fx)",
		shardCounts[last], speed[last], float64(shardCounts[last]))
	return t, nil
}

// fabricFailoverRecords is the pre-failover write-volume sweep.
func fabricFailoverRecords(opts Options) []int {
	if opts.Quick {
		return []int{100, 400}
	}
	return []int{500, 2_000, 4_000}
}

// runFailoverPoint loads records writes into a 1-shard 1-replica
// fabric, kills the primary, and measures promotion (recover the
// shipped root on the standby, rollback check, reopen the gateway).
// Every acked write is re-read from the promoted shard.
func runFailoverPoint(records int) (promote time.Duration, err error) {
	f, err := fabric.New(fabric.Options{Shards: 1, Replicas: 1})
	if err != nil {
		return 0, err
	}
	defer f.Close()

	r := f.Client(fabric.RouterConfig{})
	defer r.Close()
	for i := 0; i < records; i++ {
		if err := r.Put(fmt.Sprintf("k%06d", i), fmt.Sprintf("v%d", i)); err != nil {
			return 0, fmt.Errorf("load %d: %w", i, err)
		}
	}

	exp, err := f.KillShard(0)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := f.Promote(0, exp); err != nil {
		return 0, fmt.Errorf("promote: %w", err)
	}
	promote = time.Since(start)

	for _, i := range []int{0, records / 2, records - 1} {
		key := fmt.Sprintf("k%06d", i)
		v, ok, err := r.Get(key)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			return 0, fmt.Errorf("post-failover read %q = (%q, %v, %v)", key, v, ok, err)
		}
	}
	return promote, nil
}

// FailoverTime regenerates the failover-latency experiment: time from
// dead primary to promoted, serving replica, as a function of the
// replicated write volume.
func FailoverTime(opts Options) (*Table, error) {
	counts := fabricFailoverRecords(opts)
	t := &Table{
		ID:      "failover",
		Title:   "Failover time: replica promotion vs replicated write volume",
		XLabel:  "series \\ acked writes",
		Unit:    "milliseconds",
		Columns: intColumns(counts),
	}
	var row []float64
	for _, n := range counts {
		d, err := runFailoverPoint(n)
		if err != nil {
			return nil, fmt.Errorf("failover n=%d: %w", n, err)
		}
		row = append(row, float64(d.Microseconds())/1000)
	}
	t.AddRow("promote", row...)
	t.AddNote("promotion = recover shipped root on the standby (unseal checkpoint + replay WAL tail) + rollback check + reopen gateway")
	t.AddNote("writes were acked only after a ship round covered them, so the standby never trails the promise")
	return t, nil
}

// FabricScalePoint is one machine-readable shard-scaling cell of
// BENCH_fabric.json. The modeled rates are derived from the busiest
// shard's charged virtual cycles (host-core-independent); the speedup
// is the modeled rate normalised to the single-shard baseline.
type FabricScalePoint struct {
	Shards            int     `json:"shards"`
	PutsPerSec        float64 `json:"puts_per_sec"`
	GetsPerSec        float64 `json:"gets_per_sec"`
	ModeledPutsPerSec float64 `json:"modeled_puts_per_sec"`
	ModeledGetsPerSec float64 `json:"modeled_gets_per_sec"`
	PutSpeedup        float64 `json:"put_speedup"`
}

// FailoverPoint is one machine-readable failover measurement.
type FailoverPoint struct {
	Records   int     `json:"records"`
	PromoteMS float64 `json:"promote_ms"`
}

// FabricPerfEntry is one labelled fabric performance record — the
// perf-trajectory format of BENCH_fabric.json that future changes
// compare against.
type FabricPerfEntry struct {
	Label      string `json:"label"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Clients    int    `json:"clients"`
	// GroupCommit is false on entries recorded on the per-mutation
	// synchronous ack path that once sat beside the group-commit one;
	// every run since is on the one leader-driven protocol and records
	// true.
	GroupCommit bool               `json:"group_commit"`
	Scale       []FabricScalePoint `json:"scale"`
	Failover    []FailoverPoint    `json:"failover"`
}

// FabricPerfSchema identifies the BENCH_fabric.json format.
const FabricPerfSchema = "montsalvat-bench-fabric/v1"

// FabricPerf produces one labelled fabric performance record: the
// shard-scaling sweep plus the failover-latency sweep.
func FabricPerf(opts Options, label string) (*FabricPerfEntry, error) {
	clients, opsPerClient := fabricScaleParams(opts)
	e := &FabricPerfEntry{
		Label:       label,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Quick:       opts.Quick,
		Clients:     clients,
		GroupCommit: true,
	}
	var base float64
	for _, n := range fabricShardCounts(opts) {
		p, err := runFabricScalePoint(n, clients, opsPerClient)
		if err != nil {
			return nil, fmt.Errorf("fabric-perf shards=%d: %w", n, err)
		}
		pt := FabricScalePoint{
			Shards:            n,
			PutsPerSec:        p.PutsPerSec,
			GetsPerSec:        p.GetsPerSec,
			ModeledPutsPerSec: p.ModeledPutsPerSec,
			ModeledGetsPerSec: p.ModeledGetsPerSec,
		}
		if base == 0 {
			base = p.ModeledPutsPerSec
		}
		if base > 0 {
			pt.PutSpeedup = p.ModeledPutsPerSec / base
		}
		e.Scale = append(e.Scale, pt)
	}
	for _, n := range fabricFailoverRecords(opts) {
		d, err := runFailoverPoint(n)
		if err != nil {
			return nil, fmt.Errorf("fabric-perf failover n=%d: %w", n, err)
		}
		e.Failover = append(e.Failover, FailoverPoint{Records: n, PromoteMS: float64(d.Microseconds()) / 1000})
	}
	return e, nil
}

package orderly

import (
	"fmt"
	"hash/fnv"

	"montsalvat/internal/fabric"
	"montsalvat/internal/smoke"
	"montsalvat/internal/telemetry"
)

// FabricConfig tunes the fabric system. The zero value is the
// checked production configuration.
type FabricConfig struct {
	// Break plants a deliberate invariant violation (test-only).
	// BreakEpochDrift makes the model expect an extra epoch bump, so
	// the epoch invariant trips on the first promotion.
	Break string
}

// BreakEpochDrift desynchronises the model's epoch expectation.
const BreakEpochDrift = "epoch-drift"

// fabricSystem drives a two-shard, one-replica-each fabric through
// the failover alphabet: routed puts per shard, checkpoints,
// kill-shard, promote. Its invariants are the acked ⇒ replicated
// audit (after promotion every acked write of the failed shard must
// be served by the promoted replica — the shipper watermark may not
// ack writes the standby has not durably applied), the epoch
// discipline (the table epoch bumps exactly once per promotion and
// never otherwise), and the failover timeline (the fleet event
// journal must order kill → promote-begin → promote-commit →
// epoch-bump for every completed failover).
type fabricSystem struct {
	cfg   FabricConfig
	fab   *fabric.Fabric
	fleet *telemetry.Fleet
	rt    *fabric.Router

	// key0/key1 are probe-chosen keys owned by shard 0 / shard 1.
	key0, key1 string

	alive0    bool // shard 0 primary alive (the only shard we fail)
	standbys  int  // shard 0 standbys left; promote consumes one for good
	expect    fabric.Expectation
	failovers int
	baseEpoch uint64
	counts    map[string]int
	acked     map[string]string
}

// FabricBuilder returns a Builder for the fabric system.
func FabricBuilder(cfg FabricConfig) Builder {
	return func() (System, error) {
		build, err := worldFixture()
		if err != nil {
			return nil, err
		}
		fleet := telemetry.NewFleet(telemetry.Options{TraceSampleRate: 1})
		fab, err := fabric.New(fabric.Options{
			Shards:   2,
			Replicas: 1,
			Fleet:    fleet,
			Build:    build,
			Logf:     func(string, ...any) {},
		})
		if err != nil {
			return nil, err
		}
		s := &fabricSystem{
			cfg:      cfg,
			fab:      fab,
			fleet:    fleet,
			rt:       fab.Client(fabric.RouterConfig{}),
			alive0:   true,
			standbys: 1, // fabric.Options.Replicas: promotion has no backfill
			counts:   map[string]int{},
			acked:    map[string]string{},
		}
		// Probe the consistent-hash ring for one key per shard. The
		// ring is a pure function of the shard ids, so the same keys
		// come out on every build.
		t := fab.Table()
		for i := 0; s.key0 == "" || s.key1 == ""; i++ {
			k := fmt.Sprintf("k%d", i)
			switch t.Owner(k) {
			case 0:
				if s.key0 == "" {
					s.key0 = k
				}
			case 1:
				if s.key1 == "" {
					s.key1 = k
				}
			}
			if i > 1024 {
				s.Close()
				return nil, fmt.Errorf("orderly: no key found for both shards in 1024 probes")
			}
		}
		s.baseEpoch = fab.Stats().Epoch
		return s, nil
	}
}

func (s *fabricSystem) Alphabet() []Action {
	return []Action{
		{Name: "put-shard0", Enabled: func() bool { return s.alive0 }, Apply: func() error { return s.actPut(s.key0) }},
		{Name: "put-shard1", Enabled: func() bool { return true }, Apply: func() error { return s.actPut(s.key1) }},
		{Name: "ckpt-shard0", Enabled: func() bool { return s.alive0 }, Apply: func() error { return s.fab.Checkpoint(0) }},
		{Name: "ckpt-shard1", Enabled: func() bool { return true }, Apply: func() error { return s.fab.Checkpoint(1) }},
		// kill-shard is gated on a remaining standby: promotion consumes
		// the standby for good (there is no backfill), and killing the
		// last incarnation would darken the shard for the rest of the
		// trace — a reachable but inert subtree not worth exploring.
		{Name: "kill-shard", Enabled: func() bool { return s.alive0 && s.standbys > 0 }, Apply: s.actKill},
		{Name: "promote", Enabled: func() bool { return !s.alive0 }, Apply: s.actPromote},
		{Name: "get-audit", Enabled: func() bool { return true }, Apply: s.actAudit},
	}
}

func (s *fabricSystem) actPut(key string) error {
	s.counts[key]++
	val := fmt.Sprintf("%s#%d", key, s.counts[key])
	if err := s.rt.Put(key, val); err != nil {
		return err
	}
	s.acked[key] = val
	return nil
}

func (s *fabricSystem) actKill() error {
	exp, err := s.fab.KillShard(0)
	if err != nil {
		return err
	}
	s.expect = exp
	s.alive0 = false
	return nil
}

// actPromote promotes shard 0's standby and audits the failover
// invariants: the acked writes of the failed shard must be served by
// the promoted replica (acked ⇒ replicated — this is exactly the
// promise the shipper watermark makes), the table epoch must bump by
// one, and the fleet event journal must order the failover timeline.
func (s *fabricSystem) actPromote() error {
	if err := s.fab.Promote(0, s.expect); err != nil {
		return err
	}
	s.alive0 = true
	s.standbys--
	s.failovers++
	wantEpoch := s.baseEpoch + uint64(s.failovers)
	if s.cfg.Break == BreakEpochDrift {
		wantEpoch++ // deliberately wrong
	}
	if got := s.fab.Stats().Epoch; got != wantEpoch {
		return Violated("epoch-bump", "table epoch %d after %d failovers, want %d", got, s.failovers, wantEpoch)
	}
	if err := s.checkTimeline(); err != nil {
		return err
	}
	// Durability-across-failover audit through the router (which
	// refreshes its table on the epoch bump).
	if want, ok := s.acked[s.key0]; ok {
		got, found, err := s.rt.Get(s.key0)
		if err != nil {
			return err
		}
		if !found || got != want {
			return Violated("acked-replicated", "acked write %s=%q served as %q (found=%v) after failover", s.key0, want, got, found)
		}
	}
	return nil
}

// checkTimeline asserts the failover ordering invariant over the
// fleet event journal via the shared matcher: for every completed
// failover there must be a strictly ordered kill → promote-begin →
// promote-commit → epoch-bump chain, chains consumed greedily in
// sequence order.
func (s *fabricSystem) checkTimeline() error {
	events := s.fleet.Telemetry().Events().Dump()
	if _, err := smoke.FailoverTimeline(events, s.failovers); err != nil {
		return Violated("failover-order", "%v", err)
	}
	return nil
}

// actAudit reads every acked key back through the router: acked
// writes must be served whichever primaries currently own them.
func (s *fabricSystem) actAudit() error {
	for _, key := range []string{s.key0, s.key1} {
		want, ok := s.acked[key]
		if !ok {
			continue
		}
		if key == s.key0 && !s.alive0 {
			continue // owner down: served again after promote
		}
		got, found, err := s.rt.Get(key)
		if err != nil {
			return err
		}
		if !found || got != want {
			return Violated("acked-durability", "acked write %s=%q served as %q (found=%v)", key, want, got, found)
		}
	}
	return nil
}

func (s *fabricSystem) Hash() uint64 {
	h := fnv.New64a()
	st := s.fab.Stats()
	fmt.Fprintf(h, "alive0=%v standbys=%d failovers=%d epoch=%d ships=%d|",
		s.alive0, s.standbys, s.failovers, st.Epoch, st.ShipRounds)
	hashStringMap(h, "acked", s.acked)
	hashIntMap(h, "counts", s.counts)
	return h.Sum64()
}

func (s *fabricSystem) Check() error {
	st := s.fab.Stats()
	if uint64(s.failovers) != st.Promotions {
		return Violated("promotion-accounting", "fabric reports %d promotions, model has %d", st.Promotions, s.failovers)
	}
	return nil
}

func (s *fabricSystem) Close() {
	if s.rt != nil {
		s.rt.Close()
	}
	if s.fab != nil {
		s.fab.Close()
	}
}

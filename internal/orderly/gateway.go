package orderly

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"montsalvat/internal/demo"
	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/smoke"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// GatewayConfig tunes the gateway system. The zero value is the
// checked production configuration.
type GatewayConfig struct {
	// Break plants a deliberate invariant violation (test-only).
	// BreakSkipDrain makes the recovery action skip the
	// reject-while-draining assertion's enforcement, accepting
	// whatever Dial returns mid-drain.
	Break string
}

// BreakSkipDrain inverts the drain invariant: recovery *requires*
// that a mid-drain Dial succeeds, which the gateway (correctly)
// never allows — so the checker must flag the very first recovery.
const BreakSkipDrain = "skip-drain"

// gwPlatform is the attestation platform every gateway build shares:
// sessions re-attest against the same attestation key across rebuilds.
var gwPlatform = sgx.NewPlatformFromSeed([]byte("orderly-gateway-platform"))

// gatewaySystem drives an attested TCP gateway (internal/serve)
// through the session alphabet: open/close, journaled puts, handle
// minting, cross-session foreign probes, checkpoint, and the full
// kill→drain→recover cycle. The gateway stack itself — world behind a
// loopback listener, journaled durable store, crash/restore plumbing —
// is the shared smoke.Gateway, the same bring-up the served tests of
// internal/smoke use. Its invariants are the session-namespace isolation
// check (a handle minted by one session must never resolve in
// another's), the drain check (no session admitted while recovery is
// draining), the acked-durability audit after every recovery, and the
// lane-residency check (the TCS slots held are the gateway's lanes and
// the ecall rings', before and after every recovery).
type gatewaySystem struct {
	cfg GatewayConfig
	wld *world.World
	gw  *smoke.Gateway

	sessions []*serve.Client
	binds    []serve.Handle
	minted   []int64 // handle ID of each session's minted object (0 = none)

	opened     int // sessions ever opened (model)
	recoveries int
	probes     int
	counts     map[string]int
	applied    map[string]string
	acked      map[string]string
}

// GatewayBuilder returns a Builder for the gateway system.
func GatewayBuilder(cfg GatewayConfig) Builder {
	return func() (System, error) {
		w, err := newOrderlyWorld()
		if err != nil {
			return nil, err
		}
		gw, err := smoke.StartGateway(smoke.GatewayOptions{
			World:    w,
			Platform: gwPlatform,
			Durable:  true,
		})
		if err != nil {
			w.Close()
			return nil, err
		}
		return &gatewaySystem{
			cfg:     cfg,
			wld:     w,
			gw:      gw,
			counts:  map[string]int{},
			applied: map[string]string{},
			acked:   map[string]string{},
		}, nil
	}
}

func (g *gatewaySystem) Alphabet() []Action {
	haveSession := func() bool { return len(g.sessions) > 0 }
	return []Action{
		{Name: "session-open", Enabled: func() bool { return len(g.sessions) < 2 }, Apply: g.actOpen},
		{Name: "session-close", Enabled: haveSession, Apply: g.actClose},
		{Name: "call-put", Enabled: haveSession, Apply: g.actPut},
		{Name: "mint", Enabled: func() bool { return len(g.sessions) > 0 && g.minted[len(g.minted)-1] == 0 }, Apply: g.actMint},
		{Name: "foreign-probe", Enabled: g.probeEnabled, Apply: g.actProbe},
		{Name: "checkpoint", Enabled: func() bool { return true }, Apply: g.actCheckpoint},
		{Name: "crash-recover", Enabled: func() bool { return true }, Apply: g.actRecover},
	}
}

func (g *gatewaySystem) actOpen() error {
	c, err := serve.Dial(g.gw.Addr(), g.gw.ClientConfig())
	if err != nil {
		return err
	}
	h, err := c.Bind("kv")
	if err != nil {
		c.Close()
		return err
	}
	g.sessions = append(g.sessions, c)
	g.binds = append(g.binds, h)
	g.minted = append(g.minted, 0)
	g.opened++
	return nil
}

func (g *gatewaySystem) actClose() error {
	last := len(g.sessions) - 1
	g.sessions[last].Close()
	g.sessions = g.sessions[:last]
	g.binds = g.binds[:last]
	g.minted = g.minted[:last]
	// Session teardown runs on the connection goroutine after the
	// client closes; barrier on the gauge so the next action never
	// races the namespace drain and unpin.
	return g.gw.Settle(len(g.sessions))
}

func (g *gatewaySystem) actPut() error {
	last := len(g.sessions) - 1
	g.counts["a"]++
	val := fmt.Sprintf("a#%d", g.counts["a"])
	if _, err := g.sessions[last].Call(g.binds[last], "put", wire.Str("a"), wire.Str(val)); err != nil {
		return err
	}
	g.applied["a"] = val
	g.acked["a"] = val // the Journal hook ran before the call acked
	return nil
}

// actMint creates a fresh session-owned object on the newest session:
// its handle exists in that session's namespace only, which is what
// the foreign probe needs on the other side.
func (g *gatewaySystem) actMint() error {
	last := len(g.sessions) - 1
	h, err := g.sessions[last].New(demo.KVStoreCls)
	if err != nil {
		return err
	}
	g.minted[last] = h.ID
	return nil
}

// probeEnabled: two sessions, the newer one holds a minted handle the
// older one never issued (if the older session minted too, the numeric
// ID may legitimately exist in both namespaces).
func (g *gatewaySystem) probeEnabled() bool {
	return len(g.sessions) == 2 && g.minted[1] != 0 && g.minted[0] == 0
}

// actProbe asserts the session-namespace invariant: presenting
// session 2's minted handle on session 1 must be rejected as a
// foreign ref — never resolved, never executed.
func (g *gatewaySystem) actProbe() error {
	foreign := serve.Handle{Class: demo.KVStoreCls, ID: g.minted[1]}
	_, err := g.sessions[0].Call(foreign, "size")
	g.probes++
	if err == nil {
		return Violated("session-namespace", "foreign handle %d from another session resolved and executed", foreign.ID)
	}
	if !errors.Is(err, serve.ErrForeignRef) {
		return Violated("session-namespace", "foreign handle %d rejected with %v, want ErrForeignRef", foreign.ID, err)
	}
	return nil
}

func (g *gatewaySystem) actCheckpoint() error {
	return g.gw.Manager().Checkpoint()
}

// actRecover runs the full crash cycle through the shared gateway:
// kill the enclave, drain, restore durable state — asserting that new
// sessions are rejected with the typed retry signal mid-drain — then
// audit that every acked write survived into the recovered store
// through a fresh session.
func (g *gatewaySystem) actRecover() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var drainViolation error
	err := g.gw.CrashRecover(ctx, func() error {
		drainErr := g.gw.AssertRecoveringRejected()
		if g.cfg.Break == BreakSkipDrain {
			// Deliberately inverted: demand mid-drain admission.
			if drainErr == nil {
				drainViolation = Violated("recovery-drain", "mid-drain dial rejected (planted inversion)")
			}
		} else if drainErr != nil {
			drainViolation = Violated("recovery-drain", "%v", drainErr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if drainViolation != nil {
		return drainViolation
	}
	// Recovery invalidated every session and handle.
	for _, c := range g.sessions {
		c.Close()
	}
	g.sessions, g.binds, g.minted = nil, nil, nil
	if err := g.gw.Settle(0); err != nil {
		return err
	}
	g.recoveries++
	// Durability audit through a fresh attested session.
	c, err := serve.Dial(g.gw.Addr(), g.gw.ClientConfig())
	if err != nil {
		return err
	}
	defer c.Close()
	h, err := c.Bind("kv")
	if err != nil {
		return err
	}
	applied := map[string]string{}
	for _, key := range worldKeys {
		v, err := c.Call(h, "get", wire.Str(key))
		if err != nil {
			return err
		}
		if !v.IsNull() {
			got, _ := v.AsStr()
			applied[key] = got
		}
	}
	for key, want := range g.acked {
		if got, ok := applied[key]; !ok || got != want {
			return Violated("acked-durability", "acked write %s=%q recovered as %q (present=%v)", key, want, got, ok)
		}
	}
	g.applied = applied
	g.opened++ // the audit session
	c.Close()
	return g.gw.Settle(0)
}

func (g *gatewaySystem) Hash() uint64 {
	h := fnv.New64a()
	st := g.gw.Manager().Stats()
	fmt.Fprintf(h, "sess=%d opened=%d rec=%d probes=%d lsn=%d ckpt=%d|",
		len(g.sessions), g.opened, g.recoveries, g.probes, st.LastLSN, st.Checkpoints)
	for i, m := range g.minted {
		fmt.Fprintf(h, "mint:%d=%v|", i, m != 0)
	}
	hashStringMap(h, "applied", g.applied)
	hashStringMap(h, "acked", g.acked)
	hashIntMap(h, "counts", g.counts)
	return h.Sum64()
}

func (g *gatewaySystem) Check() error {
	st := g.gw.Manager().Stats()
	if st.Watermark > st.LastLSN {
		return Violated("watermark", "checkpoint watermark %d ahead of last LSN %d", st.Watermark, st.LastLSN)
	}
	ss := g.gw.W.Stats()
	if ss.Sessions != len(g.sessions) {
		return Violated("session-accounting", "gateway reports %d active sessions, model has %d", ss.Sessions, len(g.sessions))
	}
	return g.checkResidency(ss.Lanes)
}

// checkResidency asserts the lane-residency invariant: between actions,
// crash recovery included, the enclave's TCS slots are held by the
// gateway's lanes and the ecall rings and nothing else. Session
// teardown's sweep enters asynchronously, so the count gets a moment
// to settle.
func (g *gatewaySystem) checkResidency(lanes int) error {
	rings := orderlyWorldOptions().Cfg.RingWorkers
	held := -1 // no enclave
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if e := g.wld.Enclave(); e != nil {
			if held = e.TCSInUse(); held == lanes+rings {
				return nil
			}
		}
	}
	return Violated("lane-residency", "%d TCS slots held, want %d lanes + %d ecall rings", held, lanes, rings)
}

func (g *gatewaySystem) Close() {
	for _, c := range g.sessions {
		c.Close()
	}
	g.sessions = nil
	if g.gw != nil {
		g.gw.Close()
	}
	if g.wld != nil {
		g.wld.Close()
	}
}

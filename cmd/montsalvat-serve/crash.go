package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"montsalvat/internal/serve"
	"montsalvat/internal/sgx"
	"montsalvat/internal/smoke"
	"montsalvat/internal/wire"
)

// runCrashSmoke boots a durable gateway in-process (the shared
// smoke.Gateway stack), writes through attested sessions, kills and
// recovers the enclave twice, and fails unless every acked write
// survives both crashes and new sessions re-establish against the
// recovered gateway.
func runCrashSmoke(out io.Writer, platform *sgx.Platform, sessions, requests int, cfg gatewayConfig) error {
	tel := cfg.newTelemetry()
	w, err := buildWorld(cfg, tel)
	if err != nil {
		return err
	}
	defer w.Close()
	g, err := smoke.StartGateway(smoke.GatewayOptions{
		World:       w,
		Platform:    platform,
		MaxInFlight: cfg.maxInflight,
		MaxSessions: cfg.maxSessions,
		Telemetry:   tel,
		Durable:     true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "crash-smoke: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	client := g.ClientConfig()
	fmt.Fprintf(out, "crash-smoke: durable gateway on %s, measurement %x\n", g.Addr(), client.Measurement[:8])

	acked := smoke.NewLedger()
	writeBurst := func(round int) error {
		for s := 0; s < sessions; s++ {
			c, err := serve.Dial(g.Addr(), client)
			if err != nil {
				return fmt.Errorf("round %d session %d: %w", round, s, err)
			}
			h, err := c.Bind("kv")
			if err != nil {
				c.Close()
				return fmt.Errorf("round %d bind: %w", round, err)
			}
			for i := 0; i < requests; i++ {
				k := fmt.Sprintf("r%d:s%d:k%04d", round, s, i)
				v := fmt.Sprintf("v%d-%d-%d", round, s, i)
				if _, err := c.Call(h, "put", wire.Str(k), wire.Str(v)); err != nil {
					c.Close()
					return fmt.Errorf("round %d put: %w", round, err)
				}
				acked.Ack(k, v)
			}
			c.Close()
		}
		return nil
	}
	verifyAll := func(stage string) error {
		c, err := serve.Dial(g.Addr(), client)
		if err != nil {
			return fmt.Errorf("%s: dial: %w", stage, err)
		}
		defer c.Close()
		h, err := c.Bind("kv")
		if err != nil {
			return fmt.Errorf("%s: bind: %w", stage, err)
		}
		if err := acked.Verify(func(key string) (string, bool, error) {
			v, err := c.Call(h, "get", wire.Str(key))
			if err != nil {
				return "", false, err
			}
			if v.IsNull() {
				return "", false, nil
			}
			got, _ := v.AsStr()
			return got, true, nil
		}); err != nil {
			return fmt.Errorf("%s: %w", stage, err)
		}
		fmt.Fprintf(out, "crash-smoke: %s: all %d acked writes present\n", stage, acked.Len())
		return nil
	}
	crash := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		// CrashRecover's default during step asserts the gateway
		// rejects new sessions with the typed retry signal mid-drain.
		return g.CrashRecover(ctx, nil)
	}

	if err := writeBurst(1); err != nil {
		return err
	}
	if err := g.Manager().Checkpoint(); err != nil {
		return err
	}
	if err := writeBurst(2); err != nil { // these live only in the WAL tail
		return err
	}
	if err := crash(); err != nil {
		return fmt.Errorf("first recovery: %w", err)
	}
	if err := verifyAll("after first crash"); err != nil {
		return err
	}
	if err := writeBurst(3); err != nil {
		return err
	}
	if err := crash(); err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	if err := verifyAll("after second crash"); err != nil {
		return err
	}

	if err := drain(g); err != nil {
		return err
	}
	st := g.W.Stats()
	if st.Recoveries != 2 {
		return fmt.Errorf("crash-smoke failed: %d recoveries, want 2", st.Recoveries)
	}
	if st.RejectedRecovering < 2 {
		return fmt.Errorf("crash-smoke failed: %d mid-recovery rejections, want >= 2", st.RejectedRecovering)
	}
	fmt.Fprintf(out, "crash-smoke: %d sessions served, %d recoveries, %d mid-recovery rejections\n",
		st.SessionsTotal, st.Recoveries, st.RejectedRecovering)
	fmt.Fprintln(out, "crash-smoke: OK")
	return nil
}

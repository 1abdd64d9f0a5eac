package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// holdProgram defines a trusted class whose hold method signals entered
// and then blocks until release is closed: a lane stays busy for exactly
// as long as the test wants.
func holdProgram(t *testing.T, entered chan<- struct{}, release <-chan struct{}) *classmodel.Program {
	t.Helper()
	p := classmodel.NewProgram()
	gate := classmodel.NewClass("Gate", classmodel.Trusted)
	body := func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
		return wire.Null(), nil
	}
	hold := func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
		entered <- struct{}{}
		<-release
		return wire.Int(1), nil
	}
	app := classmodel.NewClass("App", classmodel.Untrusted)
	main := func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
		g, err := env.New("Gate")
		if err != nil {
			return wire.Null(), err
		}
		return env.Call(g, "hold")
	}
	for _, add := range []error{
		gate.AddMethod(&classmodel.Method{Name: classmodel.CtorName, Public: true, Body: body}),
		gate.AddMethod(&classmodel.Method{Name: "hold", Public: true, Returns: wire.KindInt, Body: hold}),
		p.AddClass(gate),
		app.AddMethod(&classmodel.Method{
			Name: classmodel.MainMethodName, Static: true, Public: true, Returns: wire.KindInt,
			Allocates: []string{"Gate"},
			Calls:     []classmodel.MethodRef{{Class: "Gate", Method: "hold"}},
			Body:      main,
		}),
		p.AddClass(app),
	} {
		if add != nil {
			t.Fatal(add)
		}
	}
	p.MainClass = "App"
	return p
}

// waitTCS polls until the enclave holds want TCS slots.
func waitTCS(t *testing.T, w *world.World, want int) {
	t.Helper()
	waitFor(t, func() bool { return w.Enclave().TCSInUse() == want })
}

// TestLanesLeaveASlot fills every lane with a call that blocks inside
// the enclave, with the GC helpers started: the spare slot the lane
// budget keeps lets a GC sweep, a session teardown and a trusted Exec
// all enter and finish before any lane frees up. After Shutdown no lane
// holds a slot.
func TestLanesLeaveASlot(t *testing.T) {
	const numTCS = 6
	const lanes = numTCS - 1
	entered, release := make(chan struct{}), make(chan struct{})
	opts := world.DefaultOptions()
	opts.NumTCS = numTCS
	w, _, err := core.NewPartitionedWorld(holdProgram(t, entered, release), opts)
	if err != nil {
		t.Fatal(err)
	}
	w.StartGCHelpers()
	srv, addr, cfg := serveWorld(t, w, Options{MaxInFlight: 2 * lanes, SessionInFlight: 2 * lanes})
	waitTCS(t, w, lanes)

	// A session that owns an object, for the teardown below.
	owner, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.New("Gate"); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results := make(chan error, lanes)
	for i := 0; i < lanes; i++ {
		g, err := c.New("Gate")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := c.Call(g, "hold")
			results <- err
		}()
	}
	for i := 0; i < lanes; i++ {
		<-entered
	}

	if err := w.SweepOnce(w.Trusted()); err != nil {
		t.Fatalf("trusted sweep with every lane busy: %v", err)
	}
	// Teardown's collection is swept by the helper step, then by the
	// teardown's own SweepOnce, which finds nothing left.
	before := w.Stats().UntrustedSweeps
	owner.Close()
	waitFor(t, func() bool {
		s := w.Stats().UntrustedSweeps
		return s.Sweeps == before.Sweeps+2 && s.Released > before.Released
	})
	if err := w.Exec(true, func(env classmodel.Env) error { return nil }); err != nil {
		t.Fatalf("trusted Exec with every lane busy: %v", err)
	}

	close(release)
	for i := 0; i < lanes; i++ {
		if err := <-results; err != nil {
			t.Fatalf("hold: %v", err)
		}
	}
	// Every served crossing — the owner's New, then a New and a hold per
	// lane — rode a lane.
	if got := w.Stats().Dispatch.SwitchlessCalls; got != 1+2*lanes {
		t.Fatalf("%d calls rode a lane, want %d", got, 1+2*lanes)
	}
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := w.Enclave().TCSInUse(); got != 0 {
		t.Fatalf("after Shutdown %d TCS slots held, want 0", got)
	}
}

// TestRecoverReentersLanes: Server.Recover's restore kills and restarts
// the world; on the new enclave the gateway's lanes hold exactly their
// slots — started GC helpers hold none —, and served calls ride the
// lanes.
func TestRecoverReentersLanes(t *testing.T) {
	r := startRecoverableKV(t)
	const lanes = 32 // the default MaxInFlight fits the default TCS budget
	waitTCS(t, r.w, lanes)
	r.w.StartGCHelpers()
	waitTCS(t, r.w, lanes)
	old := r.w.Enclave()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Recover(ctx, r.restore(t)); err != nil {
		t.Fatal(err)
	}
	if r.w.Enclave() == old {
		t.Fatal("Recover kept the old enclave")
	}
	waitTCS(t, r.w, lanes)
	if got := old.TCSInUse(); got != 0 {
		t.Fatalf("the killed enclave still has %d slots held", got)
	}

	c, err := Dial(r.addr, r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Bind("kv")
	if err != nil {
		t.Fatal(err)
	}
	before := r.w.Stats()
	if _, err := c.Call(h, "get", wire.Str("k")); err != nil {
		t.Fatal(err)
	}
	after := r.w.Stats()
	if d := after.Enclave.SwitchlessEcalls - before.Enclave.SwitchlessEcalls; d != 1 {
		t.Fatalf("a served get after recovery made %d lane hand-offs, want 1", d)
	}
}

// TestServedCallOnKilledWorld: a world killed under a serving gateway —
// with a call blocked inside the enclave on a lane and another arriving
// after the kill — answers both with typed errors or results, never a
// hang.
func TestServedCallOnKilledWorld(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	w, _, err := core.NewPartitionedWorld(holdProgram(t, entered, release), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, addr, cfg := serveWorld(t, w, Options{})
	c, err := Dial(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := c.New("Gate")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan error, 1)
	go func() {
		_, err := c.Call(g, "hold")
		held <- err
	}()
	<-entered
	w.Kill()
	if _, err := c.Call(g, "hold"); !errors.As(err, new(*AppError)) {
		t.Fatalf("call on a killed world: %v, want an application error", err)
	}
	close(release)
	if err := <-held; err != nil && !errors.As(err, new(*AppError)) {
		t.Fatalf("call in flight across the kill: %v", err)
	}
}

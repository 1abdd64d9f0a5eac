package world_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/sgx"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// TestKillRestart drives the whole crash/recover lifecycle of a
// partitioned world: a live run, the kill (accessors go nil, execution
// refuses), the restart (fresh enclave, fresh runtimes), and a second
// live run on the reborn world.
func TestKillRestart(t *testing.T) {
	w := bankWorld(t)
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("first RunMain: %v", err)
	}
	firstMR := w.Enclave().Measurement()
	firstSigner := w.Enclave().MRSigner()

	w.Kill()
	if !w.Killed() {
		t.Fatal("Killed() false after Kill")
	}
	if w.Enclave() != nil || w.Trusted() != nil || w.Untrusted() != nil {
		t.Fatal("killed world still exposes live state")
	}
	if err := w.Exec(true, func(classmodel.Env) error { return nil }); !errors.Is(err, world.ErrWrongRuntime) {
		t.Fatalf("Exec on killed world: %v, want ErrWrongRuntime", err)
	}
	w.Kill() // idempotent

	if err := w.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if w.Killed() {
		t.Fatal("Killed() true after Restart")
	}
	// Re-attestation: the same image re-measures to the same MRENCLAVE,
	// and the retained signing identity yields the same MRSIGNER.
	if w.Enclave().Measurement() != firstMR {
		t.Fatal("restarted enclave has a different measurement")
	}
	if w.Enclave().MRSigner() != firstSigner {
		t.Fatal("restarted enclave has a different MRSIGNER")
	}
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain after restart: %v", err)
	}
	if s := w.Stats(); s.Enclave.Ecalls == 0 {
		t.Fatal("restarted world recorded no ecalls")
	}
}

// TestRestartSealedStateSurvives is the property the whole durability
// layer leans on: a blob sealed by the first enclave incarnation must
// unseal in the next one. MRSIGNER survives because the signer is
// retained; MRENCLAVE survives because the image is retained (same
// measurement), which is exactly the simulated analog of restarting the
// same enclave binary.
func TestRestartSealedStateSurvives(t *testing.T) {
	w := bankWorld(t)
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		t.Fatal(err)
	}
	aad := []byte("restart-test")
	signerBlob, err := w.Enclave().Seal(secret, sgx.SealToMRSIGNER, []byte("durable"), aad)
	if err != nil {
		t.Fatal(err)
	}
	enclaveBlob, err := w.Enclave().Seal(secret, sgx.SealToMRENCLAVE, []byte("measured"), aad)
	if err != nil {
		t.Fatal(err)
	}

	w.Kill()
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}

	got, err := w.Enclave().Unseal(secret, sgx.SealToMRSIGNER, signerBlob, aad)
	if err != nil {
		t.Fatalf("MRSIGNER blob did not survive restart: %v", err)
	}
	if string(got) != "durable" {
		t.Fatalf("unsealed %q", got)
	}
	got, err = w.Enclave().Unseal(secret, sgx.SealToMRENCLAVE, enclaveBlob, aad)
	if err != nil {
		t.Fatalf("MRENCLAVE blob did not survive same-image restart: %v", err)
	}
	if string(got) != "measured" {
		t.Fatalf("unsealed %q", got)
	}
}

// TestRestartGuards pins the misuse surface: restarting a live world,
// and kill/restart outside partitioned mode.
func TestRestartGuards(t *testing.T) {
	w := bankWorld(t)
	if err := w.Restart(); !errors.Is(err, world.ErrNotKilled) {
		t.Fatalf("Restart of live world: %v, want ErrNotKilled", err)
	}

	solo, _, err := core.NewUnpartitionedWorld(demo.MustBankProgram(), world.DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	solo.Kill() // no-op
	if solo.Killed() {
		t.Fatal("Kill marked an unpartitioned world killed")
	}
	if err := solo.Restart(); !errors.Is(err, world.ErrWrongRuntime) {
		t.Fatalf("Restart of unpartitioned world: %v, want ErrWrongRuntime", err)
	}
}

// TestCloseAfterKill: tearing down a killed world must degrade cleanly
// (nil runtimes, no ring groups, no enclave) — the gateway calls
// CloseErr on shutdown regardless of recovery state.
func TestCloseAfterKill(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w.Kill()
	if err := w.CloseErr(); err != nil {
		t.Fatalf("CloseErr after Kill: %v", err)
	}
}

// TestRestartRevivesGCHelpers: helpers started before a kill still
// run after the restart: a collection on the new generation that clears
// a weak reference is swept.
func TestRestartRevivesGCHelpers(t *testing.T) {
	w := bankWorld(t)
	w.StartGCHelpers()
	w.Kill()
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunMain(); err != nil {
		t.Fatal(err)
	}
	if err := w.Untrusted().Collect(); err != nil {
		t.Fatal(err)
	}
	if s := w.Untrusted().SweepStats(); s.Sweeps != 1 || s.Released == 0 {
		t.Fatalf("post-restart collection not swept: %+v", s)
	}
	if got := w.Trusted().Registry().Size(); got != 0 {
		t.Fatalf("helper left %d mirrors registered after restart", got)
	}
}

// TestFailedFirstBootLeavesNothingBehind: a trusted static initialiser
// that fails aborts NewPartitioned after the ring groups are up; the
// half-built generation must be torn down — the resident ring consumers
// gone, not parked on their TCS slots for the life of the process.
func TestFailedFirstBootLeavesNothingBehind(t *testing.T) {
	errBoot := errors.New("static initialiser refused")
	build, err := core.BuildPartitioned(bankWithFailingInit(t, errBoot))
	if err != nil {
		t.Fatal(err)
	}
	opts := world.DefaultOptions()
	opts.Cfg.Rings = true

	before := runtime.NumGoroutine()
	w, err := world.NewPartitioned(opts, build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
	nothingLeftBehind(t, "NewPartitioned", w, err, errBoot, before)
}

// TestFailedUnpartitionedBootLeavesNothingBehind is the same for the
// single-image constructor: the boot's error comes back under errors.Is,
// with no world beside it and no goroutine left running.
func TestFailedUnpartitionedBootLeavesNothingBehind(t *testing.T) {
	errBoot := errors.New("static initialiser refused")
	img, err := core.BuildUnpartitioned(bankWithFailingInit(t, errBoot))
	if err != nil {
		t.Fatal(err)
	}
	opts := world.DefaultOptions()

	before := runtime.NumGoroutine()
	w, err := world.NewUnpartitioned(opts, img, true)
	nothingLeftBehind(t, "NewUnpartitioned", w, err, errBoot, before)
}

// bankWithFailingInit is the bank program with a static initialiser on
// Account that fails with errBoot.
func bankWithFailingInit(t *testing.T, errBoot error) *classmodel.Program {
	t.Helper()
	prog := demo.MustBankProgram()
	acct, _ := prog.Class(demo.Account)
	if err := acct.AddMethod(&classmodel.Method{
		Name: classmodel.StaticInitName, Static: true,
		Body: func(env classmodel.Env, _ wire.Value, _ []wire.Value) (wire.Value, error) {
			// Some work first, so the failure comes mid-boot.
			env.MemTouch(1 << 20)
			return wire.Value{}, errBoot
		},
	}); err != nil {
		t.Fatal(err)
	}
	return prog
}

// nothingLeftBehind checks that a constructor failed with errBoot,
// returned no world, and that every goroutine it started has gone.
func nothingLeftBehind(t *testing.T, ctor string, w *world.World, err, errBoot error, before int) {
	t.Helper()
	if !errors.Is(err, errBoot) {
		if w != nil {
			w.Close()
		}
		t.Fatalf("%s: %v, want the static initialiser's error", ctor, err)
	}
	if w != nil {
		t.Fatalf("%s returned a world beside its error", ctor)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the failed boot, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

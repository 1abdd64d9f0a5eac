package world_test

import (
	"testing"
	"time"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/world"
)

// TestCloseErrSurfacesFlushResult: CloseErr is Close with the final
// flush error surfaced; on a healthy world it must be nil, and the world
// is unusable afterwards.
func TestCloseErrSurfacesFlushResult(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	if err := w.CloseErr(); err != nil {
		t.Fatalf("CloseErr: %v", err)
	}
	// The enclave is destroyed: trusted execution must now fail.
	if err := w.Exec(true, func(env classmodel.Env) error { return nil }); err == nil {
		t.Fatal("trusted Exec after CloseErr succeeded")
	}
}

// TestSweepStatsManual: SweepOnce accounts into the runtime's sweep
// stats even without helpers.
func TestSweepStatsManual(t *testing.T) {
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		t.Fatalf("NewPartitionedWorld: %v", err)
	}
	defer w.Close()
	if _, err := w.RunMain(); err != nil {
		t.Fatalf("RunMain: %v", err)
	}
	rt := w.Untrusted()
	if err := rt.Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if err := w.SweepOnce(rt); err != nil {
		t.Fatalf("SweepOnce: %v", err)
	}
	st := rt.SweepStats()
	if st.Sweeps == 0 {
		t.Fatalf("Sweeps = 0 after SweepOnce: %+v", st)
	}
	if st.Released == 0 || st.LastReleased == 0 {
		t.Fatalf("no released proxies recorded: %+v", st)
	}
	if time.Since(st.LastSweep) > time.Minute {
		t.Fatalf("LastSweep stale: %v", st.LastSweep)
	}
}

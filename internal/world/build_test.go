package world_test

import (
	"runtime"
	"testing"

	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/world"
)

// worldBuild boots a partitioned World of build on the shared signer
// and closes it.
func worldBuild(build *core.BuildResult) error {
	w, err := world.NewPartitioned(world.DefaultOptions(), build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
	if err != nil {
		return err
	}
	w.Close()
	return nil
}

func kvBuild(tb testing.TB) *core.BuildResult {
	tb.Helper()
	build, err := core.BuildPartitioned(demo.MustKVProgram())
	if err != nil {
		tb.Fatal(err)
	}
	return build
}

// BenchmarkWorldBuild is NewPartitioned + Close of the KV program: the
// enclave's creation, measurement and verification, both runtimes and
// their heaps, the static initialisers and the teardown. Simulated
// memory is backed as it is written, so a World costs the host only
// the pages its boot touches.
func BenchmarkWorldBuild(b *testing.B) {
	build := kvBuild(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := worldBuild(build); err != nil {
			b.Fatal(err)
		}
	}
}

// worldBuildAllocLimit bounds the bytes one World build allocates: a
// third of the 7.1 MB a build took while every semispace's ciphertext,
// plaintext shadow and line metadata were allocated and zeroed before
// any of it was written.
const worldBuildAllocLimit = 7_100_000 / 3

// TestWorldBuildAllocBound: one build of the KV program's World
// allocates at most worldBuildAllocLimit bytes, measured as the
// TotalAlloc delta of a build after a warm-up build. It bounds bytes,
// not wall time.
func TestWorldBuildAllocBound(t *testing.T) {
	build := kvBuild(t)
	if err := worldBuild(build); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := worldBuild(build); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one World build allocates %d bytes", got)
	if got > worldBuildAllocLimit {
		t.Fatalf("one World build allocates %d bytes, bound %d", got, worldBuildAllocLimit)
	}
}

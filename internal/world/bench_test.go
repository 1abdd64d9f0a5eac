package world_test

import (
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

var sinkResult wire.Value

// BenchmarkLocalCall is one Env call that stays inside the runtime that
// owns the object: link lookup, activation record, self retention, and
// the body's one field read on the enclave heap.
func BenchmarkLocalCall(b *testing.B) {
	w, _, err := core.NewPartitionedWorld(demo.MustBankProgram(), world.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ReportAllocs()
	err = w.Exec(true, func(env classmodel.Env) error {
		acct, err := env.New(demo.Account, wire.Str("Bench"), wire.Int(7))
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := env.Call(acct, "getBalance")
			if err != nil {
				return err
			}
			sinkResult = v
		}
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

package world_test

import (
	"fmt"
	"strings"
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

// BenchmarkKVGet is one KVStore get inside the enclave on a store of
// 8 keys per bucket and 64 B values: a bucket scan of list reads and
// Entry key reads, then the value read — the trusted heap path of a
// served get without the gateway around it.
func BenchmarkKVGet(b *testing.B) {
	const buckets, perBucket = 16, 8
	prog, err := demo.KVProgramWithBuckets(buckets)
	if err != nil {
		b.Fatal(err)
	}
	w, _, err := core.NewPartitionedWorld(prog, world.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	keys := make([]wire.Value, buckets*perBucket)
	for i := range keys {
		keys[i] = wire.Str(fmt.Sprintf("key:%04d", i))
	}
	value := wire.Str(strings.Repeat("v", 64))
	b.ReportAllocs()
	err = w.Exec(true, func(env classmodel.Env) error {
		store, err := env.New(demo.KVStoreCls)
		if err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := env.Call(store, "put", k, value); err != nil {
				return err
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := env.Call(store, "get", keys[i%len(keys)])
			if err != nil {
				return err
			}
			sinkResult = v
		}
		b.StopTimer()
		if !sinkResult.Equal(value) {
			return fmt.Errorf("get = %v, want the 64 B value", sinkResult)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKVPut is one KVStore put inside the enclave in the shape a
// recovery replay drives (persist.WorldKV.Apply): 16 keys per bucket,
// 64 B values, each put a bucket scan, then a new Entry (fresh) or an
// in-place setvalue (overwrite), then the audit ocall. Every round of
// 16 x 16 puts runs on a store of its own, built and, for overwrite,
// filled with the round's keys outside the timer. cycles/op is the
// ledger's share of the timed puts alone; for a fixed -benchtime Nx it
// repeats exactly, so a change that moves only host work reads the
// same cycles/op as its parent.
func BenchmarkKVPut(b *testing.B) {
	for _, bc := range []struct {
		name      string
		overwrite bool
	}{{"fresh", false}, {"overwrite", true}} {
		b.Run(bc.name, func(b *testing.B) { benchKVPut(b, bc.overwrite) })
	}
}

func benchKVPut(b *testing.B, overwrite bool) {
	const buckets, perBucket = 16, 16
	prog, err := demo.KVProgramWithBuckets(buckets)
	if err != nil {
		b.Fatal(err)
	}
	w, _, err := core.NewPartitionedWorld(prog, world.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	keys := make([]wire.Value, buckets*perBucket)
	for i := range keys {
		keys[i] = wire.Str(fmt.Sprintf("key:%04d", i))
	}
	value := wire.Str(strings.Repeat("v", 64))
	b.ReportAllocs()
	b.StopTimer()
	var spent int64
	for done := 0; done < b.N; {
		err := w.Exec(true, func(env classmodel.Env) error {
			store, err := env.New(demo.KVStoreCls)
			if err != nil {
				return err
			}
			if overwrite {
				for _, k := range keys {
					if _, err := env.Call(store, "put", k, value); err != nil {
						return err
					}
				}
			}
			start := w.Clock().Total()
			b.StartTimer()
			for _, k := range keys {
				if done == b.N {
					break
				}
				if _, err := env.Call(store, "put", k, value); err != nil {
					return err
				}
				done++
			}
			b.StopTimer()
			spent += w.Clock().Total() - start
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spent)/float64(b.N), "cycles/op")
}

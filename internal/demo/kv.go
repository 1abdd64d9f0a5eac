package demo

import (
	"fmt"
	"hash/fnv"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/wire"
)

// Class names of the secure KV demo program (paper §6.7), the workload
// served by the enclave gateway: storage logic (Entry, KVStore) is
// @Trusted and lives on the enclave heap; FrontEnd is the @Untrusted
// driver whose declared call graph makes the serving surface reachable.
const (
	KVEntry    = "Entry"
	KVStoreCls = "KVStore"
	KVFrontEnd = "FrontEnd"
	KVAuditLog = "AuditLog"
)

// KVRequests is the per-run request count of FrontEnd.main.
const KVRequests = 300

// kvBuckets is the fan-out of the store's enclave-resident hash index.
// Lookups scan one bucket instead of the whole store, so put/get stay
// near-constant as gateway workloads (which, unlike FrontEnd.main's
// 64-key loop, write unbounded keyspaces) grow the store.
const kvBuckets = 128

// KVProgram constructs the secure key-value store program. main returns
// [hits, misses, size]. The KVStore surface (put/get/size) is what the
// enclave gateway serves to network clients.
func KVProgram() (*classmodel.Program, error) {
	return KVProgramWithBuckets(kvBuckets)
}

// KVProgramWithBuckets is KVProgram with an explicit hash-index
// fan-out. Harnesses that build and tear down thousands of stores
// (the orderly model checker resets the world on every backtrack)
// shrink the fan-out so the constructor's bucket allocations stop
// dominating reset latency; the serving surface is unchanged.
func KVProgramWithBuckets(buckets int) (*classmodel.Program, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("demo: bucket fan-out must be positive, got %d", buckets)
	}
	p := classmodel.NewProgram()
	if err := p.AddClass(kvEntryClass()); err != nil {
		return nil, err
	}
	if err := p.AddClass(kvStoreClass(buckets)); err != nil {
		return nil, err
	}
	if err := p.AddClass(kvAuditLogClass()); err != nil {
		return nil, err
	}
	if err := p.AddClass(kvFrontEndClass()); err != nil {
		return nil, err
	}
	p.MainClass = KVFrontEnd
	return p, nil
}

// MustKVProgram is KVProgram for tests and commands where construction
// cannot fail.
func MustKVProgram() *classmodel.Program {
	p, err := KVProgram()
	if err != nil {
		panic(fmt.Sprintf("demo: %v", err))
	}
	return p
}

// kvEntryClass is a trusted key/value cell.
func kvEntryClass() *classmodel.Class {
	c := classmodel.NewClass(KVEntry, classmodel.Trusted)
	mustField(c, classmodel.Field{Name: "key", Kind: classmodel.FieldString})
	mustField(c, classmodel.Field{Name: "value", Kind: classmodel.FieldString})

	mustMethod(c, &classmodel.Method{
		Name:   classmodel.CtorName,
		Public: true,
		Params: []classmodel.Param{
			{Name: "k", Kind: wire.KindString},
			{Name: "v", Kind: wire.KindString},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			if err := env.SetField(self, "key", args[0]); err != nil {
				return wire.Null(), err
			}
			return wire.Null(), env.SetField(self, "value", args[1])
		},
	})
	for _, field := range []string{"key", "value"} {
		field := field
		mustMethod(c, &classmodel.Method{
			Name: "get" + field, Public: true, Returns: wire.KindString,
			Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
				return env.GetField(self, field)
			},
		})
	}
	mustMethod(c, &classmodel.Method{
		Name: "setvalue", Public: true,
		Params: []classmodel.Param{{Name: "v", Kind: wire.KindString}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), env.SetField(self, "value", args[0])
		},
	})
	return c
}

// kvAuditLogClass is an untrusted audit sink the trusted store reports
// writes to: its record method returns the running count, so the
// trusted→untrusted call is result-dependent and crosses the boundary
// immediately as an ocall nested under the put ecall — the pattern the
// transition tracer captures as a child span.
func kvAuditLogClass() *classmodel.Class {
	c := classmodel.NewClass(KVAuditLog, classmodel.Untrusted)
	mustField(c, classmodel.Field{Name: "count", Kind: classmodel.FieldInt})

	mustMethod(c, &classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			return wire.Null(), env.SetField(self, "count", wire.Int(0))
		},
	})
	mustMethod(c, &classmodel.Method{
		Name: "record", Public: true,
		Params:  []classmodel.Param{{Name: "k", Kind: wire.KindString}},
		Returns: wire.KindInt,
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			v, err := env.GetField(self, "count")
			if err != nil {
				return wire.Null(), err
			}
			n, _ := v.AsInt()
			if err := env.SetField(self, "count", wire.Int(n+1)); err != nil {
				return wire.Null(), err
			}
			return wire.Int(n + 1), nil
		},
	})
	return c
}

// kvStoreClass holds Entry objects on the enclave heap, reachable two
// ways: a flat insertion-ordered list, "entries" (what the durability
// layer's snapshot pass walks once inside the enclave, reading each
// Entry's key and value), and a fixed-fan-out hash index of bucket
// lists (the near-constant lookup path put/get take). Both reference
// the same Entry objects, so an in-place setvalue is visible through
// either route.
func kvStoreClass(fanout int) *classmodel.Class {
	c := classmodel.NewClass(KVStoreCls, classmodel.Trusted)
	mustField(c, classmodel.Field{Name: "entries", Kind: classmodel.FieldRef, ClassName: classmodel.BuiltinList})
	mustField(c, classmodel.Field{Name: "buckets", Kind: classmodel.FieldRef, ClassName: classmodel.BuiltinList})
	mustField(c, classmodel.Field{Name: "audit", Kind: classmodel.FieldRef, ClassName: KVAuditLog})

	mustMethod(c, &classmodel.Method{
		Name: classmodel.CtorName, Public: true,
		Allocates: []string{classmodel.BuiltinList, KVAuditLog},
		Calls:     []classmodel.MethodRef{{Class: classmodel.BuiltinList, Method: "add"}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			list, err := env.New(classmodel.BuiltinList)
			if err != nil {
				return wire.Null(), err
			}
			if err := env.SetField(self, "entries", list); err != nil {
				return wire.Null(), err
			}
			buckets, err := env.New(classmodel.BuiltinList)
			if err != nil {
				return wire.Null(), err
			}
			for i := 0; i < fanout; i++ {
				b, err := env.New(classmodel.BuiltinList)
				if err != nil {
					return wire.Null(), err
				}
				if _, err := env.Call(buckets, "add", b); err != nil {
					return wire.Null(), err
				}
			}
			if err := env.SetField(self, "buckets", buckets); err != nil {
				return wire.Null(), err
			}
			audit, err := env.New(KVAuditLog)
			if err != nil {
				return wire.Null(), err
			}
			return wire.Null(), env.SetField(self, "audit", audit)
		},
	})
	mustMethod(c, &classmodel.Method{
		Name: "put", Public: true,
		Params: []classmodel.Param{
			{Name: "k", Kind: wire.KindString},
			{Name: "v", Kind: wire.KindString},
		},
		Allocates: []string{KVEntry},
		Calls: []classmodel.MethodRef{
			{Class: classmodel.BuiltinList, Method: "add"},
			{Class: classmodel.BuiltinList, Method: "size"},
			{Class: classmodel.BuiltinList, Method: "get"},
			{Class: KVEntry, Method: "getkey"},
			{Class: KVEntry, Method: "setvalue"},
			{Class: KVAuditLog, Method: "record"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			bucket, err := kvBucket(env, self, args[0], fanout)
			if err != nil {
				return wire.Null(), err
			}
			idx, err := kvFindIn(env, bucket, args[0])
			if err != nil {
				return wire.Null(), err
			}
			if idx >= 0 {
				e, err := env.Call(bucket, "get", wire.Int(idx))
				if err != nil {
					return wire.Null(), err
				}
				if _, err := env.Call(e, "setvalue", args[1]); err != nil {
					return wire.Null(), err
				}
			} else {
				e, err := env.New(KVEntry, args[0], args[1])
				if err != nil {
					return wire.Null(), err
				}
				if _, err := env.Call(bucket, "add", e); err != nil {
					return wire.Null(), err
				}
				entries, err := env.GetField(self, "entries")
				if err != nil {
					return wire.Null(), err
				}
				if _, err := env.Call(entries, "add", e); err != nil {
					return wire.Null(), err
				}
			}
			// Report the write out to the untrusted audit log. The result
			// dependency forces an immediate nested ocall under this
			// (ecall-relayed) put.
			audit, err := env.GetField(self, "audit")
			if err != nil {
				return wire.Null(), err
			}
			if _, err := env.Call(audit, "record", args[0]); err != nil {
				return wire.Null(), err
			}
			return wire.Null(), nil
		},
	})
	mustMethod(c, &classmodel.Method{
		Name: "get", Public: true,
		Params:  []classmodel.Param{{Name: "k", Kind: wire.KindString}},
		Returns: wire.KindString,
		Calls: []classmodel.MethodRef{
			{Class: classmodel.BuiltinList, Method: "size"},
			{Class: classmodel.BuiltinList, Method: "get"},
			{Class: KVEntry, Method: "getkey"},
			{Class: KVEntry, Method: "getvalue"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			bucket, err := kvBucket(env, self, args[0], fanout)
			if err != nil {
				return wire.Null(), err
			}
			idx, err := kvFindIn(env, bucket, args[0])
			if err != nil {
				return wire.Null(), err
			}
			if idx < 0 {
				return wire.Null(), nil
			}
			e, err := env.Call(bucket, "get", wire.Int(idx))
			if err != nil {
				return wire.Null(), err
			}
			return env.Call(e, "getvalue")
		},
	})
	mustMethod(c, &classmodel.Method{
		Name: "keyat", Public: true,
		Params:  []classmodel.Param{{Name: "i", Kind: wire.KindInt}},
		Returns: wire.KindString,
		Calls: []classmodel.MethodRef{
			{Class: classmodel.BuiltinList, Method: "size"},
			{Class: classmodel.BuiltinList, Method: "get"},
			{Class: KVEntry, Method: "getkey"},
		},
		// keyat enumerates the store by index from outside. Nothing in
		// the tree calls it any more — the snapshot is one trusted pass
		// over the entries list (persist.WorldKV) — but it stays: it is
		// part of the closed-world image, and removing it would change
		// the measured build.
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			list, err := env.GetField(self, "entries")
			if err != nil {
				return wire.Null(), err
			}
			sz, err := env.Call(list, "size")
			if err != nil {
				return wire.Null(), err
			}
			n, _ := sz.AsInt()
			i, _ := args[0].AsInt()
			if i < 0 || i >= n {
				return wire.Null(), nil
			}
			e, err := env.Call(list, "get", wire.Int(i))
			if err != nil {
				return wire.Null(), err
			}
			return env.Call(e, "getkey")
		},
	})
	mustMethod(c, &classmodel.Method{
		Name: "size", Public: true, Returns: wire.KindInt,
		Calls: []classmodel.MethodRef{{Class: classmodel.BuiltinList, Method: "size"}},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			list, err := env.GetField(self, "entries")
			if err != nil {
				return wire.Null(), err
			}
			return env.Call(list, "size")
		},
	})
	return c
}

// kvFrontEndClass is the untrusted driver; its declared call graph keeps
// the KVStore serving surface reachable in the closed-world build.
func kvFrontEndClass() *classmodel.Class {
	c := classmodel.NewClass(KVFrontEnd, classmodel.Untrusted)
	mustMethod(c, &classmodel.Method{
		Name: classmodel.MainMethodName, Static: true, Public: true,
		Returns:   wire.KindList,
		Allocates: []string{KVStoreCls},
		Calls: []classmodel.MethodRef{
			{Class: KVStoreCls, Method: "put"},
			{Class: KVStoreCls, Method: "get"},
			{Class: KVStoreCls, Method: "size"},
			// Keeps keyat, the by-index enumeration surface, reachable in
			// the closed-world build (the build prunes undeclared methods);
			// see keyat for why it stays.
			{Class: KVStoreCls, Method: "keyat"},
		},
		Body: func(env classmodel.Env, self wire.Value, args []wire.Value) (wire.Value, error) {
			store, err := env.New(KVStoreCls)
			if err != nil {
				return wire.Null(), err
			}
			var hits, misses int64
			for i := 0; i < KVRequests; i++ {
				key := wire.Str(fmt.Sprintf("user:%04d", i%64))
				switch {
				case i%3 == 0:
					val := wire.Str(fmt.Sprintf("session-token-%08x", i*2654435761))
					if _, err := env.Call(store, "put", key, val); err != nil {
						return wire.Null(), err
					}
				default:
					got, err := env.Call(store, "get", key)
					if err != nil {
						return wire.Null(), err
					}
					if got.IsNull() {
						misses++
					} else {
						hits++
					}
				}
			}
			size, err := env.Call(store, "size")
			if err != nil {
				return wire.Null(), err
			}
			return wire.List(wire.Int(hits), wire.Int(misses), size), nil
		},
	})
	return c
}

// kvBucket resolves the index bucket owning a key: hash the key (plain
// Go, no boundary traffic), then one list lookup.
func kvBucket(env classmodel.Env, self, key wire.Value, fanout int) (wire.Value, error) {
	buckets, err := env.GetField(self, "buckets")
	if err != nil {
		return wire.Null(), err
	}
	k, _ := key.AsStr()
	h := fnv.New32a()
	_, _ = h.Write([]byte(k))
	return env.Call(buckets, "get", wire.Int(int64(h.Sum32()%uint32(fanout))))
}

// kvFindIn scans one bucket list for a key (inside the enclave, as part
// of KVStore's methods) and returns its index or -1.
func kvFindIn(env classmodel.Env, list, key wire.Value) (int64, error) {
	sz, err := env.Call(list, "size")
	if err != nil {
		return 0, err
	}
	n, _ := sz.AsInt()
	want, _ := key.AsStr()
	for i := int64(0); i < n; i++ {
		e, err := env.Call(list, "get", wire.Int(i))
		if err != nil {
			return 0, err
		}
		k, err := env.Call(e, "getkey")
		if err != nil {
			return 0, err
		}
		got, _ := k.AsStr()
		if got == want {
			return i, nil
		}
	}
	return -1, nil
}

package world_test

import (
	"errors"
	"fmt"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

var errVoidFailed = errors.New("void relay failed")

// voidClass is a class whose void method note returns a value from its
// body anyway, beside a value-returning twin echo whose relay name is as
// long (so both send identical requests), a failing void method fail,
// and a reach method that makes every method of other reachable from
// this side's image.
func voidClass(t *testing.T, name string, ann classmodel.Annotation, other string) *classmodel.Class {
	t.Helper()
	c := classmodel.NewClass(name, ann)
	str := []classmodel.Param{{Name: "s", Kind: wire.KindString}}
	methods := []*classmodel.Method{
		{Name: classmodel.CtorName, Public: true, Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) {
			return wire.Null(), nil
		}},
		{Name: "note", Public: true, Params: str, Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) {
			return wire.Int(42), nil
		}},
		{Name: "echo", Public: true, Params: str, Returns: wire.KindString, Body: func(_ classmodel.Env, _ wire.Value, args []wire.Value) (wire.Value, error) {
			return args[0], nil
		}},
		{Name: "fail", Public: true, Params: str, Body: func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) {
			return wire.Value{}, fmt.Errorf("fail: %w", errVoidFailed)
		}},
		{Name: "reach", Public: true, Allocates: []string{other},
			Calls: []classmodel.MethodRef{{Class: other, Method: "note"}, {Class: other, Method: "echo"}, {Class: other, Method: "fail"}},
			Body:  func(classmodel.Env, wire.Value, []wire.Value) (wire.Value, error) { return wire.Null(), nil }},
	}
	for _, m := range methods {
		if err := c.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestVoidRelayAnswersNothing: the relay of a void method hands nothing
// back, whichever route the call takes and in either direction. The
// caller sees Null although the body returned 42, and the call counts
// no result bytes: against echo, whose request is the same size, it
// marshals exactly two result encodings fewer (the callee's and the
// caller's) and, on the routes that copy buffers through the MEE, one
// result fewer there. echo still round-trips its value, and a failing
// void relay still fails its call — or, batched, the next flush.
func TestVoidRelayAnswersNothing(t *testing.T) {
	routes := []struct {
		name            string
		rings, batching bool
		lane            bool
		meeResultCopies uint64
		routed          func(world.DispatchStats) uint64
	}{
		{name: "full", meeResultCopies: 1,
			routed: func(ds world.DispatchStats) uint64 { return ds.FullCalls }},
		{name: "lane", lane: true, meeResultCopies: 1,
			routed: func(ds world.DispatchStats) uint64 { return ds.SwitchlessCalls }},
		{name: "ring", rings: true,
			routed: func(ds world.DispatchStats) uint64 { return ds.RingCalls }},
		{name: "batched", batching: true,
			routed: func(ds world.DispatchStats) uint64 { return ds.BatchedCalls }},
	}
	for _, r := range routes {
		for _, trusted := range []bool{false, true} {
			dir := map[bool]string{false: "in", true: "out"}[trusted]
			t.Run(r.name+"/"+dir, func(t *testing.T) {
				p := demo.MustBankProgram()
				for _, c := range []*classmodel.Class{
					voidClass(t, "VoidIn", classmodel.Trusted, "VoidOut"),
					voidClass(t, "VoidOut", classmodel.Untrusted, "VoidIn"),
				} {
					if err := p.AddClass(c); err != nil {
						t.Fatal(err)
					}
				}
				opts := world.DefaultOptions()
				opts.Cfg.Rings = r.rings
				opts.Cfg.Batching = r.batching
				w, _, err := core.NewPartitionedWorld(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				var lane *world.Lane
				if r.lane {
					lanes, err := w.OpenLanes(1)
					if err != nil {
						t.Fatal(err)
					}
					lane = lanes[0]
				}
				callee := map[bool]string{false: "VoidIn", true: "VoidOut"}[trusted]
				arg := wire.Str("a payload of some length")
				resultBytes := uint64(wire.SizeValues([]wire.Value{arg}))

				type counts struct{ marshalled, mee, routed uint64 }
				snap := func() counts {
					ds := w.DispatchStats()
					return counts{
						marshalled: w.Untrusted().Stats().MarshalledBytes + w.Trusted().Stats().MarshalledBytes,
						mee:        ds.MEECopiedBytes,
						routed:     r.routed(ds),
					}
				}
				err = w.ExecSpan(trusted, nil, lane, func(env classmodel.Env) error {
					obj, err := env.New(callee)
					if err != nil {
						return err
					}
					if err := w.Flush(); err != nil {
						return err
					}
					// call runs one call, and under batching the flush
					// that carries it, and returns what it counted.
					call := func(method string) (wire.Value, counts, error) {
						before := snap()
						got, err := env.Call(obj, method, arg)
						if err == nil && r.batching {
							err = w.Flush()
						}
						after := snap()
						return got, counts{after.marshalled - before.marshalled, after.mee - before.mee, after.routed - before.routed}, err
					}
					void, voidCounts, err := call("note")
					if err != nil {
						return err
					}
					if !void.IsNull() {
						return fmt.Errorf("void note returned %v to its caller, want Null", void)
					}
					if voidCounts.routed == 0 {
						return fmt.Errorf("note did not take the %s route: %+v", r.name, voidCounts)
					}
					echoed, echoCounts, err := call("echo")
					if err != nil {
						return err
					}
					if !echoed.Equal(arg) {
						return fmt.Errorf("echo returned %v, want %v", echoed, arg)
					}
					if d := echoCounts.marshalled - voidCounts.marshalled; d != 2*resultBytes {
						return fmt.Errorf("echo marshals %d bytes more than note, want two %d-byte results", d, resultBytes)
					}
					if d := echoCounts.mee - voidCounts.mee; !r.batching && d != r.meeResultCopies*resultBytes {
						return fmt.Errorf("echo copies %d MEE bytes more than note, want %d", d, r.meeResultCopies*resultBytes)
					}
					_, _, err = call("fail")
					if !errors.Is(err, errVoidFailed) {
						return fmt.Errorf("fail surfaced %v, want %v", err, errVoidFailed)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

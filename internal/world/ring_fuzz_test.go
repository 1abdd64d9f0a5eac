package world_test

import (
	"runtime"
	"testing"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/transform"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// fuzzSlotBytes is the slot payload capacity FuzzRingSlot models (a
// configured Config.RingSlotBytes; the default is 64 KiB).
const fuzzSlotBytes = 4096

// fuzzAllocPerSlotByte bounds what handling one slot may allocate, per
// slot byte. Decoding is the widest expansion — a decoded wire.Value
// takes 40 bytes for as little as one encoded byte — and the relay's
// frame, names and bookkeeping add a little on top; a length prefix that
// claimed bytes the slot does not hold would blow far past it.
const fuzzAllocPerSlotByte = 64

// FuzzRingSlot feeds arbitrary slot bytes to the ring consumer's decode
// and dispatch path: the handler a ring worker runs on each opened
// submission (wire.DecodeSlot, then the one executor of a decoded call
// record: a relay dispatch or a registry release), on a fresh bank world per input (twoWayProgram, so trusted
// code can reach Person too) whose trusted side holds an Account mirror
// and whose untrusted side holds a Person mirror. Every input must end
// in an error or a valid dispatch — a one-value response in place in the
// slot or in a bounce buffer too large for it, nothing for a void call
// or a release — and none may panic or allocate beyond what the slot's
// bytes can back.
func FuzzRingSlot(f *testing.F) {
	build, err := core.BuildPartitioned(twoWayProgram(f))
	if err != nil {
		f.Fatal(err)
	}
	opts := world.DefaultOptions()
	// fixture boots the world and makes the two mirrors; it returns their
	// hashes, which are the same in every fresh world.
	fixture := func(tb testing.TB) (w *world.World, acct, person int64) {
		w, err := world.NewPartitioned(opts, build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
		if err != nil {
			tb.Fatal(err)
		}
		var refs [2]wire.Value
		for i, trusted := range []bool{false, true} {
			err := w.Exec(trusted, func(env classmodel.Env) error {
				var err error
				if trusted {
					refs[i], err = env.New(demo.Person, wire.Str("Bob"), wire.Int(5))
				} else {
					refs[i], err = env.New(demo.Account, wire.Str("Alice"), wire.Int(100))
				}
				return err
			})
			if err != nil {
				w.Close()
				tb.Fatal(err)
			}
		}
		_, acct, _ = refs[0].AsRef()
		_, person, _ = refs[1].AsRef()
		return w, acct, person
	}

	// Seeds are real submissions: what remoteCall's fill and the batch
	// flush encode into a slot.
	w, acct, person := fixture(f)
	w.Close()
	call := func(class, method string, hash int64, flags byte, args ...wire.Value) []byte {
		argBuf := wire.AppendValues(nil, args)
		return append(wire.AppendCallHeader([]byte{flags}, class, transform.RelayName(method), hash, len(argBuf)), argBuf...)
	}
	const want = wire.CallWantResult
	for _, seed := range []struct {
		toTrusted bool
		req       []byte
	}{
		{true, call(demo.Account, "getBalance", acct, want)},
		{true, call(demo.Account, "getOwner", acct, want)},
		{true, call(demo.Account, "updateBalance", acct, 0, wire.Int(-7))},
		{true, call(demo.Account, classmodel.CtorName, 1<<40, want, wire.Str("Carol"), wire.Int(3))},
		{true, wire.AppendCallHeader([]byte{0}, "", "<gc-release>", acct, 0)},
		{false, call(demo.Person, "getName", person, want)},
		{false, call(demo.Person, "getAccount", person, want)},
		{false, call(demo.Person, "transfer", person, want, wire.Ref(demo.Person, person), wire.Int(1))},
		{true, call(demo.Account, "getBalance", acct, want, wire.Int(1))}, // arity
		{true, call(demo.Account, "getBalance", 1<<40, want)},             // no mirror
		{false, nil},
		{true, []byte{want, 0xff, 0xff, 0xff, 0xff, 0x0f}}, // class length past the slot
	} {
		f.Add(seed.toTrusted, seed.req)
	}

	f.Fuzz(func(t *testing.T, toTrusted bool, req []byte) {
		if len(req) > fuzzSlotBytes {
			return // a producer never publishes more than a slot holds
		}
		w, _, _ := fixture(t)
		defer w.Close()
		rt := w.Untrusted()
		if toTrusted {
			rt = w.Trusted()
		}
		handle := w.RingHandler(rt)
		// The request and the response share the slot, as in a ring.
		slot := make([]byte, fuzzSlotBytes)
		in := slot[:copy(slot, req)]
		var (
			out      []byte
			overflow bool
			herr     error
		)
		run := func(classmodel.Env) error {
			out, overflow, herr = handle(1, in, slot[:0], nil)
			return nil
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// The ecall group's consumers run inside the enclave, the ocall
		// group's outside it.
		if err := w.Exec(toTrusted, run); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > fuzzAllocPerSlotByte*fuzzSlotBytes {
			t.Fatalf("%d bytes allocated for a %d-byte submission", grown, len(req))
		}

		if herr != nil {
			if herr.Error() == "" || out != nil || overflow {
				t.Fatalf("error %q with response %d bytes (overflow %v)", herr, len(out), overflow)
			}
			return
		}
		c, flags, err := wire.DecodeSlot(req)
		if err != nil {
			t.Fatalf("dispatched a submission that does not decode: %v", err)
		}
		if c.Method == "<gc-release>" || flags&wire.CallWantResult == 0 {
			if out != nil || overflow {
				t.Fatalf("void %s answered %d bytes", c.Method, len(out))
			}
			return
		}
		switch {
		case overflow && len(out) <= cap(slot):
			t.Fatalf("a %d-byte response bounced past a %d-byte slot", len(out), cap(slot))
		case !overflow && (len(out) == 0 || &out[0] != &slot[0]):
			t.Fatalf("in-place response of %d bytes is not in the slot", len(out))
		}
		if vals, err := wire.UnmarshalList(out); err != nil || len(vals) != 1 {
			t.Fatalf("response decodes to %d values: %v", len(vals), err)
		}
	})
}

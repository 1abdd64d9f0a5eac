package world

import (
	"fmt"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/heap"
	"montsalvat/internal/image"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
)

// A frame is the classmodel.Activation behind its activation's Env.
// Method bodies observe identical semantics in either runtime; only the
// costs differ — instantiating or calling a proxy class triggers an
// enclave transition.
var _ classmodel.Activation = (*frame)(nil)

// New implements classmodel.Activation.
func (fr *frame) New(class string, args []wire.Value) (wire.Value, error) {
	rt := fr.rt
	if classmodel.IsBuiltin(class) {
		return fr.newBuiltin(class, args)
	}
	ctor := rt.link(class, classmodel.CtorName)
	if ctor.declErr != nil {
		return wire.Value{}, ctor.declErr
	}

	if ctor.decl.Proxy {
		// Instantiating a class of the opposite runtime: create the
		// local proxy object, then transition to create the mirror
		// (Listing 2/3 constructor stubs).
		hash := rt.w.nextHash()
		h, err := rt.newProxy(fr, class, hash)
		if err != nil {
			return wire.Value{}, err
		}
		// Constructor relays return no value, so under Config.Batching
		// this call may be queued: the mirror is materialized lazily at
		// the next flush, and a constructor error surfaces there instead
		// of here. Queue ordering guarantees the mirror exists before
		// any later call on this proxy reaches the other runtime.
		if _, err := rt.remoteCall(fr, ctor, hash, args); err != nil {
			return wire.Value{}, err
		}
		return wire.Ref(class, hash).WithHandle(uint64(h)), nil
	}

	// Local concrete instantiation.
	if ctor.lookErr != nil {
		return wire.Value{}, ctor.lookErr
	}
	rt.w.clock.Charge(simcfg.LocalAllocCycles)
	hash := rt.w.nextHash()
	rt.heapMu.Lock()
	h, err := rt.iso.NewObject(class, hash)
	rt.unlockHeap()
	if err != nil {
		return wire.Value{}, err
	}
	fr.own(hash, h)
	self := wire.Ref(class, hash).WithHandle(uint64(h))
	if _, err := rt.dispatch(ctor, self, args, fr, nil); err != nil {
		return wire.Value{}, err
	}
	return self, nil
}

// Call implements classmodel.Activation.
func (fr *frame) Call(recv wire.Value, method string, args []wire.Value) (wire.Value, error) {
	class, hash, ok := recv.AsRef()
	if !ok {
		return wire.Value{}, fmt.Errorf("%w: cannot call %s on %s", ErrNotRef, method, recv.Kind())
	}
	rt := fr.rt
	if classmodel.IsBuiltin(class) {
		return fr.callBuiltin(recv, method, args)
	}
	lk := rt.link(class, method)
	if lk.declErr != nil {
		return wire.Value{}, lk.declErr
	}
	if lk.decl.Proxy {
		return rt.remoteCall(fr, lk, hash, args)
	}
	return rt.dispatch(lk, recv, args, fr, fr)
}

// CallStatic implements classmodel.Activation.
func (fr *frame) CallStatic(class, method string, args []wire.Value) (wire.Value, error) {
	rt := fr.rt
	lk := rt.link(class, method)
	if lk.declErr != nil {
		return wire.Value{}, lk.declErr
	}
	if lk.decl.Proxy {
		return rt.remoteCall(fr, lk, 0, args)
	}
	if lk.lookErr != nil {
		return wire.Value{}, lk.lookErr
	}
	if !lk.method.Static {
		return wire.Value{}, fmt.Errorf("world: %s is not static", lk.ref)
	}
	return rt.dispatch(lk, wire.Null(), args, fr, fr)
}

// GetField implements classmodel.Activation.
func (fr *frame) GetField(recv wire.Value, field string) (wire.Value, error) {
	rt := fr.rt
	class, _, ok := recv.AsRef()
	if !ok {
		return wire.Value{}, ErrNotRef
	}
	decl, err := rt.classDecl(class)
	if err != nil {
		return wire.Value{}, err
	}
	if decl.Proxy {
		return wire.Value{}, fmt.Errorf("world: proxy %s has no fields (access fields via methods)", class)
	}
	rt.w.clock.Charge(simcfg.FieldAccessCycles)
	// The field read and the ref-handle creation are one isolate call, so
	// the slot cannot change between them; the fresh handle is then
	// adopted.
	h, err := rt.lockRef(fr, recv)
	if err != nil {
		return wire.Value{}, err
	}
	v, fh, err := rt.iso.GetFieldRef(h, field)
	rt.unlockHeap()
	if err != nil || fh == 0 {
		return v, err
	}
	_, refHash, _ := v.AsRef()
	kept, err := rt.adopt(fr, refHash, fh)
	return v.WithHandle(uint64(kept)), err
}

// SetField implements classmodel.Activation.
func (fr *frame) SetField(recv wire.Value, field string, v wire.Value) error {
	rt := fr.rt
	class, _, ok := recv.AsRef()
	if !ok {
		return ErrNotRef
	}
	decl, err := rt.classDecl(class)
	if err != nil {
		return err
	}
	if decl.Proxy {
		return fmt.Errorf("world: proxy %s has no fields (access fields via methods)", class)
	}
	f, ok := decl.Field(field)
	if !ok {
		return fmt.Errorf("world: unknown field %s.%s", class, field)
	}
	rt.w.clock.Charge(simcfg.FieldAccessCycles)
	if f.Kind == classmodel.FieldRef && !v.IsNull() {
		if v.Kind() != wire.KindRef {
			return fmt.Errorf("world: field %s.%s wants a reference, got %s", class, field, v.Kind())
		}
		h, th, err := rt.lockRefs(fr, recv, v)
		if err != nil {
			return err
		}
		defer rt.unlockHeap()
		return rt.iso.SetFieldRef(h, field, th)
	}
	h, err := rt.lockRef(fr, recv)
	if err != nil {
		return err
	}
	defer rt.unlockHeap()
	switch f.Kind {
	case classmodel.FieldRef:
		return rt.iso.SetFieldRef(h, field, 0)
	case classmodel.FieldInt, classmodel.FieldFloat, classmodel.FieldBool:
		return rt.iso.SetFieldScalar(h, field, v)
	default:
		return rt.iso.SetFieldData(h, field, v)
	}
}

// MemTouch implements classmodel.Env: streaming n bytes of workload data
// through enclave memory pays MEE cost; untrusted memory is free.
func (fr *frame) MemTouch(n int) {
	if fr.rt.trusted && fr.rt.encl != nil {
		fr.rt.w.clock.ChargeBytes(n, simcfg.MEEBytesPerCycle)
	}
}

// Trusted implements classmodel.Activation.
func (fr *frame) Trusted() bool { return fr.rt.trusted }

// FS implements classmodel.Activation.
func (fr *frame) FS() shim.FS { return fr.rt.fs }

// ---- builtin (neutral utility class) dispatch -------------------------

func (fr *frame) newBuiltin(class string, args []wire.Value) (wire.Value, error) {
	rt := fr.rt
	rt.w.clock.Charge(simcfg.LocalAllocCycles)
	// Validate arguments before entering the heap critical section, so
	// the section is a straight-line allocate-and-hash.
	var alloc func() (heap.Handle, error)
	switch class {
	case classmodel.BuiltinList:
		if len(args) != 0 {
			return wire.Value{}, fmt.Errorf("%w: List() takes no arguments", ErrBadArity)
		}
		alloc = rt.iso.NewList
	case classmodel.BuiltinString:
		s, ok := oneArg(args).AsStr()
		if !ok {
			return wire.Value{}, fmt.Errorf("world: String(value) wants a string argument")
		}
		alloc = func() (heap.Handle, error) { return rt.iso.NewString(s) }
	case classmodel.BuiltinBytes:
		b, ok := oneArg(args).AsBytes()
		if !ok {
			return wire.Value{}, fmt.Errorf("world: Bytes(value) wants a bytes argument")
		}
		alloc = func() (heap.Handle, error) { return rt.iso.NewBytes(b) }
	case classmodel.BuiltinBlob:
		v := oneArg(args)
		alloc = func() (heap.Handle, error) { return rt.iso.NewBlob(v) }
	default:
		return wire.Value{}, fmt.Errorf("world: cannot instantiate builtin %s directly", class)
	}
	rt.heapMu.Lock()
	h, err := alloc()
	var hash int64
	if err == nil {
		hash, err = rt.iso.HashOf(h)
	}
	rt.unlockHeap()
	if err != nil {
		return wire.Value{}, err
	}
	fr.own(hash, h)
	return wire.Ref(class, hash).WithHandle(uint64(h)), nil
}

func (fr *frame) callBuiltin(recv wire.Value, method string, args []wire.Value) (wire.Value, error) {
	rt := fr.rt
	class, _, _ := recv.AsRef()
	rt.w.clock.Charge(simcfg.LocalCallCycles)
	if class == classmodel.BuiltinList {
		return fr.callList(recv, method, args)
	}
	h, err := rt.lockRef(fr, recv)
	if err != nil {
		return wire.Value{}, err
	}
	defer rt.unlockHeap()
	switch class {
	case classmodel.BuiltinString:
		s, err := rt.iso.StrValue(h)
		if err != nil {
			return wire.Value{}, err
		}
		switch method {
		case "value":
			return wire.Str(s), nil
		case "length":
			return wire.Int(int64(len(s))), nil
		}
	case classmodel.BuiltinBytes:
		b, err := rt.iso.BytesValue(h)
		if err != nil {
			return wire.Value{}, err
		}
		switch method {
		case "value":
			return wire.Bytes(b), nil
		case "length":
			return wire.Int(int64(len(b))), nil
		}
	case classmodel.BuiltinBlob:
		if method == "value" {
			return rt.iso.BlobValue(h)
		}
	}
	return wire.Value{}, fmt.Errorf("%w: method %s.%s", image.ErrClosedWorld, class, method)
}

// callList dispatches List methods on the list behind ref list.
func (fr *frame) callList(list wire.Value, method string, args []wire.Value) (wire.Value, error) {
	rt := fr.rt
	switch method {
	case "size":
		h, err := rt.lockRef(fr, list)
		if err != nil {
			return wire.Value{}, err
		}
		n, err := rt.iso.ListSize(h)
		rt.unlockHeap()
		if err != nil {
			return wire.Value{}, err
		}
		return wire.Int(int64(n)), nil
	case "add", "set":
		idx := 0
		if method == "set" {
			if len(args) != 2 {
				return wire.Value{}, fmt.Errorf("%w: List.set(index, element)", ErrBadArity)
			}
			i, ok := args[0].AsInt()
			if !ok {
				return wire.Value{}, fmt.Errorf("world: List.set index must be int")
			}
			idx = int(i)
			args = args[1:]
		} else if len(args) != 1 {
			return wire.Value{}, fmt.Errorf("%w: List.add(element)", ErrBadArity)
		}
		if args[0].Kind() != wire.KindRef {
			return wire.Value{}, fmt.Errorf("world: List elements are object references, got %s", args[0].Kind())
		}
		h, eh, err := rt.lockRefs(fr, list, args[0])
		if err != nil {
			return wire.Value{}, err
		}
		defer rt.unlockHeap()
		if method == "add" {
			return wire.Null(), rt.iso.ListAdd(h, eh)
		}
		return wire.Null(), rt.iso.ListSet(h, idx, eh)
	case "get":
		if len(args) != 1 {
			return wire.Value{}, fmt.Errorf("%w: List.get(index)", ErrBadArity)
		}
		i, ok := args[0].AsInt()
		if !ok {
			return wire.Value{}, fmt.Errorf("world: List.get index must be int")
		}
		// Element handle, hash and class id come from one isolate call;
		// the fresh handle is then adopted.
		h, err := rt.lockRef(fr, list)
		if err != nil {
			return wire.Value{}, err
		}
		eh, elemHash, cid, err := rt.iso.ListGet(h, int(i))
		var name string
		if err == nil && eh != 0 {
			if name, err = rt.iso.ClassName(cid); err != nil {
				_ = rt.iso.Release(eh)
			}
		}
		rt.unlockHeap()
		if err != nil {
			return wire.Value{}, err
		}
		if eh == 0 {
			return wire.Null(), nil
		}
		kept, err := rt.adopt(fr, elemHash, eh)
		return wire.Ref(name, elemHash).WithHandle(uint64(kept)), err
	default:
		return wire.Value{}, fmt.Errorf("%w: method List.%s", image.ErrClosedWorld, method)
	}
}

func oneArg(args []wire.Value) wire.Value {
	if len(args) != 1 {
		return wire.Value{}
	}
	return args[0]
}

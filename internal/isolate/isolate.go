// Package isolate implements the GraalVM-isolate analog: an independent
// VM instance with its own managed heap, object model and garbage
// collection (paper §2.2: "GraalVM native-image provides the possibility
// of creating multiple independent VM instances at runtime, which are
// called isolates. Each isolate operates on a separate heap, allowing
// garbage collection to be performed independently").
//
// The isolate maps classmodel objects onto heap objects. Every object
// stores its identity hash in the first 8 bytes of its data area — the
// hash that proxy objects carry and that keys the mirror–proxy registry
// (§5.2). Reference-like fields (String, byte[], serialized values,
// references to application classes) occupy reference slots pointing at
// child objects; scalar fields live in the data area.
//
// Montsalvat creates one default isolate per runtime (trusted and
// untrusted); the multi-isolate extension from the paper's future work
// (§7) is supported by giving each isolate an ID.
//
// Each operation takes one heap.Obj view per object it touches and runs
// every later check of that object against the view, so it reads each
// header once. Only an allocation inside the operation makes it take the
// views it still needs again (heap.Obj).
package isolate

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/heap"
	"montsalvat/internal/wire"
)

// Builtin class identifiers (negative; application classes are positive).
const (
	ClassIDString int32 = -1
	ClassIDBytes  int32 = -2
	ClassIDBlob   int32 = -3
	ClassIDArray  int32 = -4
	ClassIDList   int32 = -5
)

const hashBytes = 8

// Errors returned by isolate operations.
var (
	ErrUnknownClass = errors.New("isolate: unknown class")
	ErrUnknownField = errors.New("isolate: unknown field")
	ErrKindMismatch = errors.New("isolate: field/value kind mismatch")
	ErrNotBuiltin   = errors.New("isolate: object is not of the expected builtin class")
	ErrIndex        = errors.New("isolate: list index out of range")
)

type classInfo struct {
	name   string
	id     int32
	decl   *classmodel.Class
	layout classmodel.Layout
}

// Isolate is one VM instance: a heap plus the class metadata loaded from
// a native image. It is not safe for concurrent use; the owning runtime
// serialises access (stop-the-world discipline).
type Isolate struct {
	heap     *heap.Heap
	nextHash func() int64

	classes map[string]*classInfo
	// byID is indexed by class id; the image numbers its classes densely
	// from 1.
	byID []*classInfo

	// word carries one scalar to or from the heap; a buffer local to the
	// caller would escape through the heap's backend on every access.
	word [8]byte
	// buf carries a data object's payload to or from the heap: a string
	// read copies once, out of buf into the string, and a string store
	// copies once, into buf.
	buf []byte
}

// New creates an isolate over h. nextHash supplies identity hashes
// (shared across runtimes so hashes are globally unique, the paper's
// "hashing algorithm like MD5 to minimize hash collisions").
func New(h *heap.Heap, nextHash func() int64) (*Isolate, error) {
	if h == nil {
		return nil, errors.New("isolate: nil heap")
	}
	if nextHash == nil {
		return nil, errors.New("isolate: nil hash source")
	}
	return &Isolate{
		heap:     h,
		nextHash: nextHash,
		classes:  make(map[string]*classInfo),
	}, nil
}

// Heap exposes the underlying heap (for registries, GC helpers, stats).
func (iso *Isolate) Heap() *heap.Heap { return iso.heap }

// RegisterClass loads one image class into the isolate's metadata.
// Builtin classes are provided natively and must not be registered.
func (iso *Isolate) RegisterClass(c *classmodel.Class, id int32) error {
	if c == nil {
		return errors.New("isolate: nil class")
	}
	if classmodel.IsBuiltin(c.Name) {
		return nil
	}
	if id <= 0 {
		return fmt.Errorf("isolate: class %s needs a positive id, got %d", c.Name, id)
	}
	if _, dup := iso.classes[c.Name]; dup {
		return fmt.Errorf("isolate: class %s already registered", c.Name)
	}
	info := &classInfo{name: c.Name, id: id, decl: c, layout: classmodel.LayoutOf(c)}
	iso.classes[c.Name] = info
	if int(id) >= len(iso.byID) {
		iso.byID = append(iso.byID, make([]*classInfo, int(id)+1-len(iso.byID))...)
	}
	iso.byID[id] = info
	return nil
}

// NewObject allocates an instance of an application class with the given
// identity hash. Proxy classes have no declared fields, so their
// instances carry only the hash (Listings 2-3).
func (iso *Isolate) NewObject(class string, hash int64) (heap.Handle, error) {
	info, ok := iso.classes[class]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownClass, class)
	}
	o, err := iso.alloc(info.id, info.layout.NumRefs, hashBytes+info.layout.DataBytes)
	if err != nil {
		return 0, err
	}
	if err := iso.writeHash(o, hash); err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(o, hash)
}

// alloc allocates an object and takes its view.
func (iso *Isolate) alloc(classID int32, nRefs, dataBytes int) (heap.Obj, error) {
	addr, err := iso.heap.Alloc(classID, nRefs, dataBytes)
	if err != nil {
		return heap.Obj{}, err
	}
	return iso.heap.View(addr)
}

// NewString allocates a String object.
func (iso *Isolate) NewString(s string) (heap.Handle, error) {
	return iso.newHandled(ClassIDString, iso.staged(s))
}

// NewBytes allocates a Bytes object.
func (iso *Isolate) NewBytes(b []byte) (heap.Handle, error) {
	return iso.newHandled(ClassIDBytes, b)
}

// NewBlob allocates a Blob holding one serialized neutral value.
func (iso *Isolate) NewBlob(v wire.Value) (heap.Handle, error) {
	return iso.newHandled(ClassIDBlob, wire.Marshal(v))
}

// NewList allocates an empty List (growable reference list). The array is
// viewed twice: once when it is made, and once after the List's own
// allocation, which may have moved it.
func (iso *Isolate) NewList() (heap.Handle, error) {
	arr, err := iso.alloc(ClassIDArray, 4, hashBytes)
	if err != nil {
		return 0, err
	}
	arrHash := iso.nextHash()
	if err := iso.writeHash(arr, arrHash); err != nil {
		return 0, err
	}
	arrHd, err := iso.heap.NewHandle(arr, arrHash)
	if err != nil {
		return 0, err
	}
	defer func() {
		// The wrapper's ref slot keeps the array alive after this.
		_ = iso.heap.Release(arrHd)
	}()
	list, err := iso.alloc(ClassIDList, 1, hashBytes+8)
	if err != nil {
		return 0, err
	}
	hash := iso.nextHash()
	if err := iso.writeHash(list, hash); err != nil {
		return 0, err
	}
	if arr, err = iso.view(arrHd); err != nil {
		return 0, err
	}
	if err := iso.heap.SetRef(list, 0, arr); err != nil {
		return 0, err
	}
	if err := iso.writeInt(list, hashBytes, 0); err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(list, hash)
}

// newHandled allocates a builtin data object and hands out a strong
// handle to it.
func (iso *Isolate) newHandled(classID int32, payload []byte) (heap.Handle, error) {
	o, hash, err := iso.newDataObject(classID, payload)
	if err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(o, hash)
}

// newDataObject allocates a builtin data object, identity hash then
// payload, and returns its view and hash. The modelled program
// allocates, views the new object, stores the hash and — if there is
// one — stores the payload; AllocData charges exactly that while
// encrypting each line once.
func (iso *Isolate) newDataObject(classID int32, payload []byte) (heap.Obj, int64, error) {
	hash := iso.nextHash()
	binary.LittleEndian.PutUint64(iso.word[:], uint64(hash))
	parts := [][]byte{iso.word[:], payload}
	if len(payload) == 0 {
		parts = parts[:1] // the modelled program skips an empty store
	}
	o, err := iso.heap.AllocData(classID, parts...)
	return o, hash, err
}

// view resolves a handle and takes the view of its object: the one header
// read of that object in the calling operation.
func (iso *Isolate) view(h heap.Handle) (heap.Obj, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return heap.Obj{}, err
	}
	return iso.heap.View(addr)
}

// HashOf reads an object's identity hash.
func (iso *Isolate) HashOf(h heap.Handle) (int64, error) {
	o, err := iso.view(h)
	if err != nil {
		return 0, err
	}
	return iso.readHash(o)
}

// ClassName returns the name of the class with identifier id.
func (iso *Isolate) ClassName(id int32) (string, error) {
	switch id {
	case ClassIDString:
		return classmodel.BuiltinString, nil
	case ClassIDBytes:
		return classmodel.BuiltinBytes, nil
	case ClassIDBlob:
		return classmodel.BuiltinBlob, nil
	case ClassIDArray:
		return classmodel.BuiltinArray, nil
	case ClassIDList:
		return classmodel.BuiltinList, nil
	}
	info := iso.classByID(id)
	if info == nil {
		return "", fmt.Errorf("%w: id %d", ErrUnknownClass, id)
	}
	return info.name, nil
}

// Release drops a strong handle.
func (iso *Isolate) Release(h heap.Handle) error { return iso.heap.Release(h) }

// NewWeak weak-tracks the object behind h under its identity hash,
// by which heap.LiveWeak finds it and heap.SweepWeaks reports its death.
func (iso *Isolate) NewWeak(h heap.Handle, hash int64) error {
	o, err := iso.view(h)
	if err != nil {
		return err
	}
	_, err = iso.heap.NewWeak(o, hash)
	return err
}

// HandleAt wraps a raw address of the object with identity hash in a
// fresh strong handle. The address must be current (no allocation since
// it was obtained).
func (iso *Isolate) HandleAt(addr heap.Addr, hash int64) (heap.Handle, error) {
	o, err := iso.heap.View(addr)
	if err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(o, hash)
}

// Collect runs a stop-and-copy GC cycle on the isolate heap.
func (iso *Isolate) Collect() error { return iso.heap.Collect() }

// SetFieldScalar writes an int, double or boolean field.
func (iso *Isolate) SetFieldScalar(h heap.Handle, field string, v wire.Value) error {
	o, info, f, slot, err := iso.fieldOf(h, field)
	if err != nil {
		return err
	}
	var raw uint64
	switch f.Kind {
	case classmodel.FieldInt:
		i, ok := v.AsInt()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants int, got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		raw = uint64(i)
	case classmodel.FieldFloat:
		fl, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants double, got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		raw = math.Float64bits(fl)
	case classmodel.FieldBool:
		b, ok := v.AsBool()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants boolean, got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		if b {
			raw = 1
		}
	default:
		return fmt.Errorf("%w: %s.%s is not scalar", ErrKindMismatch, info.name, field)
	}
	return iso.writeInt(o, hashBytes+slot, int64(raw))
}

// SetFieldData writes a String, byte[] or serialized-value field by
// allocating a fresh child object (the previous child becomes garbage).
// The receiver is viewed twice: once to find the field, and once after
// the child's allocation, which may have moved it.
func (iso *Isolate) SetFieldData(h heap.Handle, field string, v wire.Value) error {
	_, info, f, slot, err := iso.fieldOf(h, field)
	if err != nil {
		return err
	}
	var (
		classID int32
		payload []byte
	)
	switch f.Kind {
	case classmodel.FieldString:
		s, ok := v.AsStr()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants String, got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		classID, payload = ClassIDString, iso.staged(s)
	case classmodel.FieldBytes:
		b, ok := v.AsBytes()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants byte[], got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		classID, payload = ClassIDBytes, b
	case classmodel.FieldValue:
		classID, payload = ClassIDBlob, wire.Marshal(v)
	default:
		return fmt.Errorf("%w: %s.%s is not a data field", ErrKindMismatch, info.name, field)
	}
	// Nothing allocates between the child's allocation and the store, so
	// its view stays current and no handle has to pin it.
	child, _, err := iso.newDataObject(classID, payload)
	if err != nil {
		return err
	}
	o, err := iso.view(h)
	if err != nil {
		return err
	}
	return iso.heap.SetRef(o, slot, child)
}

// SetFieldRef writes a reference field. target==0 stores null.
func (iso *Isolate) SetFieldRef(h heap.Handle, field string, target heap.Handle) error {
	o, info, f, slot, err := iso.fieldOf(h, field)
	if err != nil {
		return err
	}
	if f.Kind != classmodel.FieldRef {
		return fmt.Errorf("%w: %s.%s is not a reference field", ErrKindMismatch, info.name, field)
	}
	var t heap.Obj
	if target != 0 {
		if t, err = iso.view(target); err != nil {
			return err
		}
	}
	return iso.heap.SetRef(o, slot, t)
}

// GetFieldRef reads any field as a wire value. Reference fields come
// back as wire.Ref(class, hash) (null if unset), with a fresh strong
// handle to the object the field points at (0 otherwise) that the
// caller owns; String/byte[]/value fields are read out of their child
// objects.
func (iso *Isolate) GetFieldRef(h heap.Handle, field string) (wire.Value, heap.Handle, error) {
	return iso.getField(h, field, true)
}

func (iso *Isolate) getField(h heap.Handle, field string, wantHandle bool) (wire.Value, heap.Handle, error) {
	o, info, f, slot, err := iso.fieldOf(h, field)
	if err != nil {
		return wire.Value{}, 0, err
	}
	if !f.Kind.IsRefLike() {
		raw, err := iso.readInt(o, hashBytes+slot)
		if err != nil {
			return wire.Value{}, 0, err
		}
		switch f.Kind {
		case classmodel.FieldInt:
			return wire.Int(raw), 0, nil
		case classmodel.FieldFloat:
			return wire.Float(math.Float64frombits(uint64(raw))), 0, nil
		default:
			return wire.Bool(raw != 0), 0, nil
		}
	}
	childAddr, err := iso.heap.GetRef(o, slot)
	if err != nil {
		return wire.Value{}, 0, err
	}
	if childAddr == 0 {
		return wire.Null(), 0, nil
	}
	child, err := iso.heap.View(childAddr)
	if err != nil {
		return wire.Value{}, 0, err
	}
	switch f.Kind {
	case classmodel.FieldString:
		b, err := iso.dataPayload(child, ClassIDString)
		if err != nil {
			return wire.Value{}, 0, err
		}
		return wire.Str(string(b)), 0, nil
	case classmodel.FieldBytes:
		b, err := iso.dataPayload(child, ClassIDBytes)
		if err != nil {
			return wire.Value{}, 0, err
		}
		return wire.Bytes(bytes.Clone(b)), 0, nil
	case classmodel.FieldValue:
		b, err := iso.dataPayload(child, ClassIDBlob)
		if err != nil {
			return wire.Value{}, 0, err
		}
		v, _, err := wire.Unmarshal(b)
		if err != nil {
			return wire.Value{}, 0, fmt.Errorf("isolate: corrupt blob field %s.%s: %w", info.name, field, err)
		}
		return v, 0, nil
	default: // FieldRef
		hash, err := iso.readHash(child)
		if err != nil {
			return wire.Value{}, 0, err
		}
		name, err := iso.ClassName(child.ClassID())
		if err != nil {
			return wire.Value{}, 0, err
		}
		var ch heap.Handle
		if wantHandle {
			if ch, err = iso.heap.NewHandle(child, hash); err != nil {
				return wire.Value{}, 0, err
			}
		}
		return wire.Ref(name, hash), ch, nil
	}
}

// StrValue reads a String object.
func (iso *Isolate) StrValue(h heap.Handle) (string, error) {
	b, err := iso.payloadOf(h, ClassIDString)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// BytesValue reads a Bytes object into a slice of its own.
func (iso *Isolate) BytesValue(h heap.Handle) ([]byte, error) {
	b, err := iso.payloadOf(h, ClassIDBytes)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(b), nil
}

// BlobValue reads a Blob object.
func (iso *Isolate) BlobValue(h heap.Handle) (wire.Value, error) {
	b, err := iso.payloadOf(h, ClassIDBlob)
	if err != nil {
		return wire.Value{}, err
	}
	v, _, err := wire.Unmarshal(b)
	if err != nil {
		return wire.Value{}, fmt.Errorf("isolate: corrupt blob: %w", err)
	}
	return v, nil
}

// ListSize returns the number of elements in a List object.
func (iso *Isolate) ListSize(list heap.Handle) (int, error) {
	o, err := iso.listOf(list)
	if err != nil {
		return 0, err
	}
	n, err := iso.readInt(o, hashBytes)
	return int(n), err
}

// ListAdd appends the object behind elem to a List, growing the backing
// array as needed.
func (iso *Isolate) ListAdd(list heap.Handle, elem heap.Handle) error {
	o, err := iso.listOf(list)
	if err != nil {
		return err
	}
	length64, err := iso.readInt(o, hashBytes)
	if err != nil {
		return err
	}
	length := int(length64)
	backing, err := iso.refAt(o, 0)
	if err != nil {
		return err
	}
	if capacity := backing.NumRefs(); length == capacity {
		// Grow: allocate a doubled array (may trigger GC, invalidating
		// every view), then take the views again from handles.
		newArr, err := iso.alloc(ClassIDArray, capacity*2, hashBytes)
		if err != nil {
			return err
		}
		if err := iso.writeHash(newArr, iso.nextHash()); err != nil {
			return err
		}
		if o, err = iso.view(list); err != nil {
			return err
		}
		if backing, err = iso.refAt(o, 0); err != nil {
			return err
		}
		for i := 0; i < length; i++ {
			e, err := iso.refAt(backing, i)
			if err != nil {
				return err
			}
			if err := iso.heap.SetRef(newArr, i, e); err != nil {
				return err
			}
		}
		if err := iso.heap.SetRef(o, 0, newArr); err != nil {
			return err
		}
		backing = newArr
	}
	e, err := iso.view(elem)
	if err != nil {
		return err
	}
	if err := iso.heap.SetRef(backing, length, e); err != nil {
		return err
	}
	return iso.writeInt(o, hashBytes, int64(length+1))
}

// ListGet returns a fresh strong handle to element i (caller owns it),
// with the element's identity hash and class id; all three come from the
// element's one view. A null element returns a zero handle.
func (iso *Isolate) ListGet(list heap.Handle, i int) (heap.Handle, int64, int32, error) {
	backing, err := iso.elementsOf(list, i)
	if err != nil {
		return 0, 0, 0, err
	}
	e, err := iso.refAt(backing, i)
	if err != nil || e.Addr() == 0 {
		return 0, 0, 0, err
	}
	hash, err := iso.readHash(e)
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := iso.heap.NewHandle(e, hash)
	if err != nil {
		return 0, 0, 0, err
	}
	return h, hash, e.ClassID(), nil
}

// ListSet overwrites element i with the object behind elem.
func (iso *Isolate) ListSet(list heap.Handle, i int, elem heap.Handle) error {
	backing, err := iso.elementsOf(list, i)
	if err != nil {
		return err
	}
	var e heap.Obj
	if elem != 0 {
		if e, err = iso.view(elem); err != nil {
			return err
		}
	}
	return iso.heap.SetRef(backing, i, e)
}

// listOf takes the view of a List object.
func (iso *Isolate) listOf(list heap.Handle) (heap.Obj, error) {
	o, err := iso.view(list)
	if err != nil {
		return heap.Obj{}, err
	}
	if cid := o.ClassID(); cid != ClassIDList {
		return heap.Obj{}, fmt.Errorf("%w: want List, got id %d", ErrNotBuiltin, cid)
	}
	return o, nil
}

// elementsOf checks index i against a List's length and returns the view
// of its backing array.
func (iso *Isolate) elementsOf(list heap.Handle, i int) (heap.Obj, error) {
	o, err := iso.listOf(list)
	if err != nil {
		return heap.Obj{}, err
	}
	length, err := iso.readInt(o, hashBytes)
	if err != nil {
		return heap.Obj{}, err
	}
	if i < 0 || int64(i) >= length {
		return heap.Obj{}, fmt.Errorf("%w: %d of %d", ErrIndex, i, length)
	}
	return iso.refAt(o, 0)
}

// refAt takes the view of the object reference slot i of o points at
// (the null view for a null slot).
func (iso *Isolate) refAt(o heap.Obj, i int) (heap.Obj, error) {
	addr, err := iso.heap.GetRef(o, i)
	if err != nil || addr == 0 {
		return heap.Obj{}, err
	}
	return iso.heap.View(addr)
}

// classByID returns the application class with identifier id, or nil.
func (iso *Isolate) classByID(id int32) *classInfo {
	if id < 0 || int(id) >= len(iso.byID) {
		return nil
	}
	return iso.byID[id]
}

// fieldOf takes the view of the object behind h and looks up one of its
// class's declared fields with its layout slot.
func (iso *Isolate) fieldOf(h heap.Handle, field string) (heap.Obj, *classInfo, classmodel.Field, int, error) {
	o, err := iso.view(h)
	if err != nil {
		return heap.Obj{}, nil, classmodel.Field{}, 0, err
	}
	info := iso.classByID(o.ClassID())
	if info == nil {
		return heap.Obj{}, nil, classmodel.Field{}, 0, fmt.Errorf("%w: id %d has no fields", ErrUnknownClass, o.ClassID())
	}
	for i, f := range info.decl.Fields {
		if f.Name == field {
			return o, info, f, info.layout.Slot[i], nil
		}
	}
	return heap.Obj{}, nil, classmodel.Field{}, 0, fmt.Errorf("%w: %s.%s", ErrUnknownField, info.name, field)
}

// payloadOf reads the payload of the builtin data object behind h.
func (iso *Isolate) payloadOf(h heap.Handle, wantClass int32) ([]byte, error) {
	o, err := iso.view(h)
	if err != nil {
		return nil, err
	}
	return iso.dataPayload(o, wantClass)
}

// dataPayload reads the payload of the builtin data object o into buf.
// The bytes are good until the isolate's next call: a caller that keeps
// them copies them (into a string, a decoded value or a slice of its
// own).
func (iso *Isolate) dataPayload(o heap.Obj, wantClass int32) ([]byte, error) {
	if cid := o.ClassID(); cid != wantClass {
		return nil, fmt.Errorf("%w: want id %d, got %d", ErrNotBuiltin, wantClass, cid)
	}
	out := iso.scratch(o.DataBytes() - hashBytes)
	if err := iso.heap.ReadData(o, hashBytes, out); err != nil {
		return nil, err
	}
	return out, nil
}

// scratch returns buf resized to n bytes.
func (iso *Isolate) scratch(n int) []byte {
	if cap(iso.buf) < n {
		iso.buf = make([]byte, n)
	}
	return iso.buf[:n]
}

// staged copies s into buf, to be stored as a payload.
func (iso *Isolate) staged(s string) []byte {
	return append(iso.scratch(len(s))[:0], s...)
}

func (iso *Isolate) writeHash(o heap.Obj, hash int64) error {
	return iso.writeInt(o, 0, hash)
}

func (iso *Isolate) readHash(o heap.Obj) (int64, error) {
	return iso.readInt(o, 0)
}

func (iso *Isolate) writeInt(o heap.Obj, off int, v int64) error {
	binary.LittleEndian.PutUint64(iso.word[:], uint64(v))
	return iso.heap.WriteData(o, off, iso.word[:])
}

func (iso *Isolate) readInt(o heap.Obj, off int) (int64, error) {
	if err := iso.heap.ReadData(o, off, iso.word[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(iso.word[:])), nil
}

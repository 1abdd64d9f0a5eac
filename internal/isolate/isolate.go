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
package isolate

import (
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
	id       int
	heap     *heap.Heap
	nextHash func() int64

	classes map[string]*classInfo
	byID    map[int32]*classInfo

	// word carries one scalar to or from the heap; a buffer local to the
	// caller would escape through the heap's backend on every access.
	word [8]byte
}

// New creates an isolate over h. nextHash supplies identity hashes
// (shared across runtimes so hashes are globally unique, the paper's
// "hashing algorithm like MD5 to minimize hash collisions").
func New(id int, h *heap.Heap, nextHash func() int64) (*Isolate, error) {
	if h == nil {
		return nil, errors.New("isolate: nil heap")
	}
	if nextHash == nil {
		return nil, errors.New("isolate: nil hash source")
	}
	return &Isolate{
		id:       id,
		heap:     h,
		nextHash: nextHash,
		classes:  make(map[string]*classInfo),
		byID:     make(map[int32]*classInfo),
	}, nil
}

// ID returns the isolate identifier.
func (iso *Isolate) ID() int { return iso.id }

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
	iso.byID[id] = info
	return nil
}

// ClassDecl returns the registered declaration of a class.
func (iso *Isolate) ClassDecl(name string) (*classmodel.Class, bool) {
	info, ok := iso.classes[name]
	if !ok {
		return nil, false
	}
	return info.decl, true
}

// NewObject allocates an instance of an application class with the given
// identity hash. Proxy classes have no declared fields, so their
// instances carry only the hash (Listings 2-3).
func (iso *Isolate) NewObject(class string, hash int64) (heap.Handle, error) {
	info, ok := iso.classes[class]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownClass, class)
	}
	addr, err := iso.heap.Alloc(info.id, info.layout.NumRefs, hashBytes+info.layout.DataBytes)
	if err != nil {
		return 0, err
	}
	if err := iso.writeHash(addr, hash); err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(addr)
}

// NewString allocates a String object.
func (iso *Isolate) NewString(s string) (heap.Handle, error) {
	return iso.newDataObject(ClassIDString, []byte(s))
}

// NewBytes allocates a Bytes object.
func (iso *Isolate) NewBytes(b []byte) (heap.Handle, error) {
	return iso.newDataObject(ClassIDBytes, b)
}

// NewBlob allocates a Blob holding one serialized neutral value.
func (iso *Isolate) NewBlob(v wire.Value) (heap.Handle, error) {
	return iso.newDataObject(ClassIDBlob, wire.Marshal(v))
}

// NewList allocates an empty List (growable reference list).
func (iso *Isolate) NewList() (heap.Handle, error) {
	arrAddr, err := iso.heap.Alloc(ClassIDArray, 4, hashBytes)
	if err != nil {
		return 0, err
	}
	if err := iso.writeHash(arrAddr, iso.nextHash()); err != nil {
		return 0, err
	}
	arrHd, err := iso.heap.NewHandle(arrAddr)
	if err != nil {
		return 0, err
	}
	defer func() {
		// The wrapper's ref slot keeps the array alive after this.
		_ = iso.heap.Release(arrHd)
	}()
	listAddr, err := iso.heap.Alloc(ClassIDList, 1, hashBytes+8)
	if err != nil {
		return 0, err
	}
	if err := iso.writeHash(listAddr, iso.nextHash()); err != nil {
		return 0, err
	}
	arrAddr, err = iso.heap.Deref(arrHd)
	if err != nil {
		return 0, err
	}
	if err := iso.heap.SetRef(listAddr, 0, arrAddr); err != nil {
		return 0, err
	}
	if err := iso.writeInt(listAddr, hashBytes, 0); err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(listAddr)
}

// newDataObject allocates a builtin data object: identity hash, then
// payload. The modelled program allocates, stores the hash and — if there
// is one — stores the payload; AllocData charges exactly that while
// encrypting each line once.
func (iso *Isolate) newDataObject(classID int32, payload []byte) (heap.Handle, error) {
	binary.LittleEndian.PutUint64(iso.word[:], uint64(iso.nextHash()))
	parts := [][]byte{iso.word[:], payload}
	if len(payload) == 0 {
		parts = parts[:1] // the modelled program skips an empty store
	}
	addr, err := iso.heap.AllocData(classID, parts...)
	if err != nil {
		return 0, err
	}
	return iso.heap.NewHandle(addr)
}

// HashOf reads an object's identity hash.
func (iso *Isolate) HashOf(h heap.Handle) (int64, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return 0, err
	}
	return iso.readHash(addr)
}

// ClassIDOf returns the class id of the object behind h.
func (iso *Isolate) ClassIDOf(h heap.Handle) (int32, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return 0, err
	}
	return iso.heap.ClassID(addr)
}

// ClassNameOf returns the class name of the object behind h.
func (iso *Isolate) ClassNameOf(h heap.Handle) (string, error) {
	id, err := iso.ClassIDOf(h)
	if err != nil {
		return "", err
	}
	return iso.classNameByID(id)
}

func (iso *Isolate) classNameByID(id int32) (string, error) {
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
	info, ok := iso.byID[id]
	if !ok {
		return "", fmt.Errorf("%w: id %d", ErrUnknownClass, id)
	}
	return info.name, nil
}

// Release drops a strong handle.
func (iso *Isolate) Release(h heap.Handle) error { return iso.heap.Release(h) }

// NewWeak creates a weak reference to the object behind h.
func (iso *Isolate) NewWeak(h heap.Handle) (heap.WeakRef, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return 0, err
	}
	return iso.heap.NewWeak(addr)
}

// HandleAt wraps a raw address in a fresh strong handle. The address must
// be current (no allocation since it was obtained).
func (iso *Isolate) HandleAt(addr heap.Addr) (heap.Handle, error) {
	return iso.heap.NewHandle(addr)
}

// Collect runs a stop-and-copy GC cycle on the isolate heap.
func (iso *Isolate) Collect() error { return iso.heap.Collect() }

// SetFieldScalar writes an int, double or boolean field.
func (iso *Isolate) SetFieldScalar(h heap.Handle, field string, v wire.Value) error {
	info, f, err := iso.fieldOf(h, field)
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
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return err
	}
	return iso.writeInt(addr, hashBytes+info.layout.DataOff[field], int64(raw))
}

// SetFieldData writes a String, byte[] or serialized-value field by
// allocating a fresh child object (the previous child becomes garbage).
func (iso *Isolate) SetFieldData(h heap.Handle, field string, v wire.Value) error {
	info, f, err := iso.fieldOf(h, field)
	if err != nil {
		return err
	}
	var child heap.Handle
	switch f.Kind {
	case classmodel.FieldString:
		s, ok := v.AsStr()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants String, got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		child, err = iso.NewString(s)
	case classmodel.FieldBytes:
		b, ok := v.AsBytes()
		if !ok {
			return fmt.Errorf("%w: %s.%s wants byte[], got %s", ErrKindMismatch, info.name, field, v.Kind())
		}
		child, err = iso.NewBytes(b)
	case classmodel.FieldValue:
		child, err = iso.NewBlob(v)
	default:
		return fmt.Errorf("%w: %s.%s is not a data field", ErrKindMismatch, info.name, field)
	}
	if err != nil {
		return err
	}
	defer func() {
		// The parent's ref slot keeps the child alive from here on.
		_ = iso.heap.Release(child)
	}()
	childAddr, err := iso.heap.Deref(child)
	if err != nil {
		return err
	}
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return err
	}
	return iso.heap.SetRef(addr, info.layout.RefSlot[field], childAddr)
}

// SetFieldRef writes a reference field. target==0 stores null.
func (iso *Isolate) SetFieldRef(h heap.Handle, field string, target heap.Handle) error {
	info, f, err := iso.fieldOf(h, field)
	if err != nil {
		return err
	}
	if f.Kind != classmodel.FieldRef {
		return fmt.Errorf("%w: %s.%s is not a reference field", ErrKindMismatch, info.name, field)
	}
	var targetAddr heap.Addr
	if target != 0 {
		targetAddr, err = iso.heap.Deref(target)
		if err != nil {
			return err
		}
	}
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return err
	}
	return iso.heap.SetRef(addr, info.layout.RefSlot[field], targetAddr)
}

// GetField reads any field as a wire value. Reference fields come back as
// wire.Ref(class, hash) (null if unset); String/byte[]/value fields are
// read out of their child objects.
func (iso *Isolate) GetField(h heap.Handle, field string) (wire.Value, error) {
	info, f, err := iso.fieldOf(h, field)
	if err != nil {
		return wire.Value{}, err
	}
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return wire.Value{}, err
	}
	if !f.Kind.IsRefLike() {
		raw, err := iso.readInt(addr, hashBytes+info.layout.DataOff[field])
		if err != nil {
			return wire.Value{}, err
		}
		switch f.Kind {
		case classmodel.FieldInt:
			return wire.Int(raw), nil
		case classmodel.FieldFloat:
			return wire.Float(math.Float64frombits(uint64(raw))), nil
		default:
			return wire.Bool(raw != 0), nil
		}
	}
	child, err := iso.heap.GetRef(addr, info.layout.RefSlot[field])
	if err != nil {
		return wire.Value{}, err
	}
	if child == 0 {
		return wire.Null(), nil
	}
	switch f.Kind {
	case classmodel.FieldString:
		b, err := iso.dataPayload(child, ClassIDString)
		if err != nil {
			return wire.Value{}, err
		}
		return wire.Str(string(b)), nil
	case classmodel.FieldBytes:
		b, err := iso.dataPayload(child, ClassIDBytes)
		if err != nil {
			return wire.Value{}, err
		}
		return wire.Bytes(b), nil
	case classmodel.FieldValue:
		b, err := iso.dataPayload(child, ClassIDBlob)
		if err != nil {
			return wire.Value{}, err
		}
		v, _, err := wire.Unmarshal(b)
		if err != nil {
			return wire.Value{}, fmt.Errorf("isolate: corrupt blob field %s.%s: %w", info.name, field, err)
		}
		return v, nil
	default: // FieldRef
		hash, err := iso.readHash(child)
		if err != nil {
			return wire.Value{}, err
		}
		cid, err := iso.heap.ClassID(child)
		if err != nil {
			return wire.Value{}, err
		}
		name, err := iso.classNameByID(cid)
		if err != nil {
			return wire.Value{}, err
		}
		return wire.Ref(name, hash), nil
	}
}

// GetFieldRefHandle returns a fresh strong handle to the object a
// reference field points at (0 for null). The caller owns the handle.
func (iso *Isolate) GetFieldRefHandle(h heap.Handle, field string) (heap.Handle, error) {
	info, f, err := iso.fieldOf(h, field)
	if err != nil {
		return 0, err
	}
	if f.Kind != classmodel.FieldRef {
		return 0, fmt.Errorf("%w: %s.%s is not a reference field", ErrKindMismatch, info.name, field)
	}
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return 0, err
	}
	child, err := iso.heap.GetRef(addr, info.layout.RefSlot[field])
	if err != nil {
		return 0, err
	}
	if child == 0 {
		return 0, nil
	}
	return iso.heap.NewHandle(child)
}

// StrValue reads a String object.
func (iso *Isolate) StrValue(h heap.Handle) (string, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return "", err
	}
	b, err := iso.dataPayload(addr, ClassIDString)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// BytesValue reads a Bytes object.
func (iso *Isolate) BytesValue(h heap.Handle) ([]byte, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return nil, err
	}
	return iso.dataPayload(addr, ClassIDBytes)
}

// BlobValue reads a Blob object.
func (iso *Isolate) BlobValue(h heap.Handle) (wire.Value, error) {
	addr, err := iso.heap.Deref(h)
	if err != nil {
		return wire.Value{}, err
	}
	b, err := iso.dataPayload(addr, ClassIDBlob)
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
	addr, err := iso.listAddr(list)
	if err != nil {
		return 0, err
	}
	n, err := iso.readInt(addr, hashBytes)
	return int(n), err
}

// ListAdd appends the object behind elem to a List, growing the backing
// array as needed.
func (iso *Isolate) ListAdd(list heap.Handle, elem heap.Handle) error {
	addr, err := iso.listAddr(list)
	if err != nil {
		return err
	}
	length64, err := iso.readInt(addr, hashBytes)
	if err != nil {
		return err
	}
	length := int(length64)
	backing, err := iso.heap.GetRef(addr, 0)
	if err != nil {
		return err
	}
	capacity, err := iso.heap.NumRefs(backing)
	if err != nil {
		return err
	}
	if length == capacity {
		// Grow: allocate a doubled array (may trigger GC, invalidating
		// raw addresses), then re-derive everything from handles.
		newArr, err := iso.heap.Alloc(ClassIDArray, capacity*2, hashBytes)
		if err != nil {
			return err
		}
		if err := iso.writeHash(newArr, iso.nextHash()); err != nil {
			return err
		}
		addr, err = iso.heap.Deref(list)
		if err != nil {
			return err
		}
		backing, err = iso.heap.GetRef(addr, 0)
		if err != nil {
			return err
		}
		for i := 0; i < length; i++ {
			e, err := iso.heap.GetRef(backing, i)
			if err != nil {
				return err
			}
			if err := iso.heap.SetRef(newArr, i, e); err != nil {
				return err
			}
		}
		if err := iso.heap.SetRef(addr, 0, newArr); err != nil {
			return err
		}
		backing = newArr
	}
	elemAddr, err := iso.heap.Deref(elem)
	if err != nil {
		return err
	}
	if err := iso.heap.SetRef(backing, length, elemAddr); err != nil {
		return err
	}
	return iso.writeInt(addr, hashBytes, int64(length+1))
}

// ListGet returns a fresh strong handle to element i (caller owns it).
func (iso *Isolate) ListGet(list heap.Handle, i int) (heap.Handle, error) {
	addr, err := iso.listAddr(list)
	if err != nil {
		return 0, err
	}
	length, err := iso.readInt(addr, hashBytes)
	if err != nil {
		return 0, err
	}
	if i < 0 || int64(i) >= length {
		return 0, fmt.Errorf("%w: %d of %d", ErrIndex, i, length)
	}
	backing, err := iso.heap.GetRef(addr, 0)
	if err != nil {
		return 0, err
	}
	e, err := iso.heap.GetRef(backing, i)
	if err != nil {
		return 0, err
	}
	if e == 0 {
		return 0, nil
	}
	return iso.heap.NewHandle(e)
}

// ListSet overwrites element i with the object behind elem.
func (iso *Isolate) ListSet(list heap.Handle, i int, elem heap.Handle) error {
	addr, err := iso.listAddr(list)
	if err != nil {
		return err
	}
	length, err := iso.readInt(addr, hashBytes)
	if err != nil {
		return err
	}
	if i < 0 || int64(i) >= length {
		return fmt.Errorf("%w: %d of %d", ErrIndex, i, length)
	}
	backing, err := iso.heap.GetRef(addr, 0)
	if err != nil {
		return err
	}
	var elemAddr heap.Addr
	if elem != 0 {
		elemAddr, err = iso.heap.Deref(elem)
		if err != nil {
			return err
		}
	}
	return iso.heap.SetRef(backing, i, elemAddr)
}

func (iso *Isolate) listAddr(list heap.Handle) (heap.Addr, error) {
	addr, err := iso.heap.Deref(list)
	if err != nil {
		return 0, err
	}
	cid, err := iso.heap.ClassID(addr)
	if err != nil {
		return 0, err
	}
	if cid != ClassIDList {
		return 0, fmt.Errorf("%w: want List, got id %d", ErrNotBuiltin, cid)
	}
	return addr, nil
}

func (iso *Isolate) fieldOf(h heap.Handle, field string) (*classInfo, classmodel.Field, error) {
	id, err := iso.ClassIDOf(h)
	if err != nil {
		return nil, classmodel.Field{}, err
	}
	info, ok := iso.byID[id]
	if !ok {
		return nil, classmodel.Field{}, fmt.Errorf("%w: id %d has no fields", ErrUnknownClass, id)
	}
	f, ok := info.decl.Field(field)
	if !ok {
		return nil, classmodel.Field{}, fmt.Errorf("%w: %s.%s", ErrUnknownField, info.name, field)
	}
	return info, f, nil
}

func (iso *Isolate) dataPayload(addr heap.Addr, wantClass int32) ([]byte, error) {
	cid, err := iso.heap.ClassID(addr)
	if err != nil {
		return nil, err
	}
	if cid != wantClass {
		return nil, fmt.Errorf("%w: want id %d, got %d", ErrNotBuiltin, wantClass, cid)
	}
	size, err := iso.heap.DataBytes(addr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size-hashBytes)
	if err := iso.heap.ReadData(addr, hashBytes, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (iso *Isolate) writeHash(addr heap.Addr, hash int64) error {
	return iso.writeInt(addr, 0, hash)
}

func (iso *Isolate) readHash(addr heap.Addr) (int64, error) {
	return iso.readInt(addr, 0)
}

func (iso *Isolate) writeInt(addr heap.Addr, off int, v int64) error {
	binary.LittleEndian.PutUint64(iso.word[:], uint64(v))
	return iso.heap.WriteData(addr, off, iso.word[:])
}

func (iso *Isolate) readInt(addr heap.Addr, off int) (int64, error) {
	if err := iso.heap.ReadData(addr, off, iso.word[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(iso.word[:])), nil
}

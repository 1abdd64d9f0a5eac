// Package classmodel defines the Java-like program representation that
// Montsalvat's toolchain operates on.
//
// The paper's pipeline (§5) manipulates *program elements* — classes with
// @Trusted/@Untrusted/@Neutral annotations, fields, methods, constructors,
// call sites and allocation sites — rather than JVM bytecode semantics.
// This package models exactly those elements: each class declares typed
// fields and methods; each method carries an executable body (a Go
// function over wire.Values) together with its static call and allocation
// edges, which drive the points-to/reachability analysis of the
// native-image builder (§5.3).
//
// Constructors use the JVM-internal name "<init>"; static class
// initialisers use "<clinit>" and are executed at image build time
// (GraalVM's build-time initialisation, §2.2).
package classmodel

import (
	"errors"
	"fmt"

	"montsalvat/internal/shim"
	"montsalvat/internal/wire"
)

// Method name conventions (JVM-internal names).
const (
	CtorName       = "<init>"
	StaticInitName = "<clinit>"
	MainMethodName = "main"
)

// Annotation is a Montsalvat partitioning annotation (§5.1). Classes that
// are not annotated are neutral by default.
type Annotation int

// The three partitioning annotations.
const (
	Neutral Annotation = iota + 1
	Trusted
	Untrusted
)

func (a Annotation) String() string {
	switch a {
	case Neutral:
		return "@Neutral"
	case Trusted:
		return "@Trusted"
	case Untrusted:
		return "@Untrusted"
	default:
		return fmt.Sprintf("Annotation(%d)", int(a))
	}
}

// FieldKind is the storage category of a field.
type FieldKind int

// Field kinds. Scalars live in the object's data area; strings, byte
// arrays, serialized neutral values and references to annotated classes
// live in reference slots pointing to separate heap objects.
const (
	FieldInt FieldKind = iota + 1
	FieldFloat
	FieldBool
	FieldString
	FieldBytes
	// FieldValue stores an arbitrary serialized neutral value (lists,
	// maps) — the analog of a field holding a neutral utility object.
	FieldValue
	// FieldRef references an instance of an annotated (or neutral)
	// application class; Field.ClassName names the static type.
	FieldRef
)

// IsRefLike reports whether the field occupies a reference slot.
func (k FieldKind) IsRefLike() bool {
	switch k {
	case FieldString, FieldBytes, FieldValue, FieldRef:
		return true
	default:
		return false
	}
}

func (k FieldKind) String() string {
	switch k {
	case FieldInt:
		return "int"
	case FieldFloat:
		return "double"
	case FieldBool:
		return "boolean"
	case FieldString:
		return "String"
	case FieldBytes:
		return "byte[]"
	case FieldValue:
		return "Object"
	case FieldRef:
		return "ref"
	default:
		return "invalid"
	}
}

// Field is a class member field. Montsalvat assumes annotated classes are
// properly encapsulated, i.e. fields are private (§5.1 Assumptions).
type Field struct {
	Name string
	Kind FieldKind
	// ClassName is the static type of a FieldRef field.
	ClassName string
	// Public marks a non-encapsulated field; forbidden on annotated
	// classes by Program.Validate.
	Public bool
}

// MethodRef names a method for call edges.
type MethodRef struct {
	Class  string
	Method string
}

func (r MethodRef) String() string { return r.Class + "." + r.Method }

// Env is the runtime environment available to method bodies: the
// services of the activation a body runs in. The partitioned runtime
// (internal/world) supplies the Activation behind it; bodies observe the
// same behaviour whether they execute inside or outside the enclave —
// only the costs differ.
//
// Env is a value rather than the Activation interface itself so that a
// call's arguments stay off the host heap: New, Call and CallStatic copy
// their variadic arguments into the activation's own storage before they
// reach the interface, through which the compiler would otherwise have
// to assume the argument slice escapes. The three stay small enough to
// inline into the body that calls them.
type Env struct {
	a    Activation
	argv *[EnvArgs]wire.Value
}

// EnvArgs is the longest argument vector an Env copies into its
// activation's storage; a longer one is copied to the host heap.
const EnvArgs = 4

// NewEnv returns the Env of an activation whose argument vectors are
// copied into argv, which must stay the activation's for as long as the
// Env is used.
func NewEnv(a Activation, argv *[EnvArgs]wire.Value) Env { return Env{a, argv} }

// Activation is what an Env runs against. Argument vectors reach New,
// Call and CallStatic in the activation's own storage (NewEnv's argv),
// which the next call overwrites, so neither the activation nor the
// bodies it hands a vector to keep the slice past the call.
type Activation interface {
	New(class string, args []wire.Value) (wire.Value, error)
	Call(recv wire.Value, method string, args []wire.Value) (wire.Value, error)
	CallStatic(class, method string, args []wire.Value) (wire.Value, error)
	GetField(recv wire.Value, field string) (wire.Value, error)
	SetField(recv wire.Value, field string, v wire.Value) error
	MemTouch(n int)
	Trusted() bool
	FS() shim.FS
}

// New instantiates class with the given constructor arguments and
// returns an object reference. Instantiating a class of the opposite
// runtime creates a proxy and performs an enclave transition (§5.2).
func (e Env) New(class string, args ...wire.Value) (wire.Value, error) {
	return e.a.New(class, append(e.argv[:0], args...))
}

// Call invokes an instance method on recv (a ref value). Calls on
// proxies become remote method invocations.
func (e Env) Call(recv wire.Value, method string, args ...wire.Value) (wire.Value, error) {
	return e.a.Call(recv, method, append(e.argv[:0], args...))
}

// CallStatic invokes a static method of a class.
func (e Env) CallStatic(class, method string, args ...wire.Value) (wire.Value, error) {
	return e.a.CallStatic(class, method, append(e.argv[:0], args...))
}

// GetField and SetField access fields of a LOCAL concrete object (per the
// encapsulation assumption, only a class's own methods use them on self).
func (e Env) GetField(recv wire.Value, field string) (wire.Value, error) {
	return e.a.GetField(recv, field)
}

// SetField stores v in a field of a LOCAL concrete object (see GetField).
func (e Env) SetField(recv wire.Value, field string, v wire.Value) error {
	return e.a.SetField(recv, field, v)
}

// MemTouch charges the cost of streaming n bytes of workload data through
// this runtime's memory (enclave traffic pays MEE cost).
func (e Env) MemTouch(n int) { e.a.MemTouch(n) }

// Trusted reports whether the body is executing inside the enclave.
func (e Env) Trusted() bool { return e.a.Trusted() }

// FS returns this runtime's filesystem. Inside the enclave every
// operation is a shim-relayed ocall (§5.4); outside it is direct.
func (e Env) FS() shim.FS { return e.a.FS() }

// Body is the executable implementation of a method. self is a ref value
// for instance methods and null for static methods; args may live in the
// calling activation's storage (see Activation) and is valid until the
// body returns. The returned value must be a wire.Value (use
// wire.Null() for void).
type Body func(env Env, self wire.Value, args []wire.Value) (wire.Value, error)

// Param declares one method parameter.
type Param struct {
	Name string
	Kind wire.Kind
	// ClassName is the static type for KindRef parameters.
	ClassName string
}

// Method is a class method or constructor.
type Method struct {
	Name   string
	Static bool
	Public bool
	Params []Param
	// Returns is the return kind (KindNull for void).
	Returns wire.Kind
	// Body is the executable implementation; nil bodies are permitted
	// only on proxy methods before transformation wiring.
	Body Body
	// Calls and Allocates are the static call and allocation edges used
	// by the points-to analysis (§5.3). They must name every method this
	// body may invoke and every class it may instantiate.
	Calls     []MethodRef
	Allocates []string

	// Relay marks a transformer-generated relay method (§5.2); RelayFor
	// names the concrete method it wraps.
	Relay    bool
	RelayFor string
	// EntryPoint marks the method as a native-image entry point (the
	// @CEntryPoint analog, §5.2): callable from outside the image.
	EntryPoint bool
}

// IsCtor reports whether the method is a constructor.
func (m *Method) IsCtor() bool { return m.Name == CtorName }

// Clone returns a deep copy of the method.
func (m *Method) Clone() *Method {
	cp := *m
	cp.Params = append([]Param(nil), m.Params...)
	cp.Calls = append([]MethodRef(nil), m.Calls...)
	cp.Allocates = append([]string(nil), m.Allocates...)
	return &cp
}

// Class is an application class.
type Class struct {
	Name string
	Ann  Annotation
	// Proxy marks transformer-generated proxy classes (§5.2).
	Proxy bool
	// Fields in declaration order.
	Fields []Field
	// Methods in declaration order; Montsalvat adds relay methods here
	// during transformation.
	Methods []*Method

	methodIndex map[string]int
}

// NewClass creates a class with the given annotation.
func NewClass(name string, ann Annotation) *Class {
	if ann == 0 {
		ann = Neutral
	}
	return &Class{Name: name, Ann: ann, methodIndex: make(map[string]int)}
}

// AddField appends a field declaration.
func (c *Class) AddField(f Field) error {
	for _, existing := range c.Fields {
		if existing.Name == f.Name {
			return fmt.Errorf("classmodel: duplicate field %s.%s", c.Name, f.Name)
		}
	}
	if f.Kind == FieldRef && f.ClassName == "" {
		return fmt.Errorf("classmodel: ref field %s.%s missing class name", c.Name, f.Name)
	}
	c.Fields = append(c.Fields, f)
	return nil
}

// AddMethod appends a method declaration.
func (c *Class) AddMethod(m *Method) error {
	if m == nil || m.Name == "" {
		return fmt.Errorf("classmodel: invalid method on %s", c.Name)
	}
	if _, dup := c.methodIndex[m.Name]; dup {
		return fmt.Errorf("classmodel: duplicate method %s.%s", c.Name, m.Name)
	}
	if m.IsCtor() && m.Static {
		return fmt.Errorf("classmodel: constructor %s.%s cannot be static", c.Name, m.Name)
	}
	if m.Name == StaticInitName && !m.Static {
		return fmt.Errorf("classmodel: %s.%s must be static", c.Name, m.Name)
	}
	c.methodIndex[m.Name] = len(c.Methods)
	c.Methods = append(c.Methods, m)
	return nil
}

// Method looks a method up by name.
func (c *Class) Method(name string) (*Method, bool) {
	i, ok := c.methodIndex[name]
	if !ok {
		return nil, false
	}
	return c.Methods[i], true
}

// Field looks a field up by name.
func (c *Class) Field(name string) (Field, bool) {
	for _, f := range c.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Clone returns a deep copy of the class.
func (c *Class) Clone() *Class {
	cp := NewClass(c.Name, c.Ann)
	cp.Proxy = c.Proxy
	cp.Fields = append([]Field(nil), c.Fields...)
	for _, m := range c.Methods {
		// Clones preserve declaration order; AddMethod cannot fail here
		// because the source class was already consistent.
		if err := cp.AddMethod(m.Clone()); err != nil {
			panic(fmt.Sprintf("classmodel: clone: %v", err))
		}
	}
	return cp
}

// Layout describes how a class's fields map onto a heap object: reference
// slots for ref-like fields, 8-byte data slots for scalars.
type Layout struct {
	// Slot places the class's fields, in declaration order: field i sits
	// in reference slot Slot[i] when it is ref-like, else at byte offset
	// Slot[i] of the data area.
	Slot []int
	// NumRefs and DataBytes size the object.
	NumRefs   int
	DataBytes int
}

// LayoutOf computes the deterministic object layout of a class.
func LayoutOf(c *Class) Layout {
	l := Layout{Slot: make([]int, len(c.Fields))}
	for i, f := range c.Fields {
		if f.Kind.IsRefLike() {
			l.Slot[i] = l.NumRefs
			l.NumRefs++
		} else {
			l.Slot[i] = l.DataBytes
			l.DataBytes += 8
		}
	}
	return l
}

// Program is a closed-world set of classes plus the main entry point.
type Program struct {
	classes map[string]*Class
	order   []string
	// MainClass/MainMethod name the application entry point; the main
	// method is placed in the untrusted image (§5.3).
	MainClass  string
	MainMethod string
}

// NewProgram creates an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class), MainMethod: MainMethodName}
}

// AddClass registers a class.
func (p *Program) AddClass(c *Class) error {
	if c == nil || c.Name == "" {
		return errors.New("classmodel: invalid class")
	}
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("classmodel: duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c.Name)
	return nil
}

// Class looks a class up by name.
func (p *Program) Class(name string) (*Class, bool) {
	c, ok := p.classes[name]
	return c, ok
}

// Classes returns the classes in registration order.
func (p *Program) Classes() []*Class {
	out := make([]*Class, 0, len(p.order))
	for _, name := range p.order {
		out = append(out, p.classes[name])
	}
	return out
}

// Lookup resolves a method reference.
func (p *Program) Lookup(ref MethodRef) (*Class, *Method, bool) {
	c, ok := p.classes[ref.Class]
	if !ok {
		return nil, nil, false
	}
	m, ok := c.Method(ref.Method)
	if !ok {
		return nil, nil, false
	}
	return c, m, true
}

// Validate checks closed-world consistency: the main entry point exists
// and is static, every call and allocation edge resolves, ref fields name
// known classes, and annotated classes are properly encapsulated (§5.1:
// "We assume all annotated classes are properly encapsulated (i.e., class
// fields are private)").
func (p *Program) Validate() error {
	if p.MainClass != "" {
		mc, ok := p.classes[p.MainClass]
		if !ok {
			return fmt.Errorf("classmodel: main class %s not found", p.MainClass)
		}
		mm, ok := mc.Method(p.MainMethod)
		if !ok {
			return fmt.Errorf("classmodel: main method %s.%s not found", p.MainClass, p.MainMethod)
		}
		if !mm.Static {
			return fmt.Errorf("classmodel: main method %s.%s must be static", p.MainClass, p.MainMethod)
		}
	}
	for _, name := range p.order {
		c := p.classes[name]
		if c.Ann != Neutral {
			for _, f := range c.Fields {
				if f.Public {
					return fmt.Errorf("classmodel: %s field %s.%s must be private (encapsulation assumption)", c.Ann, c.Name, f.Name)
				}
			}
		}
		for _, f := range c.Fields {
			if f.Kind == FieldRef {
				if _, ok := p.classes[f.ClassName]; !ok {
					return fmt.Errorf("classmodel: field %s.%s references unknown class %s", c.Name, f.Name, f.ClassName)
				}
			}
		}
		for _, m := range c.Methods {
			for _, call := range m.Calls {
				if _, _, ok := p.Lookup(call); !ok {
					return fmt.Errorf("classmodel: %s.%s calls unresolved %s", c.Name, m.Name, call)
				}
			}
			for _, alloc := range m.Allocates {
				ac, ok := p.classes[alloc]
				if !ok {
					return fmt.Errorf("classmodel: %s.%s allocates unknown class %s", c.Name, m.Name, alloc)
				}
				if _, ok := ac.Method(CtorName); !ok {
					return fmt.Errorf("classmodel: %s.%s allocates %s which has no constructor", c.Name, m.Name, alloc)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	cp := NewProgram()
	cp.MainClass = p.MainClass
	cp.MainMethod = p.MainMethod
	for _, name := range p.order {
		// Cannot fail: names are unique in the source program.
		if err := cp.AddClass(p.classes[name].Clone()); err != nil {
			panic(fmt.Sprintf("classmodel: clone: %v", err))
		}
	}
	return cp
}

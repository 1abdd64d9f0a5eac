// Package edl models the enclave definition language files and edge
// routines that Montsalvat's SGX code generator produces.
//
// The Intel SGX SDK "provides an enclave definition language (EDL) to
// define the enclave's interface, i.e., the set of all ecall and ocall
// routines. An additional tool, Edger8r, generates edge routines using
// the EDL specifications" (paper §2.1). Montsalvat's code generator
// "creates associated EDL files used by the Edger8r tool ... to build
// bridge routines, which marshal the data across the enclave boundary"
// (§5.3).
//
// This package provides the interface model (routines with stable IDs
// used by the runtime's transition dispatch), an EDL renderer, and a C
// stub generator equivalent to the paper's Listing 6.
package edl

import (
	"fmt"
	"sort"
	"strings"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/wire"
)

// Direction distinguishes enclave-entering from enclave-exiting routines.
type Direction int

// Routine directions.
const (
	Ecall Direction = iota + 1
	Ocall
)

func (d Direction) String() string {
	if d == Ecall {
		return "ecall"
	}
	return "ocall"
}

// Routine is one edge routine: the bridge for a relay method.
type Routine struct {
	// ID is the stable dispatch identifier used by the transition layer.
	ID int
	// Name is the generated C symbol, e.g. "ecall_relay_Account__init_".
	Name string
	// Direction is Ecall for trusted relays, Ocall for untrusted relays.
	Direction Direction
	// Class and Method identify the relay method the routine bridges to.
	Class  string
	Method string
	// Params are the relay parameters after the implicit isolate and
	// proxy-hash arguments.
	Params []classmodel.Param
	// ReturnsValue reports whether the bridged method returns a value
	// that must be marshalled back.
	ReturnsValue bool
}

// File is the complete enclave interface: all ecalls and ocalls.
type File struct {
	ecalls []Routine
	ocalls []Routine
	byKey  map[string]Routine
	nextID int
}

// NewFile creates an empty interface description.
func NewFile() *File {
	return &File{byKey: make(map[string]Routine), nextID: 1}
}

// Add registers a routine for a relay method and returns it with its
// assigned ID. Duplicate (direction, class, method) registrations fail.
func (f *File) Add(dir Direction, class, method string, params []classmodel.Param, returnsValue bool) (Routine, error) {
	key := routineKey(dir, class, method)
	if _, dup := f.byKey[key]; dup {
		return Routine{}, fmt.Errorf("edl: duplicate routine %s", key)
	}
	r := Routine{
		ID:           f.nextID,
		Name:         symbolName(dir, class, method),
		Direction:    dir,
		Class:        class,
		Method:       method,
		Params:       append([]classmodel.Param(nil), params...),
		ReturnsValue: returnsValue,
	}
	f.nextID++
	f.byKey[key] = r
	if dir == Ecall {
		f.ecalls = append(f.ecalls, r)
	} else {
		f.ocalls = append(f.ocalls, r)
	}
	return r, nil
}

// Lookup finds the routine bridging to a relay method.
func (f *File) Lookup(dir Direction, class, method string) (Routine, bool) {
	r, ok := f.byKey[routineKey(dir, class, method)]
	return r, ok
}

// Ecalls returns the enclave-entering routines in registration order.
func (f *File) Ecalls() []Routine { return append([]Routine(nil), f.ecalls...) }

// Ocalls returns the enclave-exiting routines in registration order.
func (f *File) Ocalls() []Routine { return append([]Routine(nil), f.ocalls...) }

// Render produces the EDL file text for the interface.
func (f *File) Render() string {
	var sb strings.Builder
	sb.WriteString("enclave {\n")
	sb.WriteString("    trusted {\n")
	for _, r := range f.sorted(f.ecalls) {
		fmt.Fprintf(&sb, "        public %s;\n", signature(r))
	}
	sb.WriteString("    };\n")
	sb.WriteString("    untrusted {\n")
	for _, r := range f.sorted(f.ocalls) {
		fmt.Fprintf(&sb, "        %s;\n", signature(r))
	}
	sb.WriteString("    };\n")
	sb.WriteString("};\n")
	return sb.String()
}

// RenderEdgeC produces the generated C definitions of the transition
// routines (the analog of the paper's Listing 6).
func (f *File) RenderEdgeC() string {
	var sb strings.Builder
	sb.WriteString("/* Generated by the Montsalvat SGX code generator. Do not edit. */\n")
	sb.WriteString("#include \"montsalvat_edge.h\"\n\n")
	for _, r := range f.sorted(append(f.Ecalls(), f.ocalls...)) {
		iso := "getEnclaveIsolate()"
		if r.Direction == Ocall {
			iso = "getHostIsolate()"
		}
		fmt.Fprintf(&sb, "%s {\n", signature(r))
		fmt.Fprintf(&sb, "    Isolate ctx = %s;\n", iso)
		fmt.Fprintf(&sb, "    %s(ctx, hash%s);\n", relaySymbol(r), forwardArgs(r))
		sb.WriteString("}\n\n")
	}
	return sb.String()
}

func (f *File) sorted(rs []Routine) []Routine {
	out := append([]Routine(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func routineKey(dir Direction, class, method string) string {
	return dir.String() + ":" + class + "." + method
}

// symbolName builds a C identifier for the edge routine, mangling the
// JVM-internal method names.
func symbolName(dir Direction, class, method string) string {
	return dir.String() + "_relay_" + mangle(class) + "_" + mangle(method)
}

func relaySymbol(r Routine) string {
	return "relay_" + mangle(r.Class) + "_" + mangle(r.Method)
}

func mangle(s string) string {
	var sb strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			sb.WriteRune(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func signature(r Routine) string {
	ret := "void"
	if r.ReturnsValue {
		ret = "uint64_t"
	}
	params := []string{"int hash"}
	for _, p := range r.Params {
		params = append(params, cType(p.Kind)+" "+p.Name)
	}
	return fmt.Sprintf("%s %s(%s)", ret, r.Name, strings.Join(params, ", "))
}

func forwardArgs(r Routine) string {
	var sb strings.Builder
	for _, p := range r.Params {
		sb.WriteString(", ")
		sb.WriteString(p.Name)
	}
	return sb.String()
}

// cType maps wire kinds to the C types of the generated edge routines.
// Serialized neutral objects cross as buffers ("[user_check] char*"
// semantics; pointers are CCharPointer in the paper's Listings 2-3).
func cType(k wire.Kind) string {
	switch k {
	case wire.KindBool:
		return "int"
	case wire.KindInt:
		return "int64_t"
	case wire.KindFloat:
		return "double"
	case wire.KindString, wire.KindBytes, wire.KindList:
		return "[user_check] const char*"
	case wire.KindRef:
		return "int" // proxy hash
	default:
		return "void*"
	}
}

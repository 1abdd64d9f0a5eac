// Package transform implements Montsalvat's bytecode transformation phase
// (paper §5.2).
//
// Given an annotated program, Partition produces the two class sets of
// §5.3 — T (modified trusted classes + proxies of untrusted classes) and
// U (modified untrusted classes + proxies of trusted classes), each
// unioned with the unchanged neutral classes N — plus the enclave
// interface (EDL) describing every generated ecall/ocall edge routine.
//
// For every public method (including constructors) of an annotated class
// the transformer:
//
//   - adds a static relay method to the concrete class — the @CEntryPoint
//     wrapper that looks the mirror object up in the mirror–proxy registry
//     and invokes the real method (Listing 4);
//   - emits a stripped proxy method in the opposite set whose body is
//     replaced by a native transition routine (Listings 2-3);
//   - registers the matching edge routine in the EDL file (Listing 6).
//
// Like the paper's Javassist weaver, the transformer touches only
// annotated classes: neutral classes are copied through unchanged.
package transform

import (
	"fmt"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/edl"
	"montsalvat/internal/wire"
)

// RelayPrefix prefixes generated relay method names.
const RelayPrefix = "relay$"

// RelayName returns the relay method name for a concrete method.
func RelayName(method string) string { return RelayPrefix + method }

// Report summarises a transformation, mirroring the numbers a build log
// would show.
type Report struct {
	TrustedClasses   int
	UntrustedClasses int
	NeutralClasses   int
	// ProxiesInTrustedSet counts proxies of untrusted classes placed in
	// the trusted set; ProxiesInUntrustedSet is the converse.
	ProxiesInTrustedSet   int
	ProxiesInUntrustedSet int
	// MethodsStripped counts proxy methods whose bodies were replaced by
	// native transitions; RelaysAdded counts generated relay methods.
	MethodsStripped int
	RelaysAdded     int
}

// Result carries the partitioned class sets and the enclave interface.
type Result struct {
	// Trusted is the T ∪ N set used to build the trusted image.
	Trusted *classmodel.Program
	// Untrusted is the U ∪ N set used to build the untrusted image; it
	// retains the application's main entry point (§5.3).
	Untrusted *classmodel.Program
	// Interface is the generated enclave interface (EDL + edge routines).
	Interface *edl.File
	// Report summarises the transformation.
	Report Report
}

// Partition transforms an annotated program into trusted and untrusted
// class sets. The program must validate, and its main class must not be
// trusted: Montsalvat compiles the main entry point into the untrusted
// image (§5.3).
func Partition(p *classmodel.Program) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	if p.MainClass != "" {
		mc, _ := p.Class(p.MainClass)
		if mc.Ann == classmodel.Trusted {
			return nil, fmt.Errorf("transform: main class %s is @Trusted; the main entry point must live in the untrusted image (§5.3)", p.MainClass)
		}
	}

	res := &Result{
		Trusted:   classmodel.NewProgram(),
		Untrusted: classmodel.NewProgram(),
		Interface: edl.NewFile(),
	}
	res.Untrusted.MainClass = p.MainClass
	res.Untrusted.MainMethod = p.MainMethod

	for _, c := range p.Classes() {
		switch c.Ann {
		case classmodel.Trusted:
			res.Report.TrustedClasses++
			concrete, nRelays, err := withRelays(c)
			if err != nil {
				return nil, err
			}
			res.Report.RelaysAdded += nRelays
			if err := res.Trusted.AddClass(concrete); err != nil {
				return nil, err
			}
			proxy, nStripped := proxyOf(c)
			res.Report.MethodsStripped += nStripped
			res.Report.ProxiesInUntrustedSet++
			if err := res.Untrusted.AddClass(proxy); err != nil {
				return nil, err
			}
			if err := registerRoutines(res.Interface, edl.Ecall, c); err != nil {
				return nil, err
			}

		case classmodel.Untrusted:
			res.Report.UntrustedClasses++
			concrete, nRelays, err := withRelays(c)
			if err != nil {
				return nil, err
			}
			res.Report.RelaysAdded += nRelays
			if err := res.Untrusted.AddClass(concrete); err != nil {
				return nil, err
			}
			proxy, nStripped := proxyOf(c)
			res.Report.MethodsStripped += nStripped
			res.Report.ProxiesInTrustedSet++
			if err := res.Trusted.AddClass(proxy); err != nil {
				return nil, err
			}
			if err := registerRoutines(res.Interface, edl.Ocall, c); err != nil {
				return nil, err
			}

		default: // Neutral classes are not changed by the bytecode weaver.
			res.Report.NeutralClasses++
			if err := res.Trusted.AddClass(c.Clone()); err != nil {
				return nil, err
			}
			if err := res.Untrusted.AddClass(c.Clone()); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// relayable reports whether a method gets a relay/proxy pair: public,
// non-generated methods and constructors. Static initializers run at
// image build time and never cross the boundary.
func relayable(m *classmodel.Method) bool {
	return m.Public && !m.Relay && m.Name != classmodel.StaticInitName
}

// withRelays clones a concrete class and injects one relay method per
// public method (Listing 4).
func withRelays(c *classmodel.Class) (*classmodel.Class, int, error) {
	out := c.Clone()
	added := 0
	for _, m := range c.Methods {
		if !relayable(m) {
			continue
		}
		relay := &classmodel.Method{
			Name:       RelayName(m.Name),
			Static:     true,
			Public:     true,
			Relay:      true,
			RelayFor:   m.Name,
			EntryPoint: true,
			// The isolate execution-context parameter is implicit; the
			// proxy hash precedes the forwarded method parameters.
			Params:  append([]classmodel.Param{{Name: "hash", Kind: wire.KindInt}}, m.Params...),
			Returns: m.Returns,
			// Relay bodies are runtime-native: the call edge to the
			// wrapped method keeps it reachable during image build
			// (Fig. 2: relayAccount -> Account ctor -> registry.add).
			Calls: []classmodel.MethodRef{{Class: c.Name, Method: m.Name}},
		}
		if m.IsCtor() {
			relay.Allocates = []string{c.Name}
		}
		if err := out.AddMethod(relay); err != nil {
			return nil, 0, fmt.Errorf("transform: add relay to %s: %w", c.Name, err)
		}
		added++
	}
	return out, added, nil
}

// proxyOf builds the stripped proxy class (Listings 2-3): same public
// surface, no fields (only the implicit identity hash), bodies replaced
// by native transition routines (modelled as nil bodies dispatched by the
// runtime), and no outgoing call or allocation edges — a proxy method's
// code in this image ends at the enclave boundary.
func proxyOf(c *classmodel.Class) (*classmodel.Class, int) {
	proxy := classmodel.NewClass(c.Name, c.Ann)
	proxy.Proxy = true
	stripped := 0
	for _, m := range c.Methods {
		if !relayable(m) {
			continue
		}
		pm := &classmodel.Method{
			Name:    m.Name,
			Static:  m.Static,
			Public:  true,
			Params:  append([]classmodel.Param(nil), m.Params...),
			Returns: m.Returns,
		}
		// AddMethod cannot fail: names were unique on the source class.
		if err := proxy.AddMethod(pm); err != nil {
			panic(fmt.Sprintf("transform: proxy of %s: %v", c.Name, err))
		}
		stripped++
	}
	return proxy, stripped
}

// registerRoutines emits one edge routine per relayable method.
func registerRoutines(f *edl.File, dir edl.Direction, c *classmodel.Class) error {
	for _, m := range c.Methods {
		if !relayable(m) {
			continue
		}
		returnsValue := m.Returns != wire.KindNull && m.Returns != wire.KindInvalid
		if _, err := f.Add(dir, c.Name, RelayName(m.Name), m.Params, returnsValue); err != nil {
			return fmt.Errorf("transform: %w", err)
		}
	}
	return nil
}

// Package pointsto implements the closed-world reachability analysis used
// by the native-image builder.
//
// GraalVM native-image "leverages a points-to analysis approach to find
// all the reachable application methods that are compiled into the final
// native image" (paper §2.2); "points-to analysis starts with all entry
// points and iteratively processes all transitively reachable classes,
// fields and methods" (§5.3). This package is that analysis over the
// classmodel: a worklist fixpoint over declared call and allocation
// edges. Its results drive dead-code elimination — in particular the
// pruning of proxy classes that no reachable method uses (§5.2).
package pointsto

import (
	"fmt"
	"sort"

	"montsalvat/internal/classmodel"
)

// Result is the fixpoint of the reachability analysis.
type Result struct {
	methods       map[classmodel.MethodRef]bool
	instantiated  map[string]bool
	reachableCls  map[string]bool
	entryPoints   []classmodel.MethodRef
	programMethod int // total methods in the analysed program
}

// Analyze computes the reachable closure of the program from the given
// entry points. Every entry point must resolve.
func Analyze(p *classmodel.Program, entryPoints []classmodel.MethodRef) (*Result, error) {
	r := &Result{
		methods:      make(map[classmodel.MethodRef]bool),
		instantiated: make(map[string]bool),
		reachableCls: make(map[string]bool),
		entryPoints:  append([]classmodel.MethodRef(nil), entryPoints...),
	}
	for _, c := range p.Classes() {
		r.programMethod += len(c.Methods)
	}

	var work []classmodel.MethodRef
	pushMethod := func(ref classmodel.MethodRef) {
		if !r.methods[ref] {
			r.methods[ref] = true
			work = append(work, ref)
		}
	}
	markClass := func(name string) error {
		if r.reachableCls[name] {
			return nil
		}
		r.reachableCls[name] = true
		c, ok := p.Class(name)
		if !ok {
			return fmt.Errorf("pointsto: unknown class %s", name)
		}
		// Reaching a class makes its static initializer reachable
		// (GraalVM runs it at build time, §2.2).
		if _, ok := c.Method(classmodel.StaticInitName); ok {
			pushMethod(classmodel.MethodRef{Class: name, Method: classmodel.StaticInitName})
		}
		return nil
	}

	for _, ep := range entryPoints {
		if _, _, ok := p.Lookup(ep); !ok {
			return nil, fmt.Errorf("pointsto: entry point %s not found", ep)
		}
		if err := markClass(ep.Class); err != nil {
			return nil, err
		}
		pushMethod(ep)
	}

	for len(work) > 0 {
		ref := work[len(work)-1]
		work = work[:len(work)-1]
		_, m, ok := p.Lookup(ref)
		if !ok {
			return nil, fmt.Errorf("pointsto: unresolved method %s", ref)
		}
		if err := markClass(ref.Class); err != nil {
			return nil, err
		}
		for _, call := range m.Calls {
			if _, _, ok := p.Lookup(call); !ok {
				return nil, fmt.Errorf("pointsto: %s calls unresolved %s", ref, call)
			}
			if err := markClass(call.Class); err != nil {
				return nil, err
			}
			pushMethod(call)
		}
		for _, alloc := range m.Allocates {
			ac, ok := p.Class(alloc)
			if !ok {
				return nil, fmt.Errorf("pointsto: %s allocates unknown class %s", ref, alloc)
			}
			if err := markClass(alloc); err != nil {
				return nil, err
			}
			if !r.instantiated[alloc] {
				r.instantiated[alloc] = true
				// Instantiation makes the constructor reachable and the
				// classes of reference-typed fields reachable.
				if _, ok := ac.Method(classmodel.CtorName); ok {
					pushMethod(classmodel.MethodRef{Class: alloc, Method: classmodel.CtorName})
				}
				for _, f := range ac.Fields {
					if f.Kind == classmodel.FieldRef {
						if err := markClass(f.ClassName); err != nil {
							return nil, err
						}
					}
				}
			}
		}
	}
	return r, nil
}

// MethodReachable reports whether a method is in the reachable closure.
func (r *Result) MethodReachable(ref classmodel.MethodRef) bool { return r.methods[ref] }

// ClassReachable reports whether a class is referenced by reachable code.
func (r *Result) ClassReachable(name string) bool { return r.reachableCls[name] }

// Classes returns the reachable classes in sorted order.
func (r *Result) Classes() []string {
	out := make([]string, 0, len(r.reachableCls))
	for name := range r.reachableCls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Report summarises the analysis for logs and the CLI.
type Report struct {
	EntryPoints      int
	ReachableMethods int
	TotalMethods     int
	ReachableClasses int
	Instantiated     int
}

// Report returns summary statistics.
func (r *Result) Report() Report {
	return Report{
		EntryPoints:      len(r.entryPoints),
		ReachableMethods: len(r.methods),
		TotalMethods:     r.programMethod,
		ReachableClasses: len(r.reachableCls),
		Instantiated:     len(r.instantiated),
	}
}

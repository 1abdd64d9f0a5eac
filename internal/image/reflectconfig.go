package image

import (
	"fmt"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/pointsto"
)

// Config tunes an image build.
//
// GraalVM native-image makes a closed-world assumption; "to support
// dynamic features such as reflection, the user provides a list of the
// classes, fields, and methods that can be accessed dynamically. Each
// element of this list is then always included in the native image, in
// addition to all classes, fields and methods transitively reachable from
// these elements. This list can be provided through e.g., CLI options,
// programmatically, or a JSON file" (paper §2.2).
type Config struct {
	// ExtraRoots are methods forced into the image (reflection roots):
	// they become additional analysis entry points even when no static
	// call edge reaches them.
	ExtraRoots []classmodel.MethodRef
}

// BuildWithConfig compiles a class set like Build, additionally forcing
// the configured reflection roots into the image.
func BuildWithConfig(kind Kind, prog *classmodel.Program, cfg Config) (*Image, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	entries, err := deriveEntryPoints(kind, prog)
	if err != nil {
		return nil, err
	}
	for _, root := range cfg.ExtraRoots {
		if _, _, ok := prog.Lookup(root); !ok {
			return nil, fmt.Errorf("%w: reflection root %s", ErrClosedWorld, root)
		}
		entries = append(entries, root)
	}
	return finishBuild(kind, prog, entries)
}

// deriveEntryPoints computes the §5.3 entry points of a class set.
func deriveEntryPoints(kind Kind, prog *classmodel.Program) ([]classmodel.MethodRef, error) {
	var entries []classmodel.MethodRef
	for _, c := range prog.Classes() {
		if c.Proxy {
			continue
		}
		for _, m := range c.Methods {
			if m.EntryPoint {
				entries = append(entries, classmodel.MethodRef{Class: c.Name, Method: m.Name})
			}
		}
	}
	if kind == UntrustedImage {
		if prog.MainClass == "" {
			return nil, errMissingMain
		}
		entries = append(entries, classmodel.MethodRef{Class: prog.MainClass, Method: prog.MainMethod})
	} else if prog.MainClass != "" {
		return nil, errTrustedMain
	}
	if len(entries) == 0 {
		return nil, errNoEntryPoints
	}
	return entries, nil
}

// finishBuild runs the analysis and assembles the image.
func finishBuild(kind Kind, prog *classmodel.Program, entries []classmodel.MethodRef) (*Image, error) {
	reach, err := pointsto.Analyze(prog, entries)
	if err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	img := &Image{
		kind:     kind,
		program:  prog,
		reach:    reach,
		classIDs: make(map[string]int32),
		entries:  entries,
	}
	for i, name := range reach.Classes() {
		img.classIDs[name] = int32(i + 1)
	}
	rep := Report{Kind: kind, EntryPoints: len(entries)}
	for _, c := range prog.Classes() {
		rep.TotalClasses++
		rep.TotalMethods += len(c.Methods)
		if reach.ClassReachable(c.Name) {
			rep.ReachableClasses++
			if c.Proxy {
				rep.ProxiesKept++
			}
		} else if c.Proxy {
			rep.ProxiesPruned++
		}
	}
	rep.CompiledMethods = reach.Report().ReachableMethods
	img.report = rep
	img.payload = img.serialize()
	return img, nil
}

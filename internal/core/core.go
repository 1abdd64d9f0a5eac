// Package core is Montsalvat's primary contribution: the end-to-end
// pipeline that turns an annotated application into a running SGX
// application (paper Fig. 1).
//
// The pipeline has four phases:
//
//  1. Code annotation — the input classmodel.Program carries @Trusted /
//     @Untrusted / @Neutral annotations (§5.1).
//  2. Bytecode transformation — transform.Partition splits the program
//     into the T and U class sets, generating proxies, relay methods and
//     the enclave interface (§5.2).
//  3. Native image partitioning — image.Build runs the closed-world
//     points-to analysis on each set and produces the trusted and
//     untrusted images, pruning unreachable proxies (§5.3).
//  4. SGX application creation — world.NewPartitioned creates the
//     enclave, measures and verifies the trusted image, wires the shim
//     library and spawns the runtimes (§5.4).
//
// Unpartitioned deployment (§5.6) — the whole application in one image,
// in or out of the enclave — is supported by BuildUnpartitioned.
package core

import (
	"fmt"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/image"
	"montsalvat/internal/transform"
	"montsalvat/internal/world"
)

// BuildResult carries the artefacts of the build pipeline.
type BuildResult struct {
	// Transform is the bytecode-transformation output (class sets, EDL,
	// report).
	Transform *transform.Result
	// TrustedImage and UntrustedImage are the two native images.
	TrustedImage   *image.Image
	UntrustedImage *image.Image
}

// EDL renders the generated enclave definition language file.
func (r *BuildResult) EDL() string { return r.Transform.Interface.Render() }

// EdgeC renders the generated C edge routines (Listing 6).
func (r *BuildResult) EdgeC() string { return r.Transform.Interface.RenderEdgeC() }

// TCB summarises the trusted computing base of a build — the ablation
// evidence for the paper's shim-vs-LibOS argument (§5.4) and for proxy
// pruning (§5.2).
type TCB struct {
	// TrustedClasses and TrustedMethods count program elements compiled
	// into the enclave image.
	TrustedClasses int
	TrustedMethods int
	// TotalClasses and TotalMethods count the whole application.
	TotalClasses int
	TotalMethods int
	// ProxiesPruned counts proxy classes the points-to analysis removed
	// from the trusted image.
	ProxiesPruned int
}

// TCB computes the trusted-computing-base summary of a build.
func (r *BuildResult) TCB() TCB {
	tRep := r.TrustedImage.Report()
	uRep := r.UntrustedImage.Report()
	return TCB{
		TrustedClasses: tRep.ReachableClasses,
		TrustedMethods: tRep.CompiledMethods,
		TotalClasses:   tRep.TotalClasses + uRep.TotalClasses,
		TotalMethods:   tRep.TotalMethods + uRep.TotalMethods,
		ProxiesPruned:  tRep.ProxiesPruned,
	}
}

// prepare clones the program and registers the builtin neutral classes.
func prepare(prog *classmodel.Program) (*classmodel.Program, error) {
	p := prog.Clone()
	if err := classmodel.AddBuiltins(p); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

// BuildConfig tunes the image-partitioning phase.
type BuildConfig struct {
	// TrustedReflection and UntrustedReflection are reflection roots
	// forced into the respective image (the reflection configuration of
	// §2.2, given programmatically): methods with no static call edge
	// that must stay dynamically invokable.
	TrustedReflection   []classmodel.MethodRef
	UntrustedReflection []classmodel.MethodRef
}

// BuildPartitioned runs phases 2 and 3 of the pipeline.
func BuildPartitioned(prog *classmodel.Program) (*BuildResult, error) {
	return BuildPartitionedConfig(prog, BuildConfig{})
}

// BuildPartitionedConfig is BuildPartitioned with reflection roots.
func BuildPartitionedConfig(prog *classmodel.Program, cfg BuildConfig) (*BuildResult, error) {
	p, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	tr, err := transform.Partition(p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tImg, err := image.BuildWithConfig(image.TrustedImage, tr.Trusted, image.Config{ExtraRoots: cfg.TrustedReflection})
	if err != nil {
		return nil, fmt.Errorf("core: trusted image: %w", err)
	}
	uImg, err := image.BuildWithConfig(image.UntrustedImage, tr.Untrusted, image.Config{ExtraRoots: cfg.UntrustedReflection})
	if err != nil {
		return nil, fmt.Errorf("core: untrusted image: %w", err)
	}
	return &BuildResult{Transform: tr, TrustedImage: tImg, UntrustedImage: uImg}, nil
}

// NewPartitionedWorld runs the full pipeline and returns the running
// world (phase 4) together with the build artefacts.
func NewPartitionedWorld(prog *classmodel.Program, opts world.Options) (*world.World, *BuildResult, error) {
	build, err := BuildPartitioned(prog)
	if err != nil {
		return nil, nil, err
	}
	w, err := world.NewPartitioned(opts, build.TrustedImage, build.UntrustedImage, build.Transform.Interface)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return w, build, nil
}

// BuildUnpartitioned builds the whole (unannotated or annotated — the
// annotations are ignored) application into a single native image
// (§5.6: "Unpartitioned applications do not require annotations, hence no
// bytecode modifications are performed").
func BuildUnpartitioned(prog *classmodel.Program) (*image.Image, error) {
	p, err := prepare(prog)
	if err != nil {
		return nil, err
	}
	img, err := image.Build(image.UntrustedImage, p)
	if err != nil {
		return nil, fmt.Errorf("core: unpartitioned image: %w", err)
	}
	return img, nil
}

// NewUnpartitionedWorld builds a single-image world, inside the enclave
// (§5.6) or without SGX (the NoSGX baseline).
func NewUnpartitionedWorld(prog *classmodel.Program, opts world.Options, inEnclave bool) (*world.World, *image.Image, error) {
	img, err := BuildUnpartitioned(prog)
	if err != nil {
		return nil, nil, err
	}
	w, err := world.NewUnpartitioned(opts, img, inEnclave)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	return w, img, nil
}

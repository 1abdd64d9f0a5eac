// Package montsalvat is a Go reproduction of "Montsalvat: Intel SGX
// Shielding for GraalVM Native Images" (Yuhala et al., Middleware '21).
//
// Montsalvat partitions annotated applications into a trusted part that
// runs inside an (here: simulated) Intel SGX enclave and an untrusted
// part that runs outside, connected by an RMI-like proxy/relay mechanism
// with synchronised garbage collection.
//
// # Quick start
//
//	prog := montsalvat.NewProgram()
//	acct := montsalvat.NewClass("Account", montsalvat.Trusted)
//	// ... declare fields, methods and the untrusted main class ...
//	w, build, err := montsalvat.NewPartitionedWorld(prog, montsalvat.DefaultOptions())
//	if err != nil { ... }
//	defer w.Close()
//	result, err := w.RunMain()
//
// The package re-exports the curated public surface of the internal
// packages: the partitioning language (annotations + program model), the
// build pipeline (transform → native images → SGX application), the
// runtime (worlds, execution environments, statistics), and the
// simulated platform substrates (enclave, filesystem shim).
package montsalvat

import (
	"montsalvat/internal/classmodel"
	"montsalvat/internal/core"
	"montsalvat/internal/heap"
	"montsalvat/internal/image"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
	"montsalvat/internal/world"
)

// Partitioning language (§5.1): class annotations and the program model.
type (
	// Annotation marks a class @Trusted, @Untrusted or @Neutral.
	Annotation = classmodel.Annotation
	// Program is a closed-world set of classes plus the main entry point.
	Program = classmodel.Program
	// Class is an application class declaration.
	Class = classmodel.Class
	// Field declares a class member field.
	Field = classmodel.Field
	// FieldKind is the storage category of a field.
	FieldKind = classmodel.FieldKind
	// Method declares a class method; Body is its implementation.
	Method = classmodel.Method
	// MethodRef names a method for call edges.
	MethodRef = classmodel.MethodRef
	// Param declares a method parameter.
	Param = classmodel.Param
	// Body is an executable method implementation.
	Body = classmodel.Body
	// Env is the runtime interface available to method bodies.
	Env = classmodel.Env
)

// Annotations.
const (
	Neutral   = classmodel.Neutral
	Trusted   = classmodel.Trusted
	Untrusted = classmodel.Untrusted
)

// Field kinds.
const (
	FieldInt    = classmodel.FieldInt
	FieldFloat  = classmodel.FieldFloat
	FieldBool   = classmodel.FieldBool
	FieldString = classmodel.FieldString
	FieldBytes  = classmodel.FieldBytes
	FieldValue  = classmodel.FieldValue
	FieldRef    = classmodel.FieldRef
)

// Method name conventions.
const (
	// CtorName is the constructor method name ("<init>").
	CtorName = classmodel.CtorName
	// StaticInitName is the build-time static initializer ("<clinit>").
	StaticInitName = classmodel.StaticInitName
	// MainMethodName is the application entry point name.
	MainMethodName = classmodel.MainMethodName
)

// NewProgram creates an empty program.
func NewProgram() *Program { return classmodel.NewProgram() }

// NewClass creates a class with the given annotation.
func NewClass(name string, ann Annotation) *Class { return classmodel.NewClass(name, ann) }

// Values crossing the enclave boundary.
type (
	Value = wire.Value
	// Kind identifies a value's dynamic type (method parameter and
	// return declarations).
	Kind = wire.Kind
)

// Value kinds.
const (
	KindNull   = wire.KindNull
	KindBool   = wire.KindBool
	KindInt    = wire.KindInt
	KindFloat  = wire.KindFloat
	KindString = wire.KindString
	KindBytes  = wire.KindBytes
	KindList   = wire.KindList
	KindRef    = wire.KindRef
)

// Value constructors.
var (
	Null  = wire.Null
	Bool  = wire.Bool
	Int   = wire.Int
	Float = wire.Float
	Str   = wire.Str
	Bytes = wire.Bytes
	List  = wire.List
	Ref   = wire.Ref
)

// Build pipeline (§5.2-§5.4).
type (
	// BuildResult carries the transformation output and the two images.
	BuildResult = core.BuildResult
	// Image is one built native image.
	Image = image.Image
	// TCB summarises the trusted computing base of a build.
	TCB = core.TCB
)

// BuildPartitioned runs annotation validation, bytecode transformation
// and native-image partitioning without starting a world.
func BuildPartitioned(prog *Program) (*BuildResult, error) {
	return core.BuildPartitioned(prog)
}

// Runtime (§5.4-§5.6).
type (
	// World hosts a running (possibly partitioned) application.
	World = world.World
	// Options configures a World.
	Options = world.Options
	// Mode is the deployment configuration.
	Mode = world.Mode
	// Stats aggregates runtime statistics.
	Stats = world.Stats
	// HeapConfig sizes an isolate heap.
	HeapConfig = heap.Config
	// PlatformConfig carries the simulated SGX platform parameters.
	PlatformConfig = simcfg.Config
	// FS is the filesystem surface available to applications.
	FS = shim.FS
)

// Deployment modes.
const (
	ModePartitioned      = world.ModePartitioned
	ModeUnpartitionedSGX = world.ModeUnpartitionedSGX
	ModeNoSGX            = world.ModeNoSGX
)

// DefaultOptions returns options with the paper's platform parameters;
// simulated costs are charged on the world's cycle ledger (World.Clock).
func DefaultOptions() Options { return world.DefaultOptions() }

// NewPartitionedWorld runs the full Montsalvat pipeline on an annotated
// program and returns the running world plus the build artefacts.
func NewPartitionedWorld(prog *Program, opts Options) (*World, *BuildResult, error) {
	return core.NewPartitionedWorld(prog, opts)
}

// NewUnpartitionedWorld builds the whole application into a single native
// image running inside the enclave (§5.6) or without SGX.
func NewUnpartitionedWorld(prog *Program, opts Options, inEnclave bool) (*World, *Image, error) {
	w, img, err := core.NewUnpartitionedWorld(prog, opts, inEnclave)
	return w, img, err
}

// NewMemFS returns an in-memory filesystem for hermetic runs.
func NewMemFS() FS { return shim.NewMemFS() }

// NewDirFS returns a filesystem rooted at a host directory.
func NewDirFS(root string) (FS, error) { return shim.NewDirFS(root) }

// Attestation and sealing (§4; SGX SDK facilities).
type (
	// Enclave is the simulated SGX enclave behind a World (World.Enclave).
	Enclave = sgx.Enclave
	// AttestationPlatform issues and verifies enclave quotes.
	AttestationPlatform = sgx.Platform
	// AttestationQuote binds an enclave identity to report data.
	AttestationQuote = sgx.Quote
	// PlatformSecret is the per-machine hardware seal secret.
	PlatformSecret = sgx.PlatformSecret
	// SealPolicy selects the identity sealed data binds to.
	SealPolicy = sgx.SealPolicy
)

// Seal policies.
const (
	// SealToMRENCLAVE binds sealed data to the exact enclave image.
	SealToMRENCLAVE = sgx.SealToMRENCLAVE
	// SealToMRSIGNER binds sealed data to the enclave author.
	SealToMRSIGNER = sgx.SealToMRSIGNER
)

// NewAttestationPlatform creates an attestation platform with a fresh
// attestation key.
func NewAttestationPlatform() (*AttestationPlatform, error) { return sgx.NewPlatform() }

// NewPlatformSecret generates a per-machine seal secret.
func NewPlatformSecret() (PlatformSecret, error) { return sgx.NewPlatformSecret() }

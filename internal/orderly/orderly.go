// Package orderly is an explicit-state model checker for the
// boundary, recovery, and failover state machines (DESIGN.md §16).
//
// The simulator's concurrency tests sample schedules; orderly
// enumerates them. A System adapts one running configuration — a
// partitioned World with its durable manager, a served gateway, or a
// two-shard fabric — to a bounded alphabet of atomic actions (ecall,
// nested ocall, batch flush, ring submit, GC sweep, session
// open/close, checkpoint, group-commit window close, kill/recover,
// kill-shard/promote). The Explorer drives the system through every
// interleaving of that alphabet up to a configurable depth using
// depth-first search with canonical state hashing and iterative
// deepening, asserting machine-checked invariants after every step:
//
//   - no handle crosses session namespaces;
//   - object-table refcounts drain to zero at quiescence;
//   - every acked write survives recovery and is covered by the
//     replica watermark (acked ⇒ durable ∧ replicated);
//   - no crossing proceeds while a recovery drain is in progress;
//   - the failover timeline is always kill → promote-begin →
//     promote-commit → epoch-bump;
//   - the lock hierarchy is never inverted (internal/lockrank shims).
//
// The real system cannot snapshot a World, so backtracking replays:
// every DFS edge rebuilds the configuration from scratch and replays
// the prefix. That is affordable because the systems are built for
// it — shared signers memoize SIGSTRUCTs, prebuilt images are reused
// across boots, and heaps are kept small — so a World reset costs on
// the order of a hundred microseconds.
//
// On violation the failing trace is shrunk to a 1-minimal action
// sequence and printed as a replayable seed
// ("orderly:v1:<config>:<action>,<action>,..."); ReplaySeed runs it
// back deterministically.
package orderly

import (
	"errors"
	"fmt"
	"sort"
)

// Action is one atomic, synchronous step of a System's alphabet. The
// explorer treats Apply as a transition function: it must leave the
// system in a state whose Hash is a deterministic function of the
// action sequence applied since Build. Names appear in seeds and must
// not contain ',' or ':'.
type Action struct {
	Name string
	// Enabled guards the action (nil means always enabled): the
	// explorer only branches on enabled actions, so guards prune the
	// schedule space (recover only fires on a dead enclave, promote
	// only after a kill).
	Enabled func() bool
	// Apply performs the action. A non-nil error is a violation: the
	// action was enabled, so it must either succeed or prove an
	// invariant broken.
	Apply func() error
}

// System adapts one running configuration to the explorer.
type System interface {
	// Alphabet returns the bounded action set, bound to this
	// instance. Action order and names must be identical across
	// instances built by the same Builder (replay depends on it).
	Alphabet() []Action
	// Hash returns the canonical state hash. It must cover exactly
	// the semantically meaningful state — model-tracked contents,
	// durability watermarks, liveness flags, live-object counts — so
	// that commuting interleavings collapse to one state, and it must
	// be deterministic across rebuilds of the same action sequence.
	Hash() uint64
	// Check asserts the cheap global invariants after every step.
	// Expensive invariants (recovery durability audits, quiescence
	// drains) live inside the actions that make them meaningful.
	Check() error
	// Close tears the configuration down; the explorer calls it
	// before every rebuild.
	Close()
}

// Builder constructs a fresh System in its initial state. The
// explorer calls it once per backtrack edge, so it must be cheap and
// deterministic (share signers, images, and programs across builds).
type Builder func() (System, error)

// InvariantError is a machine-checked invariant violation. Invariant
// names the property ("refcount-drain", "acked-durability",
// "lock-hierarchy", ...); the shrinker uses it to keep a candidate
// trace only when it reproduces the same violated property.
type InvariantError struct {
	Invariant string
	Detail    error
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant %s violated: %v", e.Invariant, e.Detail)
}

func (e *InvariantError) Unwrap() error { return e.Detail }

// Violated builds an InvariantError.
func Violated(invariant, format string, args ...any) *InvariantError {
	return &InvariantError{Invariant: invariant, Detail: fmt.Errorf(format, args...)}
}

// invariantName extracts the violated property name, or "" when the
// error is not a typed invariant (any violation then matches).
func invariantName(err error) string {
	var ie *InvariantError
	if errors.As(err, &ie) {
		return ie.Invariant
	}
	return ""
}

// Configs lists the registered system configurations, the first seed
// component.
func Configs() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Config returns the Builder registered under name.
func Config(name string) (Builder, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("orderly: unknown config %q (have %v)", name, Configs())
	}
	return b(), nil
}

// builders maps config name to a builder constructor. Constructors
// (rather than Builders) so each Config call can capture fresh
// per-exploration state while sharing the expensive fixtures.
var builders = map[string]func() Builder{
	"world":   func() Builder { return WorldBuilder(WorldConfig{}) },
	"gateway": func() Builder { return GatewayBuilder(GatewayConfig{}) },
	"fabric":  func() Builder { return FabricBuilder(FabricConfig{}) },
}

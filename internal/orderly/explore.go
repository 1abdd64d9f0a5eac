package orderly

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"montsalvat/internal/lockrank"
)

// Options configures one exploration.
type Options struct {
	// Build constructs the system under test.
	Build Builder
	// MaxDepth is the iterative-deepening target: the explorer runs
	// complete depth-first rounds at depth MinDepth, ..., MaxDepth.
	MaxDepth int
	// MinDepth is the first deepening round (default 1). Setting
	// MinDepth == MaxDepth runs a single direct DFS round — the deep
	// states-bounded passes use it to skip re-exploring the shallow
	// prefix rounds an earlier exhaustive pass already covered.
	MinDepth int
	// States, when set, is a shared distinct-state accumulator:
	// several passes (different depths, lock-check on or off) union
	// their canonical hashes into it, and MaxStates bounds the union.
	States *StateSet
	// MaxStates stops the exploration once this many distinct
	// canonical states have been seen (0 = unbounded).
	MaxStates int
	// Budget bounds wall-clock time (0 = unbounded). The deep bench
	// mode uses it to measure states/sec at a fixed spend.
	Budget time.Duration
	// LockCheck arms the lockrank shims for the duration of the
	// exploration, folding lock-hierarchy inversions into the checked
	// invariants. It taxes every instrumented lock acquisition, so
	// the deepest world sweeps leave it off and a dedicated shallower
	// pass turns it on.
	LockCheck bool
}

// Violation is a falsified invariant with its action trace.
type Violation struct {
	// Trace is the 1-minimal action sequence reproducing the
	// violation (the shrinker's output).
	Trace []string
	// Raw is the trace the explorer originally hit, before shrinking.
	Raw []string
	// Err is the violated invariant.
	Err error
	// ShrinkErr is why Trace is Raw unshrunk, nil when shrinking worked.
	// A violation that does not reproduce on replay (a determinism bug
	// in the system) carries a non-reproducible error here: its seed
	// will not replay either.
	ShrinkErr error
}

// Seed formats the violation's replay seed for config; when shrinking
// failed it adds why, so a seed that does not replay says so.
func (v *Violation) Seed(config string) string {
	seed := FormatSeed(config, v.Trace)
	if v.ShrinkErr != nil {
		seed += " (" + v.ShrinkErr.Error() + ")"
	}
	return seed
}

// Result summarises one exploration.
type Result struct {
	// States is the number of distinct canonical state hashes seen.
	States int
	// Transitions counts frontier action applications (new edges);
	// Replays counts prefix re-applications paid for backtracking;
	// Resets counts system rebuilds.
	Transitions int64
	Replays     int64
	Resets      int64
	// MaxDepth is the deepest fully completed deepening round.
	MaxDepth int
	// Elapsed is wall-clock exploration time.
	Elapsed time.Duration
	// Bounded reports that MaxStates or Budget stopped the
	// exploration before the depth-MaxDepth round completed.
	Bounded bool
	// Violation is the first falsified invariant, nil when every
	// explored interleaving upheld every invariant.
	Violation *Violation
}

// StatesPerSec is the exploration rate the deep bench mode records.
func (r *Result) StatesPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.States) / r.Elapsed.Seconds()
}

// StateSet is a concurrency-safe set of canonical state hashes shared
// across exploration passes.
type StateSet struct {
	mu sync.Mutex
	m  map[uint64]struct{}
}

// NewStateSet returns an empty set.
func NewStateSet() *StateSet {
	return &StateSet{m: make(map[uint64]struct{})}
}

// Add records a canonical hash.
func (s *StateSet) Add(h uint64) {
	s.mu.Lock()
	s.m[h] = struct{}{}
	s.mu.Unlock()
}

// Len reports the number of distinct hashes recorded.
func (s *StateSet) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// errStop unwinds the DFS when a bound (states, budget) is reached.
var errStop = errors.New("orderly: exploration bound reached")

// violationErr unwinds the DFS carrying the falsified invariant.
type violationErr struct{ v *Violation }

func (e *violationErr) Error() string { return e.v.Err.Error() }

// Explore enumerates every interleaving of the system's enabled
// actions up to MaxDepth, checking invariants after each step. On
// violation the trace is shrunk to a 1-minimal reproduction before
// returning. A non-nil error reports an exploration malfunction
// (build failure, replay divergence), not a violation.
func Explore(opts Options) (*Result, error) {
	if opts.Build == nil {
		return nil, errors.New("orderly: Options.Build is required")
	}
	if opts.MaxDepth <= 0 {
		return nil, errors.New("orderly: Options.MaxDepth must be positive")
	}
	if opts.MinDepth > opts.MaxDepth {
		return nil, errors.New("orderly: Options.MinDepth exceeds MaxDepth")
	}
	if opts.LockCheck {
		defer lockrank.Enable()()
	}
	states := opts.States
	if states == nil {
		states = NewStateSet()
	}
	e := &explorer{
		opts:   opts,
		states: states,
		res:    &Result{},
	}
	if opts.Budget > 0 {
		e.deadline = time.Now().Add(opts.Budget)
	}
	start := time.Now()
	err := e.run()
	e.res.Elapsed = time.Since(start)
	e.res.States = e.states.Len()
	if e.sys != nil {
		e.sys.Close()
		e.sys = nil
	}
	var verr *violationErr
	switch {
	case err == nil || errors.Is(err, errStop):
		// Exhausted or bounded: res already says which.
	case errors.As(err, &verr):
		v := verr.v
		shrunk, serr := Shrink(opts.Build, v.Raw, opts.LockCheck)
		if serr != nil {
			// The violation stands even if shrinking misbehaved; fall
			// back to the raw trace and keep the reason with it.
			shrunk = append([]string(nil), v.Raw...)
			v.ShrinkErr = serr
		}
		v.Trace = shrunk
		e.res.Violation = v
	default:
		return nil, err
	}
	return e.res, nil
}

// explorer is the DFS state machine. The system cannot snapshot, so
// the invariant maintained throughout is positional: on entry to
// dfs() the live system sits exactly at the state reached by applying
// e.trace from a fresh build, unless dirty is set, in which case the
// next step rebuilds and replays the prefix first.
type explorer struct {
	opts     Options
	sys      System
	acts     []Action
	trace    []int
	visited  map[uint64]int // canonical hash -> shallowest depth seen this round
	states   *StateSet
	dirty    bool
	deadline time.Time
	res      *Result
}

func (e *explorer) run() error {
	first := e.opts.MinDepth
	if first < 1 {
		first = 1
	}
	for depth := first; depth <= e.opts.MaxDepth; depth++ {
		// Fresh visited map per round: a state first reached at depth
		// d in round d must be re-expanded in round d+1, where its
		// successors fit.
		e.visited = make(map[uint64]int)
		e.trace = e.trace[:0]
		if err := e.rebuild(); err != nil {
			return err
		}
		e.dirty = false
		if err := e.dfs(depth); err != nil {
			if errors.Is(err, errStop) {
				e.res.Bounded = true
				return err
			}
			return err
		}
		e.res.MaxDepth = depth
	}
	return nil
}

// rebuild tears down the live system and replays e.trace from a
// fresh build, restoring the DFS position.
func (e *explorer) rebuild() error {
	if e.sys != nil {
		e.sys.Close()
		e.sys = nil
	}
	sys, err := e.opts.Build()
	if err != nil {
		return fmt.Errorf("orderly: build: %w", err)
	}
	e.sys = sys
	e.acts = sys.Alphabet()
	e.res.Resets++
	for step, ai := range e.trace {
		a := e.acts[ai]
		if a.Enabled != nil && !a.Enabled() {
			return fmt.Errorf("orderly: replay divergence at step %d: action %s no longer enabled", step, a.Name)
		}
		if err := a.Apply(); err != nil {
			return fmt.Errorf("orderly: replay divergence at step %d: action %s failed: %w", step, a.Name, err)
		}
		e.res.Replays++
	}
	return nil
}

// atNode restores the live system to the state of the current DFS
// node if a child excursion left it elsewhere.
func (e *explorer) atNode() error {
	if !e.dirty {
		return nil
	}
	if err := e.rebuild(); err != nil {
		return err
	}
	e.dirty = false
	return nil
}

func (e *explorer) dfs(remaining int) error {
	if remaining == 0 {
		return nil
	}
	if e.opts.MaxStates > 0 && e.states.Len() >= e.opts.MaxStates {
		return errStop
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return errStop
	}
	if err := e.atNode(); err != nil {
		return err
	}
	// Snapshot enabledness at the node: guards are pure state
	// predicates, so the set is identical after any replay back to
	// this node.
	enabled := make([]bool, len(e.acts))
	for i, a := range e.acts {
		enabled[i] = a.Enabled == nil || a.Enabled()
	}
	for i := range e.acts {
		if !enabled[i] {
			continue
		}
		if err := e.atNode(); err != nil {
			return err
		}
		a := e.acts[i]
		if err := a.Apply(); err != nil {
			return e.violation(i, wrapActionErr(a.Name, err))
		}
		e.dirty = true // live system is now one step past the node
		e.res.Transitions++
		if err := e.postStepCheck(); err != nil {
			return e.violation(i, err)
		}
		h := e.sys.Hash()
		e.states.Add(h)
		depth := len(e.trace) + 1
		if prev, seen := e.visited[h]; !seen || depth < prev {
			e.visited[h] = depth
			e.trace = append(e.trace, i)
			e.dirty = false // child state is the new node state
			err := e.dfs(remaining - 1)
			e.trace = e.trace[:len(e.trace)-1]
			e.dirty = true
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// postStepCheck runs the system's invariant check and folds in any
// lock-hierarchy inversions the shims recorded during the step.
func (e *explorer) postStepCheck() error {
	if err := e.sys.Check(); err != nil {
		return err
	}
	if e.opts.LockCheck {
		if vs := lockrank.TakeViolations(); len(vs) > 0 {
			return Violated("lock-hierarchy", "%s", vs[0])
		}
	}
	return nil
}

// violation wraps the falsified invariant with the trace that reached
// it (the current prefix plus the violating action).
func (e *explorer) violation(act int, err error) error {
	raw := make([]string, 0, len(e.trace)+1)
	for _, ai := range e.trace {
		raw = append(raw, e.acts[ai].Name)
	}
	raw = append(raw, e.acts[act].Name)
	return &violationErr{v: &Violation{Raw: raw, Err: err}}
}

// wrapActionErr types an action failure as a violation: an enabled
// action must succeed. Crash-injection errors surface through the
// actions that arm them, which convert the expected crash into a
// state change rather than returning it.
func wrapActionErr(name string, err error) error {
	if invariantName(err) != "" {
		return err
	}
	return &InvariantError{Invariant: "action:" + name, Detail: err}
}

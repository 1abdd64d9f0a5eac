package orderly

import (
	"errors"
	"fmt"
	"strings"
)

// Seeds name a reproducible exploration outcome:
//
//	orderly:v1:<config>:<action>,<action>,...
//
// The config component selects a registered Builder; the trace is the
// comma-separated action-name sequence. Violations print as seeds so
// a failure in CI replays locally with one command, and the
// regression corpus (internal/orderly/testdata/corpus) is a directory
// of seed files replayed by `go test`.

const seedPrefix = "orderly:v1:"

// ErrBadSeed reports a seed that does not parse. Every ParseSeed
// failure wraps it: a seed is pasted in from a CI log or read from the
// corpus, so malformed input is expected, never a panic.
var ErrBadSeed = errors.New("orderly: malformed seed")

// FormatSeed renders a replayable seed.
func FormatSeed(config string, trace []string) string {
	return seedPrefix + config + ":" + strings.Join(trace, ",")
}

// ParseSeed splits a seed into its config name and action trace.
func ParseSeed(seed string) (config string, trace []string, err error) {
	body, ok := strings.CutPrefix(strings.TrimSpace(seed), seedPrefix)
	if !ok {
		return "", nil, fmt.Errorf("%w %q: want prefix %q", ErrBadSeed, seed, seedPrefix)
	}
	config, rest, ok := strings.Cut(body, ":")
	if !ok || config == "" {
		return "", nil, fmt.Errorf("%w %q: want %s<config>:<actions>", ErrBadSeed, seed, seedPrefix)
	}
	if rest == "" {
		return config, nil, nil
	}
	for _, name := range strings.Split(rest, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return "", nil, fmt.Errorf("%w %q: empty action name", ErrBadSeed, seed)
		}
		trace = append(trace, name)
	}
	return config, trace, nil
}

// ReplayReport is the outcome of replaying one seed.
type ReplayReport struct {
	Config string
	Trace  []string
	// Hashes is the canonical state hash after each applied step.
	Hashes []uint64
	// Violation is non-nil when the replay falsified an invariant.
	Violation *Violation
}

// ReplaySeed parses a seed, builds its registered configuration, and
// replays the trace with invariant checking (lock shims armed). An
// action disabled mid-trace is an error: a published seed must apply
// in full or pin a violation.
func ReplaySeed(seed string) (*ReplayReport, error) {
	config, trace, err := ParseSeed(seed)
	if err != nil {
		return nil, err
	}
	build, err := Config(config)
	if err != nil {
		return nil, err
	}
	out, err := replayNames(build, trace, true)
	if err != nil {
		return nil, err
	}
	if out.DisabledAt >= 0 {
		return nil, fmt.Errorf("orderly: seed %q: action %q disabled at step %d",
			seed, trace[out.DisabledAt], out.DisabledAt)
	}
	return &ReplayReport{
		Config:    config,
		Trace:     trace,
		Hashes:    out.Hashes,
		Violation: out.Violation,
	}, nil
}

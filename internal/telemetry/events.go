package telemetry

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// EventType classifies a structured journal event. The taxonomy covers
// the protocol steps an operator (or the planned orderliness harness)
// needs to reconstruct a failover or recovery timeline.
type EventType string

const (
	EventSessionOpen    EventType = "session-open"    // gateway handshake completed
	EventSessionClose   EventType = "session-close"   // session torn down
	EventDrain          EventType = "drain"           // gateway drain began
	EventRedirect       EventType = "redirect"        // wrong-shard redirect issued
	EventKill           EventType = "kill"            // shard enclave killed
	EventShip           EventType = "ship"            // checkpoint/WAL delta shipped
	EventCheckpoint     EventType = "checkpoint"      // durable checkpoint committed
	EventPromoteBegin   EventType = "promote-begin"   // replica promotion started
	EventPromoteCommit  EventType = "promote-commit"  // promotion installed new primary
	EventEpochBump      EventType = "epoch-bump"      // fabric table epoch advanced
	EventRecoveryReplay EventType = "recovery-replay" // WAL replay finished
	EventCounterAdvance EventType = "counter-advance" // monotonic counter incremented
)

// Event is one entry in the structured journal. Seq is strictly
// monotonic across every emitter sharing the log — it, not TimeNS, is
// the ordering authority (wall clocks on one host still tie).
type Event struct {
	Seq     uint64    `json:"seq"`
	TimeNS  int64     `json:"time_ns"`
	Type    EventType `json:"type"`
	Node    string    `json:"node,omitempty"`
	TraceID uint64    `json:"trace_id,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// EventLog is a fixed-size lock-free ring of typed events. One atomic
// sequence both orders events and picks slots, so writers never block
// and Seq is strictly monotonic; old events are overwritten on
// wraparound. A nil *EventLog discards emissions after one branch —
// the disabled path never formats, allocates, or touches the simulated
// clock.
type EventLog struct {
	ring []atomic.Pointer[Event]
	seq  atomic.Uint64
}

// NewEventLog builds a journal retaining the last buffer events
// (default 1024).
func NewEventLog(buffer int) *EventLog {
	if buffer <= 0 {
		buffer = 1024
	}
	return &EventLog{ring: make([]atomic.Pointer[Event], buffer)}
}

// Emit appends one event. The nil check precedes all formatting so a
// disabled journal costs one branch. traceID 0 means "no trace".
func (l *EventLog) Emit(typ EventType, node string, traceID uint64, format string, args ...any) {
	if l == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	ev := &Event{
		Seq:     l.seq.Add(1),
		TimeNS:  time.Now().UnixNano(),
		Type:    typ,
		Node:    node,
		TraceID: traceID,
		Detail:  detail,
	}
	l.ring[(ev.Seq-1)%uint64(len(l.ring))].Store(ev)
}

// Dump returns the retained events ordered by Seq (best effort under
// concurrent emission). The returned events are copies.
func (l *EventLog) Dump() []Event {
	if l == nil {
		return nil
	}
	n := uint64(len(l.ring))
	head := l.seq.Load()
	start := uint64(0)
	if head > n {
		start = head - n
	}
	out := make([]Event, 0, n)
	for i := start; i < head; i++ {
		if ev := l.ring[i%n].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	// Slots can be overwritten between Load calls under concurrent
	// emission; re-sort so the ordering contract holds regardless.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Line renders one timeline line: "000042 +12.345ms promote-commit
// shard-3 [trace 7] detail...". Offsets are relative to baseNS.
func (ev Event) Line(baseNS int64) string {
	off := time.Duration(ev.TimeNS - baseNS)
	s := fmt.Sprintf("%06d %+12s %-16s %-18s", ev.Seq, off.Round(time.Microsecond), ev.Type, ev.Node)
	if ev.TraceID != 0 {
		s += fmt.Sprintf(" [trace %d]", ev.TraceID)
	}
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	return s
}

package world

import (
	"errors"
	"slices"
)

// ErrLaneClosed is returned by ExecSpan for a lane that was closed.
var ErrLaneClosed = errors.New("world: lane closed")

// Lane is an enclave residency a gateway worker takes once and keeps for
// its lifetime: the two-way mailbox of the paper's §7 switchless calls.
// A frame run on a lane (ExecSpan) hands its calls into the enclave to
// that in-enclave thread (sgx.Enclave.Switchless) instead of paying a
// full ecall, and the ocalls they make to the worker, which polls for
// the result meanwhile (sgx.Enclave.SwitchlessOcall), instead of a full
// exit; MEE traffic and marshalling are unchanged. Like ring consumers,
// lanes belong to the generation: Kill releases their TCS slots and
// Restart re-enters every open lane.
type Lane struct {
	w *World
	// leave releases the residency in the current generation; nil while
	// the world is killed and once the lane is closed (w.stateMu).
	leave func()
}

// OpenLanes enters up to n lanes, as many as the TCS budget allows: the
// ring consumers' slots and a spare one — for sweeps, session teardown,
// recovery and trusted Exec — are never taken.
// It holds the world's state lock while it waits for the slots, so it
// belongs at set-up, as in serve.New and in persist's recovery passes,
// which run before the store serves. ErrWrongRuntime when the world is
// not a live partitioned one.
func (w *World) OpenLanes(n int) ([]*Lane, error) {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.mode != ModePartitioned || w.killed {
		return nil, ErrWrongRuntime
	}
	// Open lanes, the spare and the ring consumers'.
	reserved := len(w.lanes) + 1 + w.erings.Workers()
	lanes := make([]*Lane, max(0, min(n, w.enclave.TCSCap()-reserved)))
	for i := range lanes {
		leave, err := w.enclave.EnterResident()
		if err != nil {
			return nil, err // a destroyed enclave: its slots no longer matter
		}
		lanes[i] = &Lane{w: w, leave: leave}
	}
	w.lanes = append(w.lanes, lanes...)
	return lanes, nil
}

// leaveLocked releases the lane's residency, if any; w.stateMu is held.
func (l *Lane) leaveLocked() {
	if l.leave != nil {
		l.leave()
		l.leave = nil
	}
}

// Close releases the lane's TCS slot and retires it: Restart no longer
// re-enters it, and ExecSpan refuses it with ErrLaneClosed. Idempotent.
func (l *Lane) Close() {
	l.w.stateMu.Lock()
	defer l.w.stateMu.Unlock()
	l.leaveLocked()
	l.w.lanes = slices.DeleteFunc(l.w.lanes, func(o *Lane) bool { return o == l })
}

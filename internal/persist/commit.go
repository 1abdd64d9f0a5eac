package persist

import (
	"fmt"
	"runtime"
)

// The commit protocol (DESIGN.md §10) — the only way a mutation reaches
// the log. Every durable mutation has three fixed costs: one AES-GCM
// seal, one segment append, and — amortised across checkpoints — one
// counter advance. Concurrent Append callers share them: one caller
// (the leader) seals a whole group of mutations into a single WAL
// frame and hands every member its LSN.
//
//  1. A caller that finds no leader becomes one. It holds its own
//     mutation on its own stack — no request, no channel, no parking —
//     yields the processor once so runnable writers reach the queue (a
//     cooperative window: batching without timer latency), then commits
//     its mutation together with whatever queued behind it.
//  2. A caller that finds a leader parks its mutation on the queue and
//     blocks until the leader delivers its LSN.
//  3. The leader keeps draining, up to groupMaxRecords / groupMaxBytes
//     per frame, until the queue is empty, then resigns.
//
// Alone, a caller pays two uncontended queue-lock round trips and one
// yield over the bare seal + append; under load the fixed costs divide
// by the group size. A caller's Append returns only after its record is
// sealed and appended, and a crash anywhere in the protocol fails every
// member of the group.
const (
	// groupMaxRecords bounds one frame's record count.
	groupMaxRecords = 64
	// groupMaxBytes bounds one frame's key+value payload (a frame always
	// carries at least one record).
	groupMaxBytes = 256 << 10
)

// commitResult is what a parked member gets back from its leader.
type commitResult struct {
	lsn uint64
	err error
}

// commitReq is one mutation awaiting commit. done is nil for the
// leader's own mutation and for mutations enqueued through GroupEnqueue:
// nobody is parked on those.
type commitReq struct {
	op    Op
	state string
	key   string
	value []byte
	done  chan commitResult
}

// Append journals one mutation against the named state and returns
// its LSN. The record is durable (sealed and written to the active
// segment) when Append returns; the caller acks its client only after
// that. Mutations must be applied to the in-enclave state by the
// caller — the journal does not echo them back outside recovery.
//
// Concurrent callers' records may land in one sealed frame; the call
// parks while another caller's leadership term commits it.
func (m *Manager) Append(state string, op Op, key string, value []byte) (uint64, error) {
	m.qmu.Lock()
	if m.leading {
		done := make(chan commitResult, 1)
		m.pending = append(m.pending, commitReq{op: op, state: state, key: key, value: value, done: done})
		m.qmu.Unlock()
		res := <-done
		return res.lsn, res.err
	}
	m.leading = true
	m.qmu.Unlock()
	runtime.Gosched()
	m.qmu.Lock()
	batch := m.fillLocked(append(m.batch[:0], commitReq{op: op, state: state, key: key, value: value}))
	m.qmu.Unlock()
	lsn, err := m.commit(batch)
	m.drain()
	return lsn, err
}

// drain finishes a leadership term: it commits the queue frame by frame
// until it is empty, then resigns. The caller has set m.leading. It
// returns the number of records committed and the first commit error
// (already delivered to that frame's parked members).
func (m *Manager) drain() (committed int, err error) {
	for {
		m.qmu.Lock()
		batch := m.fillLocked(m.batch[:0])
		if len(batch) == 0 {
			m.leading = false
			m.qmu.Unlock()
			return committed, err
		}
		m.qmu.Unlock()
		if _, cerr := m.commit(batch); cerr == nil {
			committed += len(batch)
		} else if err == nil {
			err = cerr
		}
	}
}

// commit journals one group under m.mu and wakes its parked members,
// returning the first member's LSN. batch is the leader's m.batch
// buffer; it is handed back emptied.
func (m *Manager) commit(batch []commitReq) (uint64, error) {
	m.mu.Lock()
	base, err := m.commitLocked(batch)
	m.mu.Unlock()
	for i, req := range batch {
		if req.done != nil {
			req.done <- commitResult{lsn: base + uint64(i), err: err}
		}
	}
	clear(batch) // drop the key/value references
	m.batch = batch[:0]
	return base, err
}

// fillLocked moves queued mutations onto batch (which may already hold
// the leader's own) up to the frame bounds. Caller holds m.qmu and the
// leadership, which owns the m.batch buffer.
func (m *Manager) fillLocked(batch []commitReq) []commitReq {
	bytes := 0
	for _, req := range batch {
		bytes += len(req.key) + len(req.value)
	}
	n := 0
	for n < len(m.pending) && len(batch) < groupMaxRecords && (len(batch) == 0 || bytes < groupMaxBytes) {
		bytes += len(m.pending[n].key) + len(m.pending[n].value)
		batch = append(batch, m.pending[n])
		n++
	}
	rest := copy(m.pending, m.pending[n:])
	clear(m.pending[rest:])
	m.pending = m.pending[:rest]
	return batch
}

// commitLocked validates, seals, and appends one group as a single WAL
// frame, returning the first member's LSN (members are consecutive).
// Caller holds m.mu. On error nothing was acked: the whole group fails
// together (for CrashAfterAppend the frame is durable — recovery may
// surface the group even though every member saw an error).
func (m *Manager) commitLocked(batch []commitReq) (uint64, error) {
	if !m.recovered {
		return 0, ErrNotRecovered
	}
	for _, req := range batch {
		if _, ok := m.byName[req.state]; !ok {
			return 0, fmt.Errorf("persist: append to unregistered state %q", req.state)
		}
	}
	if err := m.injector.hit(CrashBeforeAppend); err != nil {
		return 0, err
	}
	base := m.nextLSN
	recs := m.recs[:0]
	payload := 0
	for i, req := range batch {
		recs = append(recs, Record{LSN: base + uint64(i), Op: req.op, State: req.state, Key: req.key, Value: req.value})
		payload += len(req.key) + len(req.value)
	}
	err := m.appendFrame(recs)
	clear(recs)
	m.recs = recs[:0]
	if err != nil {
		return 0, err
	}
	n := uint64(len(batch))
	m.stats.Appends += n
	m.stats.AppendedBytes += uint64(payload)
	m.stats.LastLSN = base + n - 1
	m.stats.GroupCommits++
	m.stats.GroupedRecords += n
	if err := m.injector.hit(CrashAfterAppend); err != nil {
		return 0, err
	}
	m.nextLSN += n
	m.sinceCkpt += len(batch)
	if m.ckptEvery > 0 && m.sinceCkpt >= m.ckptEvery {
		if err := m.checkpointLocked(); err != nil {
			return 0, err
		}
	} else if m.curSize >= m.segBytes {
		if err := m.openSegment(m.curSeq+1, m.epoch, m.nextLSN); err != nil {
			return 0, err
		}
	}
	return base, nil
}

// GroupEnqueue parks one mutation on the commit queue without electing
// a leader or blocking: the caller holds no durability promise for it
// until a later GroupFlush (or a concurrent Append's leadership term)
// commits the frame it lands in. This is the explorable half of the
// commit protocol — a deterministic driver enqueues writes and closes
// the window as two separate, synchronous actions, so every
// interleaving of "mutation enqueued" and "window closed" is a distinct
// schedule rather than a race inside Append.
func (m *Manager) GroupEnqueue(state string, op Op, key string, value []byte) {
	m.qmu.Lock()
	m.pending = append(m.pending, commitReq{op: op, state: state, key: key, value: value})
	m.qmu.Unlock()
}

// GroupFlush synchronously closes the commit window: it runs one
// leadership term on the caller's goroutine, draining the whole queue,
// and returns the number of records committed and the first commit
// error (that group's members saw the same error). If a concurrent
// Append caller is already leading, the queue belongs to that leader
// and GroupFlush returns without stealing it.
func (m *Manager) GroupFlush() (int, error) {
	m.qmu.Lock()
	if m.leading {
		m.qmu.Unlock()
		return 0, nil
	}
	m.leading = true
	m.qmu.Unlock()
	return m.drain()
}

// GroupPending reports the number of enqueued-but-uncommitted
// mutations on the commit queue.
func (m *Manager) GroupPending() int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.pending)
}

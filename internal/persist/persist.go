package persist

import (
	"errors"
	"fmt"
	"time"

	"montsalvat/internal/lockrank"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/telemetry"
)

// Lifecycle errors.
var (
	// ErrNotRecovered reports use of a Manager before Recover: the log
	// position is unknown until recovery establishes it.
	ErrNotRecovered = errors.New("persist: manager not recovered")
)

// Options configures a Manager.
type Options struct {
	// FS is the untrusted storage the log and checkpoints live on.
	FS shim.FS
	// Enclave is the sealing identity. Blobs are sealed to MRSIGNER, so
	// a re-created (or upgraded) enclave signed by the same author can
	// recover state sealed by its predecessor.
	Enclave *sgx.Enclave
	// Secret is the platform secret (EGETKEY input).
	Secret sgx.PlatformSecret
	// Counter is the rollback-protection monotonic counter.
	Counter *sgx.MonotonicCounter
	// Dir prefixes every file name (e.g. "persist/").
	Dir string
	// SegmentBytes rotates the active segment when it grows past this
	// size. Default 256 KiB.
	SegmentBytes int64
	// CheckpointEvery takes an automatic checkpoint after this many
	// appends. 0 means checkpoints are caller-driven only.
	CheckpointEvery int
	// Telemetry receives montsalvat_persist_* metrics. Optional.
	Telemetry *telemetry.Registry
	// Events, when set, journals durability transitions (checkpoint
	// commits, counter advances, recovery replays) as structured events.
	Events *telemetry.EventLog
	// Node labels this manager's events in a fleet ("shard-2").
	Node string
	// Logf receives recovery and cleanup notes. Defaults to discard.
	Logf func(format string, args ...any)
}

// Manager is the durability engine: one sealed WAL plus checkpoint
// lineage over a set of registered States. Safe for concurrent use;
// commits and checkpoints serialise on one mutex (the WAL is a total
// order anyway), and concurrent Append callers queue in front of it so
// one of them can commit the whole group as a single frame (commit.go).
type Manager struct {
	mu        lockrank.Mutex
	fs        shim.FS
	enclave   *sgx.Enclave
	secret    sgx.PlatformSecret
	counter   *sgx.MonotonicCounter
	dir       string
	segBytes  int64
	ckptEvery int
	injector  *Injector
	logf      func(string, ...any)

	states []State
	byName map[string]State

	recovered bool
	epoch     uint64 // live counter value; stamped into new segments
	watermark uint64 // highest LSN covered by the live checkpoint
	nextLSN   uint64
	sinceCkpt int
	curSeq    uint64
	curName   string // segmentName(curSeq), formatted once per segment
	curSize   int64

	tel      *telemetry.Registry
	events   *telemetry.EventLog
	node     string
	stats    Stats
	recovery *telemetry.Histogram

	// The commit queue (commit.go). qmu guards pending and leading and
	// ranks outside mu: a leader takes qmu to slice off a group, drops
	// it, then commits under mu while followers keep queueing. batch and
	// recs are the current leader's scratch buffers.
	qmu     lockrank.Mutex
	pending []commitReq
	leading bool
	batch   []commitReq
	recs    []Record
}

// Stats are the manager's lifetime counters (returned by Stats,
// exported as montsalvat_persist_* via the telemetry collector).
type Stats struct {
	Appends         uint64
	AppendedBytes   uint64
	Checkpoints     uint64
	Recoveries      uint64
	ReplayedRecords uint64
	Epoch           uint64
	Watermark       uint64
	LastLSN         uint64
	// GroupCommits counts the WAL frames written; GroupedRecords counts
	// the mutations inside them (equal to Appends).
	// GroupedRecords / GroupCommits is the achieved group size.
	GroupCommits   uint64
	GroupedRecords uint64
}

// Report describes one completed recovery.
type Report struct {
	// CheckpointStamp is the counter stamp of the checkpoint restored
	// (0 when the log was fresh).
	CheckpointStamp uint64
	// Watermark is the LSN the restored checkpoint covered.
	Watermark uint64
	// ReplayedRecords counts WAL records applied after the checkpoint.
	ReplayedRecords int
	// LastLSN is the highest LSN in the recovered state.
	LastLSN uint64
	// TornTail reports that the final segment ended mid-record (an
	// interrupted append was discarded).
	TornTail bool
	// Duration is wall-clock recovery time.
	Duration time.Duration
}

func (r Report) String() string {
	return fmt.Sprintf("checkpoint=%d watermark=%d replayed=%d last_lsn=%d torn_tail=%v duration=%s",
		r.CheckpointStamp, r.Watermark, r.ReplayedRecords, r.LastLSN, r.TornTail, r.Duration.Round(time.Microsecond))
}

// Open validates options and builds a Manager. No storage is touched:
// call Register for each durable state, then Recover to establish the
// log position (mandatory even on first boot).
func Open(opts Options) (*Manager, error) {
	if opts.FS == nil {
		return nil, errors.New("persist: Options.FS is required")
	}
	if opts.Enclave == nil {
		return nil, errors.New("persist: Options.Enclave is required")
	}
	if opts.Counter == nil {
		return nil, errors.New("persist: Options.Counter is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 256 << 10
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	m := &Manager{
		fs:        opts.FS,
		enclave:   opts.Enclave,
		secret:    opts.Secret,
		counter:   opts.Counter,
		dir:       opts.Dir,
		segBytes:  opts.SegmentBytes,
		ckptEvery: opts.CheckpointEvery,
		injector:  &Injector{},
		logf:      opts.Logf,
		byName:    make(map[string]State),
		tel:       opts.Telemetry,
		events:    opts.Events,
		node:      opts.Node,
	}
	m.mu.SetRank(lockrank.RankManager, "persist.Manager.mu")
	m.qmu.SetRank(lockrank.RankGroupQueue, "persist.Manager.qmu")
	if m.tel != nil {
		m.recovery = m.tel.Histogram("montsalvat_persist_recovery_duration_nanoseconds")
		m.tel.RegisterCollector(m.collectMetrics)
	}
	return m, nil
}

// CrashInjector returns the manager's crash-point injector, disarmed
// until a caller arms it. Arming a point makes the corresponding
// protocol step return a typed *Crash — the deterministic hook the
// orderly explorer and the crash matrix use to schedule failures.
func (m *Manager) CrashInjector() *Injector { return m.injector }

// Register adds a durable state. All states must be registered before
// Recover; registration after recovery is rejected so checkpoints and
// snapshots always cover the same set.
func (m *Manager) Register(s State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recovered {
		return errors.New("persist: Register after Recover")
	}
	if _, dup := m.byName[s.Name()]; dup {
		return fmt.Errorf("persist: duplicate state %q", s.Name())
	}
	m.byName[s.Name()] = s
	m.states = append(m.states, s)
	return nil
}

// seal / unseal run the enclave's sealing primitive to MRSIGNER, so
// every enclave the same author signs derives the same key.
func (m *Manager) seal(plain, aad []byte) ([]byte, error) {
	return m.enclave.Seal(m.secret, sgx.SealToMRSIGNER, plain, aad)
}

func (m *Manager) unseal(blob, aad []byte) ([]byte, error) {
	return m.enclave.Unseal(m.secret, sgx.SealToMRSIGNER, blob, aad)
}

// Checkpoint captures all registered state into a sealed,
// counter-stamped blob and truncates the log behind it.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.recovered {
		return ErrNotRecovered
	}
	return m.checkpointLocked()
}

// checkpointLocked runs the commit protocol described in
// checkpoint.go. The monotonic-counter increment is the commit point.
func (m *Manager) checkpointLocked() error {
	if err := m.injector.hit(CrashBeforeCheckpointSeal); err != nil {
		return err
	}
	live, err := m.counter.Read() // re-verifies the untrusted store
	if err != nil {
		return err
	}
	c := checkpoint{
		stamp:     live + 1,
		watermark: m.nextLSN - 1,
		states:    make(map[string][]byte, len(m.states)),
	}
	for _, s := range m.states {
		snap, err := s.Snapshot()
		if err != nil {
			return fmt.Errorf("persist: snapshot %q: %w", s.Name(), err)
		}
		c.states[s.Name()] = snap
	}
	if err := m.writeCheckpoint(c); err != nil {
		return err
	}
	if err := m.injector.hit(CrashAfterCheckpointWrite); err != nil {
		return err
	}
	bumped, err := m.counter.Increment() // ← commit point
	if err != nil {
		return err
	}
	if bumped != c.stamp {
		return fmt.Errorf("%w: counter moved to %d under a checkpoint stamped %d", ErrStaleCounter, bumped, c.stamp)
	}
	m.epoch = c.stamp
	m.watermark = c.watermark
	m.sinceCkpt = 0
	m.stats.Checkpoints++
	m.stats.Epoch = m.epoch
	m.stats.Watermark = m.watermark
	m.events.Emit(telemetry.EventCounterAdvance, m.node, 0, "stamp %d", c.stamp)
	m.events.Emit(telemetry.EventCheckpoint, m.node, 0, "stamp %d watermark %d", c.stamp, c.watermark)
	if err := m.injector.hit(CrashAfterCounterBump); err != nil {
		return err
	}
	// Cleanup is non-critical for correctness (recovery skips covered
	// blobs) but keeps storage bounded.
	if err := m.dropCheckpoints(c.stamp); err != nil {
		return err
	}
	if err := m.truncateSegments(m.curSeq + 1); err != nil {
		return err
	}
	return m.openSegment(m.curSeq+1, m.epoch, m.nextLSN)
}

// Recover establishes the durable state: verify the monotonic counter,
// restore the counter-valid checkpoint, replay the WAL tail into the
// registered states, then take a recovery checkpoint so the log starts
// the new epoch clean. Mandatory after Open, including on first boot.
func (m *Manager) Recover() (Report, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	var rep Report

	live, err := m.counter.Read()
	if err != nil {
		return rep, err
	}

	stamps, err := m.listCheckpoints()
	if err != nil {
		return rep, err
	}
	best := uint64(0)
	for _, stamp := range stamps {
		switch {
		case stamp > live:
			// Commit that never reached its counter bump (or a fork from
			// the future): discard.
			m.logf("persist: dropping incomplete checkpoint stamp=%d counter=%d", stamp, live)
			if err := m.fs.Remove(m.checkpointName(stamp)); err != nil {
				return rep, fmt.Errorf("persist: drop incomplete checkpoint: %w", err)
			}
		case stamp > best:
			best = stamp
		}
	}
	if live > 0 {
		if best < live {
			return rep, fmt.Errorf("%w: counter demands checkpoint %d, best available is %d", ErrRollback, live, best)
		}
		ckpt, err := m.readCheckpoint(live)
		if err != nil {
			return rep, err
		}
		for _, s := range m.states {
			snap, ok := ckpt.states[s.Name()]
			if !ok {
				continue // state added since the checkpoint; starts empty
			}
			if err := s.Restore(snap); err != nil {
				return rep, fmt.Errorf("persist: restore %q: %w", s.Name(), err)
			}
		}
		m.watermark = ckpt.watermark
		rep.CheckpointStamp = live
		rep.Watermark = ckpt.watermark
	}
	m.epoch = live

	replayed, lastLSN, torn, err := m.replayLog(live, m.watermark, m.applySegment)
	if err != nil {
		return rep, err
	}
	rep.ReplayedRecords = replayed
	rep.LastLSN = lastLSN
	rep.TornTail = torn
	m.nextLSN = lastLSN + 1

	seqs, err := m.listSegments()
	if err != nil {
		return rep, err
	}
	m.curSeq = 0
	if n := len(seqs); n > 0 {
		m.curSeq = seqs[n-1]
	}
	m.recovered = true

	// Recovery checkpoint: re-seal the converged state at a fresh
	// counter epoch so old segments (including any torn tail) are
	// retired and two forks recovering from the same blobs diverge
	// counters immediately.
	if err := m.checkpointLocked(); err != nil {
		m.recovered = false
		return rep, err
	}

	rep.Duration = time.Since(start)
	m.stats.Recoveries++
	m.stats.ReplayedRecords += uint64(replayed)
	m.stats.LastLSN = lastLSN
	if m.recovery != nil {
		m.recovery.ObserveDuration(rep.Duration)
	}
	m.events.Emit(telemetry.EventRecoveryReplay, m.node, 0, "%s", rep)
	m.logf("persist: recovered %s", rep)
	return rep, nil
}

// applySegment replays the records of one WAL segment: each registered
// state receives its own records in log order through one Apply call,
// so a state behind the enclave boundary costs one crossing per
// segment, not one per record.
func (m *Manager) applySegment(recs []Record) error {
	var order []State
	byState := make(map[State][]Record)
	for _, rec := range recs {
		s, ok := m.byName[rec.State]
		if !ok {
			// A state this build no longer registers (e.g. removed in an
			// upgrade): its journal entries are inert, not fatal.
			m.logf("persist: skipping record LSN %d for unknown state %q", rec.LSN, rec.State)
			continue
		}
		if _, seen := byState[s]; !seen {
			order = append(order, s)
		}
		byState[s] = append(byState[s], rec)
	}
	for _, s := range order {
		if err := s.Apply(byState[s]); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns lifetime counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) collectMetrics(reg *telemetry.Registry) {
	s := m.Stats()
	reg.Counter("montsalvat_persist_wal_appends_total").Set(s.Appends)
	reg.Counter("montsalvat_persist_wal_bytes_total").Set(s.AppendedBytes)
	reg.Counter("montsalvat_persist_checkpoints_total").Set(s.Checkpoints)
	reg.Counter("montsalvat_persist_recoveries_total").Set(s.Recoveries)
	reg.Counter("montsalvat_persist_recovery_replayed_records_total").Set(s.ReplayedRecords)
	reg.Counter("montsalvat_persist_group_commits_total").Set(s.GroupCommits)
	reg.Counter("montsalvat_persist_group_records_total").Set(s.GroupedRecords)
	reg.Gauge("montsalvat_persist_epoch").Set(int64(s.Epoch))
	reg.Gauge("montsalvat_persist_watermark_lsn").Set(int64(s.Watermark))
	reg.Gauge("montsalvat_persist_last_lsn").Set(int64(s.LastLSN))
}

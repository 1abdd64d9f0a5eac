package bench

import (
	"fmt"

	"montsalvat/internal/cycles"
	"montsalvat/internal/persist"
	"montsalvat/internal/sgx"
	"montsalvat/internal/shim"
	"montsalvat/internal/simcfg"
)

// recoveryIntervals are the checkpoint cadences swept by the recovery
// experiment: 0 means no checkpoint is ever taken after boot, so the
// whole WAL replays.
var recoveryIntervals = []int{0, 1024, 256, 64}

// recoveryLineage is one durable lineage prepared for a recovery
// measurement: the untrusted storage plus the platform secret and
// counter store that survive a crash.
type recoveryLineage struct {
	cfg    simcfg.Config
	fs     shim.FS
	secret sgx.PlatformSecret
	ctrs   *sgx.MemCounterStore
}

func newRecoveryLineage(cfg simcfg.Config) (*recoveryLineage, error) {
	secret, err := sgx.NewPlatformSecret()
	if err != nil {
		return nil, err
	}
	return &recoveryLineage{
		cfg:    cfg,
		fs:     shim.NewMemFS(),
		secret: secret,
		ctrs:   sgx.NewMemCounterStore(),
	}, nil
}

// boot builds an initialized enclave and a Manager over the lineage's
// storage — one machine lifetime. Every boot is signed by the
// process-wide author, so MRSIGNER-sealed blobs written before a crash
// unseal after it.
func (l *recoveryLineage) boot() (*persist.Manager, *persist.MapState, error) {
	m, st, _, err := l.bootOn(false)
	return m, st, err
}

// bootOn is boot with the Manager's filesystem chosen: the lineage's
// storage itself or, shimmed, the new enclave's shim over it, whose
// every operation is a charged ocall.
func (l *recoveryLineage) bootOn(shimmed bool) (*persist.Manager, *persist.MapState, *sgx.Enclave, error) {
	clk := cycles.New(simcfg.CPUHz)
	e, err := sgx.Create(l.cfg, clk, 4)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := e.AddPages([]byte("bench recovery image")); err != nil {
		return nil, nil, nil, err
	}
	signer, err := sgx.DefaultSigner()
	if err != nil {
		return nil, nil, nil, err
	}
	ss, err := signer.Sign(e.Measurement())
	if err != nil {
		return nil, nil, nil, err
	}
	if err := e.Init(ss); err != nil {
		return nil, nil, nil, err
	}
	ctr, err := sgx.NewMonotonicCounter(l.secret, l.ctrs, "bench")
	if err != nil {
		return nil, nil, nil, err
	}
	st := persist.NewMapState("kv")
	fs := l.fs
	if shimmed {
		fs = shim.NewTrustedShim(e, l.fs)
	}
	m, err := persist.Open(persist.Options{FS: fs, Enclave: e, Secret: l.secret, Counter: ctr, Dir: "p/"})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.Register(st); err != nil {
		return nil, nil, nil, err
	}
	return m, st, e, nil
}

// recoveryRun is one measured recovery: the Manager's report (host time,
// records replayed) and the cycles charged while it ran.
type recoveryRun struct {
	persist.Report
	Cycles int64
}

// idRecover is the ecall that hosts the measured recovery.
const idRecover = 9300

// runRecovery journals records under one checkpoint cadence, crashes,
// and measures the recovery of a fresh boot over the surviving files.
// interval 0 never checkpoints after boot; otherwise a checkpoint is
// taken every interval records, so records%interval WAL records remain
// to replay. The recovering Manager runs where the paper puts it — inside
// the enclave, reading the host's files through the shim (§5.4) — so the
// window has a cycle ledger: one ocall per file operation and every byte
// read streamed through the MEE. Host time moves with the machine and
// with every change to sealing; the ledger and the replay count do not.
func runRecovery(cfg simcfg.Config, records, interval int) (recoveryRun, error) {
	l, err := newRecoveryLineage(cfg)
	if err != nil {
		return recoveryRun{}, err
	}
	m, st, err := l.boot()
	if err != nil {
		return recoveryRun{}, err
	}
	if _, err := m.Recover(); err != nil {
		return recoveryRun{}, err
	}
	val := make([]byte, 64)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("user:%06d", i%4096)
		if _, err := m.Append("kv", persist.OpPut, key, val); err != nil {
			return recoveryRun{}, err
		}
		st.Put(key, val)
		if interval > 0 && (i+1)%interval == 0 {
			if err := m.Checkpoint(); err != nil {
				return recoveryRun{}, err
			}
		}
	}
	// Crash: the enclave heap is gone; only l.fs and the counter store
	// survive. A fresh boot recovers checkpoint + WAL tail.
	m2, st2, e2, err := l.bootOn(true)
	if err != nil {
		return recoveryRun{}, err
	}
	var run recoveryRun
	before := e2.Clock().Total()
	err = e2.Ecall(idRecover, func() error {
		var rerr error
		run.Report, rerr = m2.Recover()
		return rerr
	})
	if err != nil {
		return recoveryRun{}, err
	}
	run.Cycles = e2.Clock().Total() - before
	if got := st2.Len(); got == 0 && records > 0 {
		return recoveryRun{}, fmt.Errorf("bench recovery: state empty after recovering %d records", records)
	}
	return run, nil
}

// intervalName labels a checkpoint cadence row.
func intervalName(interval int) string {
	if interval == 0 {
		return "no-ckpt"
	}
	return fmt.Sprintf("ckpt/%d", interval)
}

// replayedName labels the row counting the WAL records a cadence's
// recoveries replayed.
func replayedName(interval int) string { return intervalName(interval) + " replayed" }

// RecoveryTime regenerates the durability experiment: crash-recovery
// latency as a function of WAL length and checkpoint cadence. Recovery
// is dominated by the WAL tail — unsealing and replaying every record
// since the last checkpoint — so tighter cadences buy flatter recovery
// at the cost of more sealed snapshot writes during normal operation.
func RecoveryTime(opts Options) (*Table, error) {
	counts := sweep(opts.scale(1_000, 200), opts.scale(8_000, 1_000), opts.scale(4, 3))
	cfg := simcfg.Default()
	t := &Table{
		ID:      "recovery",
		Title:   "Crash-recovery latency vs WAL length and checkpoint cadence",
		XLabel:  "cadence \\ records",
		Unit:    "milliseconds",
		Columns: intColumns(counts),
	}
	var worst, best []float64
	var replayedRows []Series
	for _, interval := range recoveryIntervals {
		values := make([]float64, 0, len(counts))
		ledger := make([]int64, 0, len(counts))
		replayed := make([]float64, 0, len(counts))
		for _, n := range counts {
			rep, err := runRecovery(cfg, n, interval)
			if err != nil {
				return nil, fmt.Errorf("recovery n=%d interval=%d: %w", n, interval, err)
			}
			values = append(values, float64(rep.Duration.Microseconds())/1000)
			ledger = append(ledger, rep.Cycles)
			replayed = append(replayed, float64(rep.ReplayedRecords))
		}
		t.Rows = append(t.Rows, Series{Name: intervalName(interval), Values: values, Cycles: ledger})
		replayedRows = append(replayedRows, Series{Name: replayedName(interval), Values: replayed})
		switch interval {
		case 0:
			worst = values
		case recoveryIntervals[len(recoveryIntervals)-1]:
			best = values
		}
	}
	t.Rows = append(t.Rows, replayedRows...)
	if len(worst) > 0 && len(best) > 0 && best[len(best)-1] > 0 {
		t.AddNote("full-WAL replay vs %s at max records: %.1fx slower recovery",
			intervalName(recoveryIntervals[len(recoveryIntervals)-1]),
			worst[len(worst)-1]/best[len(best)-1])
	}
	t.AddNote("recovery = unseal counter-valid checkpoint + replay sealed WAL tail + recovery checkpoint")
	t.AddNote("each cadence's \"replayed\" row counts the WAL records its recoveries replayed")
	return t, nil
}

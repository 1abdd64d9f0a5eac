package bench

import "testing"

func TestRecoveryTimeShape(t *testing.T) {
	tab, err := RecoveryTime(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "recovery" {
		t.Fatalf("ID = %s", tab.ID)
	}
	if len(tab.Rows) != len(recoveryIntervals) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(recoveryIntervals))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Fatalf("row %s has %d values, want %d", r.Name, len(r.Values), len(tab.Columns))
		}
		for i, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s col %d: non-positive recovery time %g", r.Name, i, v)
			}
		}
	}
	// Tight checkpoint cadence must recover from less than never
	// checkpointing does at the longest WAL: that trade-off is the point
	// of the experiment. It is asserted on what repeats exactly — the
	// cycles charged in the recovery window and the records replayed —
	// not on two host times.
	tightest := recoveryIntervals[len(recoveryIntervals)-1]
	worst, _ := tab.Row("no-ckpt")
	best, _ := tab.Row(intervalName(tightest))
	last := len(tab.Columns) - 1
	if best.Cycles[last] <= 0 || best.Cycles[last] >= worst.Cycles[last] {
		t.Errorf("ckpt cadence did not flatten recovery: best %d cycles, worst %d",
			best.Cycles[last], worst.Cycles[last])
	}
	for i := 1; i <= last; i++ {
		if worst.Cycles[i] <= worst.Cycles[i-1] {
			t.Errorf("no-ckpt recovery does not grow with the WAL: %v cycles", worst.Cycles)
		}
	}
	const records = 1000
	whole, err := runRecovery(quickOpts().Config(), records, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := runRecovery(quickOpts().Config(), records, tightest)
	if err != nil {
		t.Fatal(err)
	}
	if whole.ReplayedRecords != records || tail.ReplayedRecords != records%tightest {
		t.Errorf("replayed %d records without checkpoints and %d at ckpt/%d, want %d and %d",
			whole.ReplayedRecords, tail.ReplayedRecords, tightest, records, records%tightest)
	}
	if again, err := runRecovery(quickOpts().Config(), records, tightest); err != nil || again.Cycles != tail.Cycles {
		t.Errorf("recovery ledger does not repeat: %d then %d cycles (%v)", tail.Cycles, again.Cycles, err)
	}
}

func TestRecoveryPerfEntry(t *testing.T) {
	e, err := RecoveryPerf(quickOpts(), "test")
	if err != nil {
		t.Fatal(err)
	}
	if e.Label != "test" || !e.Quick {
		t.Fatalf("entry meta = %+v", e)
	}
	if len(e.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range e.Points {
		if p.RecoverMS <= 0 {
			t.Errorf("point %+v: non-positive recovery time", p)
		}
		// With no checkpoints, every record replays from the WAL.
		if p.CkptInterval == 0 && p.ReplayedRecords != p.Records {
			t.Errorf("no-ckpt point replayed %d of %d records", p.ReplayedRecords, p.Records)
		}
	}
	if len(e.GroupCommit) == 0 {
		t.Fatal("no group-commit sweep in entry")
	}
}

func TestGroupCommitSweepShape(t *testing.T) {
	pts, err := GroupCommitSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	writers := groupCommitWriters(quickOpts())
	if len(pts) != len(writers) {
		t.Fatalf("cells = %d, want %d", len(pts), len(writers))
	}
	for i, p := range pts {
		if p.Writers != writers[i] || uint64(p.MeanBatch*float64(p.SealedFrames)+0.5) < uint64(groupCommitAppends(quickOpts())) {
			t.Errorf("cell %+v: want %d writers and at least %d appends", p, writers[i], groupCommitAppends(quickOpts()))
		}
		if p.PutsPerSec <= 0 || p.AckP50US <= 0 || p.AckP99US < p.AckP50US {
			t.Errorf("cell %+v: degenerate throughput/latency", p)
		}
		if p.MeanBatch < 1 {
			t.Errorf("cell %+v: batch below 1", p)
		}
		if p.SealedFrames == 0 || p.SealedBytesPerOp <= 0 {
			t.Errorf("cell %+v: no sealing accounted", p)
		}
	}
	// The point of the protocol: with concurrent writers the commit
	// queue seals fewer frames than it journals records.
	if top := pts[len(pts)-1]; top.MeanBatch <= 1 {
		t.Fatalf("cell at %d writers achieved batch %.2f, want > 1", top.Writers, top.MeanBatch)
	}
}

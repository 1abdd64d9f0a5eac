package bench

import (
	"encoding/json"
	"strconv"
	"testing"
)

func TestRecoveryTimeShape(t *testing.T) {
	tab, err := RecoveryTime(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "recovery" {
		t.Fatalf("ID = %s", tab.ID)
	}
	if len(tab.Rows) != 2*len(recoveryIntervals) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*len(recoveryIntervals))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Fatalf("row %s has %d values, want %d", r.Name, len(r.Values), len(tab.Columns))
		}
	}
	for _, interval := range recoveryIntervals {
		r, _ := tab.Row(intervalName(interval))
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

// TestRecoveryPerfEntry checks the recorded form of the recovery
// experiment — the table as montsalvat-bench -json writes it — carries
// a positive recovery time for every point and the records each
// recovery replayed.
func TestRecoveryPerfEntry(t *testing.T) {
	tab, err := RecoveryTime(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var rec Table
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != "recovery" || len(rec.Columns) == 0 {
		t.Fatalf("record = %+v", rec)
	}
	for _, interval := range recoveryIntervals {
		r, ok := rec.Row(intervalName(interval))
		if !ok || len(r.Values) != len(rec.Columns) {
			t.Fatalf("row %q = %+v", intervalName(interval), r)
		}
		for i, v := range r.Values {
			if v <= 0 {
				t.Errorf("row %s col %s: non-positive recovery time %g", r.Name, rec.Columns[i], v)
			}
		}
	}
	// With no checkpoint, every record replays from the WAL.
	replayed, ok := rec.Row(replayedName(0))
	if !ok || len(replayed.Values) != len(rec.Columns) {
		t.Fatalf("row %q = %+v", replayedName(0), replayed)
	}
	for i, col := range rec.Columns {
		if n, _ := strconv.Atoi(col); replayed.Values[i] != float64(n) {
			t.Errorf("no-ckpt recovery replayed %g of %d records", replayed.Values[i], n)
		}
	}
}

func TestGroupCommitSweepShape(t *testing.T) {
	tab, err := GroupCommit(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	writers := groupCommitWriters(quickOpts())
	if len(tab.Columns) != len(writers) {
		t.Fatalf("cells = %d, want %d", len(tab.Columns), len(writers))
	}
	row := func(name string) []float64 {
		r, ok := tab.Row(name)
		if !ok || len(r.Values) != len(writers) {
			t.Fatalf("row %q = %+v", name, r)
		}
		return r.Values
	}
	puts, batch, p50, p99 := row("puts/s"), row("records/frame"), row("ack-p50-us"), row("ack-p99-us")
	frames, bytesPerOp := row("sealed-frames"), row("sealed-bytes/op")
	appends := float64(groupCommitAppends(quickOpts()))
	for i, w := range writers {
		if tab.Columns[i] != strconv.Itoa(w) || batch[i]*frames[i]+0.5 < appends {
			t.Errorf("cell %s: %.2f records x %g frames, want %d writers and at least %g appends",
				tab.Columns[i], batch[i], frames[i], w, appends)
		}
		if puts[i] <= 0 || p50[i] <= 0 || p99[i] < p50[i] {
			t.Errorf("cell %d writers: degenerate throughput/latency: %g puts/s, ack p50 %gus p99 %gus", w, puts[i], p50[i], p99[i])
		}
		if batch[i] < 1 {
			t.Errorf("cell %d writers: batch %.2f below 1", w, batch[i])
		}
		if frames[i] == 0 || bytesPerOp[i] <= 0 {
			t.Errorf("cell %d writers: no sealing accounted (%g frames, %g B/op)", w, frames[i], bytesPerOp[i])
		}
	}
	// The point of the protocol: with concurrent writers the commit
	// queue seals fewer frames than it journals records.
	if top := len(writers) - 1; batch[top] <= 1 {
		t.Fatalf("cell at %d writers achieved batch %.2f, want > 1", writers[top], batch[top])
	}
}

package bench

import (
	"encoding/json"
	"sync"
	"testing"

	"montsalvat/internal/simcfg"
)

// ringSweepTable is the quick-scale ring sweep, computed once for both
// tests that read it.
var ringSweepTable = sync.OnceValues(func() (*Table, error) { return RingSweep(quickOpts()) })

// TestRingSweepShape pins the zero-copy claim at quick scale: the ring
// path never loses to the frame path, wins clearly at the largest
// payload, and is crypto-dominated there (copies dominate the frame
// path instead). Every ring call pays exactly one hand-off each way.
func TestRingSweepShape(t *testing.T) {
	tab, err := ringSweepTable()
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := tab.Row("frame-path")
	ring, _ := tab.Row("ring-path")
	share, _ := tab.Row("ring-crypto-share")
	handoff, _ := tab.Row("ring-handoff-cycles")
	if len(frame.Values) == 0 || len(frame.Values) != len(ring.Values) || len(handoff.Values) != len(ring.Values) {
		t.Fatalf("malformed table: %+v", tab)
	}
	for i, h := range handoff.Values {
		if h != 2*simcfg.RingSubmitCycles {
			t.Errorf("col %d (%s B): hand-off %g cycles/call, want 2 x %d", i, tab.Columns[i], h, simcfg.RingSubmitCycles)
		}
	}
	for i := range frame.Values {
		// Small payloads: within noise means the ring path must at
		// least not regress (its hand-off is cheaper than a switchless
		// transition, so in the cost model it never does).
		if ring.Values[i] > frame.Values[i]*1.05 {
			t.Errorf("col %d (%s B): ring %.0f cycles/op > frame %.0f",
				i, tab.Columns[i], ring.Values[i], frame.Values[i])
		}
	}
	last := len(frame.Values) - 1
	if frame.Values[last] < 1.5*ring.Values[last] {
		t.Errorf("largest payload: frame %.0f / ring %.0f < 1.5x",
			frame.Values[last], ring.Values[last])
	}
	if share.Values[last] < 0.5 {
		t.Errorf("largest payload: crypto share %.2f, want > 0.5 (crypto-dominated)",
			share.Values[last])
	}
	if share.Values[0] > 0.2 {
		t.Errorf("smallest payload: crypto share %.2f, want < 0.2 (transition-dominated)",
			share.Values[0])
	}
}

// TestRingPayloadSweepJSON checks the recorded form of the sweep — the
// table as montsalvat-bench -json writes it — is internally consistent
// with the table generator's claims. No call outgrows its slot.
func TestRingPayloadSweepJSON(t *testing.T) {
	tab, err := ringSweepTable()
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
	if len(rec.Columns) != len(ringPayloads(quickOpts())) {
		t.Fatalf("payloads = %d, want %d", len(rec.Columns), len(ringPayloads(quickOpts())))
	}
	row := func(name string) []float64 {
		r, ok := rec.Row(name)
		if !ok || len(r.Values) != len(rec.Columns) {
			t.Fatalf("row %q = %+v", name, r)
		}
		return r.Values
	}
	frame, ring, speed, oversize := row("frame-path"), row("ring-path"), row("frame/ring"), row("ring-oversize")
	for i, payload := range rec.Columns {
		if ring[i] <= 0 || frame[i] <= 0 {
			t.Errorf("payload %s: non-positive cycles: frame %g, ring %g", payload, frame[i], ring[i])
		}
		if speed[i] <= 0.9 {
			t.Errorf("payload %s: frame/ring %.2f, want ~>=1", payload, speed[i])
		}
		if oversize[i] != 0 {
			t.Errorf("payload %s: %g oversize fallbacks (slots are sized to the sweep)", payload, oversize[i])
		}
	}
}

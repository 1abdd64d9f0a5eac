package bench

import "testing"

// TestRingSweepShape pins the zero-copy claim at quick scale: the ring
// path never loses to the frame path, wins clearly at the largest
// payload, and is crypto-dominated there (copies dominate the frame
// path instead).
func TestRingSweepShape(t *testing.T) {
	tab, err := RingSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := tab.Row("frame-path")
	ring, _ := tab.Row("ring-path")
	share, _ := tab.Row("ring-crypto-share")
	if len(frame.Values) == 0 || len(frame.Values) != len(ring.Values) {
		t.Fatalf("malformed table: %+v", tab)
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

// TestRingPayloadSweepJSON checks the machine-readable sweep is
// internally consistent with the table generator's claims.
func TestRingPayloadSweepJSON(t *testing.T) {
	points, err := RingPayloadSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ringPayloads(quickOpts())) {
		t.Fatalf("points = %d, want %d", len(points), len(ringPayloads(quickOpts())))
	}
	for _, p := range points {
		if p.RingCyclesPerOp <= 0 || p.FrameCyclesPerOp <= 0 {
			t.Errorf("payload %d: non-positive cycles %+v", p.PayloadBytes, p)
		}
		if p.Speedup <= 0.9 {
			t.Errorf("payload %d: speedup %.2f, want ~>=1", p.PayloadBytes, p.Speedup)
		}
		if p.RingOversizeEvents != 0 {
			t.Errorf("payload %d: unexpected oversize fallbacks (slots sized to the sweep)", p.PayloadBytes)
		}
	}
}

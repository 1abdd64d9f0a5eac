package bench

import (
	"fmt"

	"montsalvat/internal/classmodel"
	"montsalvat/internal/simcfg"
	"montsalvat/internal/wire"
)

// Ring data-plane payload sweep: the same serializable RMI is driven
// through the classic frame path (marshal into a pooled buffer, charge
// every byte at the MEE copy rate) and through the zero-copy ring path
// (encode straight into a shared slot, seal in place at the streaming
// AES-GCM rate), across payloads from cache-line size to a mebibyte.
// The claim under test: once payloads grow past the transition costs,
// the frame path is dominated by per-byte copies while the ring path is
// dominated by the (cheaper, charged-once) crypto pass — and at small
// payloads the ring's fixed hand-off overhead stays within noise of the
// frame path.

// ringPayloads returns the payload sweep in bytes.
func ringPayloads(opts Options) []int {
	if opts.Quick {
		return []int{64, 4 << 10, 64 << 10}
	}
	return []int{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20}
}

// ringSweepCfg returns the two platform configurations compared by the
// sweep: the tuned frame path (switchless cost, no rings) and the ring
// data plane (slots sized to hold the largest payload in the sweep).
func ringSweepCfg(opts Options) (frame, rings simcfg.Config) {
	frame = simcfg.Default()
	frame.Switchless = true
	frame.Batching = false
	frame.Rings = false

	rings = frame
	rings.Rings = true
	// Headroom past the largest payload for the call header.
	rings.RingSlotBytes = (1 << 20) + 4096
	return frame, rings
}

// ringPoint is one measured (configuration, payload) cell.
type ringPoint struct {
	CyclesPerOp float64
	// Cycle components, per op, recovered from the world's counters.
	CopyCycles    float64 // frame-path MEE per-byte copy charges
	CryptoCycles  float64 // ring-path in-place sealing charges
	HandoffCycles float64 // ring hand-off charges, both ways
	Oversize      uint64  // calls that exceeded the slot and fell back
}

// runRingPoint drives iters setAll RMIs carrying a payload-sized byte
// string from the untrusted runtime into the enclave and reports the
// charged cycles per op with the component breakdown.
func runRingPoint(cfg simcfg.Config, payload, iters int) (ringPoint, error) {
	w, err := microWorldCfg(cfg)
	if err != nil {
		return ringPoint{}, err
	}
	defer w.Close()

	arg := wire.List(wire.Bytes(make([]byte, payload)))
	var p ringPoint
	err = w.Exec(false, func(env classmodel.Env) error {
		obj, err := env.New(microTrusted, wire.Int(0))
		if err != nil {
			return err
		}
		ds0 := w.DispatchStats()
		c0 := w.Clock().Total()
		for i := 0; i < iters; i++ {
			if _, err := env.Call(obj, "setAll", arg); err != nil {
				return err
			}
		}
		charged := w.Clock().Total() - c0
		ds1 := w.DispatchStats()

		ops := float64(iters)
		p.CyclesPerOp = float64(charged) / ops
		p.CopyCycles = float64(ds1.MEECopiedBytes-ds0.MEECopiedBytes) * simcfg.MEEBytesPerCycle / ops
		p.CryptoCycles = float64(ds1.RingSealedBytes-ds0.RingSealedBytes) / simcfg.RingCryptoBytesPerCycle / ops
		// A ring call pays one hand-off each way.
		p.HandoffCycles = float64(2*(ds1.RingSubmits-ds0.RingSubmits)) * simcfg.RingSubmitCycles / ops
		p.Oversize = ds1.RingOversize - ds0.RingOversize
		return nil
	})
	if err != nil {
		return ringPoint{}, err
	}
	return p, nil
}

// RingSweep regenerates the payload sweep: frame vs ring cycles/op per
// payload size, with the dominant cycle components.
func RingSweep(opts Options) (*Table, error) {
	payloads := ringPayloads(opts)
	iters := opts.scale(50, 10)
	frameCfg, ringCfg := ringSweepCfg(opts)

	t := &Table{
		ID:      "ring-sweep",
		Title:   "Zero-copy ring data plane vs frame path across payload sizes",
		XLabel:  "series \\ payload B",
		Unit:    "cycles/op",
		Columns: intColumns(payloads),
	}
	var frameRow, ringRow, speedRow, cryptoShare, handoff, copies, oversize []float64
	for _, payload := range payloads {
		fp, err := runRingPoint(frameCfg, payload, iters)
		if err != nil {
			return nil, fmt.Errorf("ring-sweep frame payload=%d: %w", payload, err)
		}
		rp, err := runRingPoint(ringCfg, payload, iters)
		if err != nil {
			return nil, fmt.Errorf("ring-sweep ring payload=%d: %w", payload, err)
		}
		frameRow = append(frameRow, fp.CyclesPerOp)
		ringRow = append(ringRow, rp.CyclesPerOp)
		if rp.CyclesPerOp > 0 {
			speedRow = append(speedRow, fp.CyclesPerOp/rp.CyclesPerOp)
			cryptoShare = append(cryptoShare, rp.CryptoCycles/rp.CyclesPerOp)
		} else {
			speedRow = append(speedRow, 0)
			cryptoShare = append(cryptoShare, 0)
		}
		handoff = append(handoff, rp.HandoffCycles)
		copies = append(copies, fp.CopyCycles)
		oversize = append(oversize, float64(rp.Oversize))
	}
	t.AddRow("frame-path", frameRow...)
	t.AddRow("ring-path", ringRow...)
	t.AddRow("frame/ring", speedRow...)
	t.AddRow("ring-crypto-share", cryptoShare...)
	t.AddRow("ring-handoff-cycles", handoff...)
	t.AddRow("frame-copy-cycles", copies...)
	t.AddRow("ring-oversize", oversize...)
	last := len(payloads) - 1
	t.AddNote("at %d B the ring path spends %.0f%% of its cycles in the in-place crypto pass (frame path: per-byte MEE copies)",
		payloads[last], cryptoShare[last]*100)
	t.AddNote("frame-path MEE copy rate %.1f B/cycle vs ring streaming AES-GCM %.1f B/cycle, charged once per direction",
		simcfg.MEEBytesPerCycle, simcfg.RingCryptoBytesPerCycle)
	return t, nil
}

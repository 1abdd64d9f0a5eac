package simcfg

import "testing"

func TestTransitionCycles(t *testing.T) {
	switchless := Default()
	switchless.Switchless = true
	for _, tc := range []struct {
		name    string
		cfg     Config
		in, out int64
	}{
		{"default", Default(), 13_100, 8_600},
		{"switchless", switchless, 1_200, 1_200},
	} {
		if got := tc.cfg.TransitionCycles(true); got != tc.in {
			t.Errorf("%s: entering costs %d cycles, want %d", tc.name, got, tc.in)
		}
		if got := tc.cfg.TransitionCycles(false); got != tc.out {
			t.Errorf("%s: exiting costs %d cycles, want %d", tc.name, got, tc.out)
		}
	}
}

func TestPresets(t *testing.T) {
	const epc = 93*1024*1024 + 512*1024 // §6.1: 93.5 MB usable
	cfg := Default()
	if cfg.EPCBytes != epc {
		t.Errorf("EPC = %d bytes, want %d", cfg.EPCBytes, epc)
	}
	if cfg.Switchless || cfg.Batching || cfg.Rings {
		t.Errorf("a crossing lever is on by default: %+v", cfg)
	}
	if cfg.CPUHz != CPUHz {
		t.Errorf("CPUHz = %g", cfg.CPUHz)
	}
}

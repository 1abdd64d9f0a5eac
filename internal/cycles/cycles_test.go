package cycles

import (
	"sync"
	"testing"
	"time"
)

func TestChargeAccumulates(t *testing.T) {
	c := New(3.8e9)
	c.Charge(100)
	c.Charge(250)
	if got := c.Total(); got != 350 {
		t.Fatalf("Total() = %d, want 350", got)
	}
}

func TestChargeIgnoresNonPositive(t *testing.T) {
	c := New(1e9)
	c.Charge(0)
	c.Charge(-5)
	if got := c.Total(); got != 0 {
		t.Fatalf("Total() = %d, want 0", got)
	}
}

func TestChargeBytes(t *testing.T) {
	tests := []struct {
		name          string
		bytes         int
		bytesPerCycle float64
		want          int64
	}{
		{name: "one byte per cycle", bytes: 1000, bytesPerCycle: 1.0, want: 1000},
		{name: "two bytes per cycle", bytes: 1000, bytesPerCycle: 2.0, want: 500},
		{name: "zero bytes", bytes: 0, bytesPerCycle: 1.0, want: 0},
		{name: "invalid throughput", bytes: 100, bytesPerCycle: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(1e9)
			c.ChargeBytes(tt.bytes, tt.bytesPerCycle)
			if got := c.Total(); got != tt.want {
				t.Errorf("Total() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDurationConversion(t *testing.T) {
	c := New(1e9) // 1 GHz: 1 cycle == 1 ns
	if got := c.Duration(1000); got != time.Microsecond {
		t.Fatalf("Duration(1000) = %v, want 1µs", got)
	}
}

func TestDefaultHzOnInvalid(t *testing.T) {
	c := New(0) // falls back to 1 GHz: 1 cycle == 1 ns
	if got := c.Duration(1000); got != time.Microsecond {
		t.Fatalf("Duration(1000) = %v, want the 1 GHz fallback's 1µs", got)
	}
}

func TestConcurrentCharge(t *testing.T) {
	c := New(1e9)
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Charge(3)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Total(), int64(goroutines*perG*3); got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}
}

// TestTabSettlesWhatTheClockWouldCharge: a Tab rounds each charge as the
// Clock does, so settling many fractional charges adds their per-charge
// sum, not the rounded sum of their bytes, and nothing reaches the
// clock before Settle.
func TestTabSettlesWhatTheClockWouldCharge(t *testing.T) {
	direct, held := New(1e9), New(1e9)
	tab := NewTab(held)
	for _, n := range []int{3, 5, 0, -2, 7, 64} {
		direct.ChargeBytes(n, 2.0)
		tab.ChargeBytes(n, 2.0)
	}
	tab.ChargeBytes(8, 0)
	if got := held.Total(); got != 0 {
		t.Fatalf("clock holds %d cycles before Settle, want 0", got)
	}
	tab.Settle()
	if got, want := held.Total(), direct.Total(); got != want || want != 1+2+3+32 {
		t.Fatalf("settled tab charged %d cycles, direct charges %d, want 38", got, want)
	}
	tab.Settle()
	if got := held.Total(); got != 38 {
		t.Fatalf("a second Settle moved the clock to %d, want 38", got)
	}
}

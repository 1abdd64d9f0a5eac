package sgx

import (
	"errors"
	"sync"
	"testing"

	"montsalvat/internal/cycles"
	"montsalvat/internal/simcfg"
)

// sharedSigner avoids regenerating RSA keys in every test.
var (
	signerOnce sync.Once
	signer     *Signer
	signerErr  error
)

func testSigner(t *testing.T) *Signer {
	t.Helper()
	signerOnce.Do(func() { signer, signerErr = NewSigner() })
	if signerErr != nil {
		t.Fatalf("NewSigner: %v", signerErr)
	}
	return signer
}

func initializedEnclave(t *testing.T, image []byte) (*Enclave, *cycles.Clock) {
	t.Helper()
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := Create(simcfg.ForTest(), clk, 4)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := e.AddPages(image); err != nil {
		t.Fatalf("AddPages: %v", err)
	}
	ss, err := testSigner(t).Sign(e.Measurement())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := e.Init(ss); err != nil {
		t.Fatalf("Init: %v", err)
	}
	return e, clk
}

func TestLifecycleHappyPath(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("trusted image bytes"))
	ran := false
	if err := e.Ecall(1, func() error { ran = true; return nil }); err != nil {
		t.Fatalf("Ecall: %v", err)
	}
	if !ran {
		t.Fatal("ecall body did not run")
	}
}

func TestEcallBeforeInitFails(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := Create(simcfg.ForTest(), clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Ecall(1, func() error { return nil }); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("err = %v, want ErrNotInitialized", err)
	}
}

func TestInitRejectsTamperedImage(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := Create(simcfg.ForTest(), clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages([]byte("genuine image")); err != nil {
		t.Fatal(err)
	}
	// Sign a DIFFERENT measurement (the attacker's image).
	var wrong [32]byte
	wrong[0] = 0xde
	ss, err := testSigner(t).Sign(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(ss); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("err = %v, want ErrBadMeasurement", err)
	}
}

func TestInitRejectsForgedSignature(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := Create(simcfg.ForTest(), clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages([]byte("image")); err != nil {
		t.Fatal(err)
	}
	ss, err := testSigner(t).Sign(e.Measurement())
	if err != nil {
		t.Fatal(err)
	}
	// Forge a copy: Sign memoizes the SIGSTRUCT, and the shared test
	// signer would hand the flipped bytes to every later test and -count.
	ss.Signature = append([]byte(nil), ss.Signature...)
	ss.Signature[0] ^= 0xff
	if err := e.Init(ss); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestMeasurementDependsOnImage(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	e1, _ := Create(simcfg.ForTest(), clk, 1)
	e2, _ := Create(simcfg.ForTest(), clk, 1)
	if err := e1.AddPages([]byte("image A")); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddPages([]byte("image B")); err != nil {
		t.Fatal(err)
	}
	if e1.Measurement() == e2.Measurement() {
		t.Fatal("different images produced identical measurements")
	}
}

func TestAddPagesAfterInitFails(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("img"))
	if err := e.AddPages([]byte("more")); !errors.Is(err, ErrAlreadyInit) {
		t.Fatalf("err = %v, want ErrAlreadyInit", err)
	}
	ss, _ := testSigner(t).Sign(e.Measurement())
	if err := e.Init(ss); !errors.Is(err, ErrAlreadyInit) {
		t.Fatalf("double init: err = %v, want ErrAlreadyInit", err)
	}
}

func TestDestroyBlocksEverything(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("img"))
	e.Destroy()
	if err := e.Ecall(1, func() error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("Ecall: err = %v, want ErrDestroyed", err)
	}
	if _, err := e.NewMemory(1024); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("NewMemory: err = %v, want ErrDestroyed", err)
	}
}

func TestTransitionCostsCharged(t *testing.T) {
	e, clk := initializedEnclave(t, []byte("img"))
	before := clk.Total()
	if err := e.Ecall(7, func() error {
		return e.Ocall(3, func() error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	charged := clk.Total() - before
	want := simcfg.EcallCycles + simcfg.OcallCycles
	if charged != int64(want) {
		t.Fatalf("charged %d cycles, want %d", charged, want)
	}
}

func TestSwitchlessModeIsCheaper(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	cfg := simcfg.ForTest()
	cfg.Switchless = true
	e, err := Create(cfg, clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddPages([]byte("img")); err != nil {
		t.Fatal(err)
	}
	ss, _ := testSigner(t).Sign(e.Measurement())
	if err := e.Init(ss); err != nil {
		t.Fatal(err)
	}
	before := clk.Total()
	if err := e.Ecall(1, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := clk.Total() - before; got != simcfg.SwitchlessCallCycles {
		t.Fatalf("switchless ecall charged %d, want %d", got, simcfg.SwitchlessCallCycles)
	}
}

// TestEnterResident: each residency takes one TCS slot and charges one
// entry, ocalls are legal while a resident runs enclave code
// (RunResident) and refused while it only holds its slot, leave is
// idempotent, and a destroyed enclave admits no new resident.
func TestEnterResident(t *testing.T) {
	e, clk := initializedEnclave(t, []byte("img"))
	var leaves []func()
	for n := 1; n <= 2; n++ {
		before := clk.Total()
		leave, err := e.EnterResident()
		if err != nil {
			t.Fatalf("EnterResident %d: %v", n, err)
		}
		leaves = append(leaves, leave)
		if got := clk.Total() - before; got != simcfg.EcallCycles {
			t.Fatalf("residency %d charged %d cycles, want %d", n, got, simcfg.EcallCycles)
		}
		if got := e.TCSInUse(); got != n {
			t.Fatalf("TCS in use = %d after %d residencies", got, n)
		}
		if got := e.Stats().Ecalls; got != uint64(n) {
			t.Fatalf("Ecalls = %d after %d residencies", got, n)
		}
	}
	if e.InEnclave() {
		t.Fatal("an idle resident counts as executing")
	}
	if err := e.Ocall(2, func() error { return nil }); !errors.Is(err, ErrOcallOutside) {
		t.Fatalf("ocall beside idle residents: %v, want ErrOcallOutside", err)
	}
	before := clk.Total()
	if err := e.RunResident(func() error { return e.Ocall(2, func() error { return nil }) }); err != nil {
		t.Fatalf("ocall from a resident thread: %v", err)
	}
	if got := clk.Total() - before; got != simcfg.OcallCycles {
		t.Fatalf("resident run with one ocall charged %d cycles, want %d", got, simcfg.OcallCycles)
	}
	leaves[0]()
	leaves[0]()
	if got := e.TCSInUse(); got != 1 {
		t.Fatalf("TCS in use = %d after leaving once (twice called), want 1", got)
	}
	leaves[1]()
	if e.InEnclave() || e.TCSInUse() != 0 {
		t.Fatalf("still inside after both left: in=%v tcs=%d", e.InEnclave(), e.TCSInUse())
	}
	e.Destroy()
	if _, err := e.EnterResident(); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("EnterResident after Destroy: %v, want ErrDestroyed", err)
	}
}

// TestSwitchless: a call handed to a resident thread charges
// SwitchlessCallCycles, counts as a switchless ecall rather than an
// ecall, takes no TCS slot, may ocall, and is refused by a destroyed
// enclave.
func TestSwitchless(t *testing.T) {
	e, clk := initializedEnclave(t, []byte("img"))
	leave, err := e.EnterResident()
	if err != nil {
		t.Fatal(err)
	}
	defer leave()
	before, ecalls := clk.Total(), e.Stats().Ecalls
	err = e.Switchless(func() error {
		if got := e.TCSInUse(); got != 1 {
			t.Errorf("TCS in use during a hand-off = %d, want the resident's 1", got)
		}
		return e.Ocall(2, func() error { return nil })
	})
	if err != nil {
		t.Fatalf("Switchless: %v", err)
	}
	if got := clk.Total() - before; got != simcfg.SwitchlessCallCycles+simcfg.OcallCycles {
		t.Fatalf("hand-off with one ocall charged %d cycles, want %d", got, simcfg.SwitchlessCallCycles+simcfg.OcallCycles)
	}
	if s := e.Stats(); s.SwitchlessEcalls != 1 || s.Ecalls != ecalls || s.SwitchlessOcalls != 0 {
		t.Fatalf("stats after one hand-off: %+v", s)
	}
	if e.InEnclave() {
		t.Fatal("the resident still counts as executing after its hand-off returned")
	}
	e.Destroy()
	if err := e.Switchless(func() error { return nil }); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("Switchless after Destroy: %v, want ErrDestroyed", err)
	}
}

func TestOcallOutsideEnclaveRejected(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("img"))
	if err := e.Ocall(1, func() error { return nil }); !errors.Is(err, ErrOcallOutside) {
		t.Fatalf("err = %v, want ErrOcallOutside", err)
	}
}

func TestNestedEcallFromOcall(t *testing.T) {
	// Montsalvat relay chains re-enter the enclave: ecall -> ocall ->
	// ecall must work.
	e, _ := initializedEnclave(t, []byte("img"))
	depth2 := false
	err := e.Ecall(1, func() error {
		return e.Ocall(2, func() error {
			return e.Ecall(3, func() error { depth2 = true; return nil })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !depth2 {
		t.Fatal("nested ecall did not run")
	}
	s := e.Stats()
	if s.Ecalls != 2 || s.Ocalls != 1 {
		t.Fatalf("stats = %d ecalls %d ocalls, want 2/1", s.Ecalls, s.Ocalls)
	}
	if s.EcallsByID[1] != 1 || s.EcallsByID[3] != 1 || s.OcallsByID[2] != 1 {
		t.Fatalf("per-id stats = %v / %v", s.EcallsByID, s.OcallsByID)
	}
}

func TestTCSLimitsConcurrency(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("img"))
	// 4 TCS slots: run 8 concurrent ecalls that each record peak
	// concurrency.
	var (
		mu      sync.Mutex
		cur     int
		peak    int
		barrier = make(chan struct{})
	)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-barrier
			_ = e.Ecall(1, func() error {
				mu.Lock()
				cur++
				if cur > peak {
					peak = cur
				}
				mu.Unlock()
				// Hold the slot briefly.
				for i := 0; i < 1000; i++ {
					_ = i
				}
				mu.Lock()
				cur--
				mu.Unlock()
				return nil
			})
		}()
	}
	close(barrier)
	wg.Wait()
	if peak > 4 {
		t.Fatalf("peak concurrent enclave threads = %d, want <= 4 (TCS limit)", peak)
	}
}

func TestEnclaveHeapBound(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	cfg := simcfg.ForTest()
	cfg.EnclaveHeapBytes = 1 << 20
	e, err := Create(cfg, clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.NewMemory(1 << 19); err != nil {
		t.Fatalf("first region: %v", err)
	}
	if _, err := e.NewMemory(1 << 19); err != nil {
		t.Fatalf("second region: %v", err)
	}
	if _, err := e.NewMemory(1); !errors.Is(err, ErrHeapExhausted) {
		t.Fatalf("err = %v, want ErrHeapExhausted", err)
	}
	if got := e.Stats().HeapBytesInUse; got != 1<<20 {
		t.Fatalf("HeapBytesInUse = %d, want %d", got, 1<<20)
	}
}

func TestEnclaveMemoryIsEncrypted(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("img"))
	m, err := e.NewMemory(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(0, []byte("plaintext secret")); err != nil {
		t.Fatal(err)
	}
	if e.Stats().MEE.LinesEncrypted == 0 {
		t.Fatal("write to enclave memory did not use the MEE")
	}
}

func TestQuoteVerification(t *testing.T) {
	e, _ := initializedEnclave(t, []byte("attested image"))
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.Quote(e, []byte("nonce-123"))
	if err != nil {
		t.Fatalf("Quote: %v", err)
	}
	if err := p.Verify(q, e.Measurement()); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// Forged report data fails.
	forged := q
	forged.ReportData = []byte("evil")
	if err := p.Verify(forged, e.Measurement()); !errors.Is(err, ErrQuoteForged) {
		t.Fatalf("forged quote: err = %v, want ErrQuoteForged", err)
	}

	// Wrong expected measurement fails.
	var other [32]byte
	if err := p.Verify(q, other); !errors.Is(err, ErrBadMeasurement) {
		t.Fatalf("wrong measurement: err = %v, want ErrBadMeasurement", err)
	}

	// A different platform cannot verify (different attestation key).
	p2, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Verify(q, e.Measurement()); !errors.Is(err, ErrQuoteForged) {
		t.Fatalf("cross-platform quote: err = %v, want ErrQuoteForged", err)
	}
}

func TestQuoteRequiresInit(t *testing.T) {
	clk := cycles.New(simcfg.CPUHz, false)
	e, err := Create(simcfg.ForTest(), clk, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Quote(e, nil); !errors.Is(err, ErrNotInitializedQ) {
		t.Fatalf("err = %v, want ErrNotInitializedQ", err)
	}
}

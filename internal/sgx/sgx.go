// Package sgx simulates the Intel SGX enclave abstraction used by
// Montsalvat.
//
// The lifecycle mirrors the hardware: an enclave is created (ECREATE),
// pages of the signed image are added while a SHA-256 measurement is
// extended (EADD/EEXTEND), and initialisation (EINIT) verifies an
// RSA-signed SIGSTRUCT over the final measurement — "all enclave code is
// ... cryptographically hashed for verification at runtime when it is
// loaded into enclave memory" (paper §2.1).
//
// Ecall/ocall transitions charge their calibrated cycle costs ("costly
// context switches that last up to 13,100 CPU cycles", §2.1), count
// against per-routine statistics, and respect a bounded number of TCS
// (thread control structure) slots. Enclave memory regions are allocated
// from a shared EPC residency with the configured usable size (§6.1).
//
// Remote attestation (§4) is simulated by a Platform holding an
// attestation key: quotes are HMACs over the measurement and report data.
package sgx

import (
	"crypto"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"montsalvat/internal/cycles"
	"montsalvat/internal/epc"
	"montsalvat/internal/mee"
	"montsalvat/internal/simcfg"
)

// Errors returned by enclave operations.
var (
	ErrNotInitialized  = errors.New("sgx: enclave not initialized")
	ErrAlreadyInit     = errors.New("sgx: enclave already initialized")
	ErrDestroyed       = errors.New("sgx: enclave destroyed")
	ErrBadSignature    = errors.New("sgx: SIGSTRUCT signature verification failed")
	ErrBadMeasurement  = errors.New("sgx: measurement mismatch")
	ErrHeapExhausted   = errors.New("sgx: enclave heap bound exhausted")
	ErrOcallOutside    = errors.New("sgx: ocall issued outside enclave")
	ErrQuoteForged     = errors.New("sgx: quote verification failed")
	ErrNotInitializedQ = errors.New("sgx: cannot quote uninitialized enclave")
)

// Signer holds the enclave author's signing key (the analog of the RSA
// key used to sign the SIGSTRUCT of an enclave shared object).
type Signer struct {
	key *rsa.PrivateKey

	// sigMu/sigs memoize SIGSTRUCTs per measurement: re-signing the same
	// retained image on every World.Restart (and on every reset of the
	// orderly explorer, which rebuilds thousands of worlds per run) would
	// pay a full RSA-PSS signature each time for a bit-identical input.
	sigMu sync.Mutex
	sigs  map[[32]byte]SigStruct
}

// NewSigner generates a fresh signing key.
func NewSigner() (*Signer, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("sgx: generate signer key: %w", err)
	}
	return &Signer{key: key}, nil
}

var defaultSigner struct {
	once   sync.Once
	signer *Signer
	err    error
}

// DefaultSigner returns the process-wide enclave author, generating its
// key on first use. Every enclave built without an explicit signer is
// signed by it, so they all share one MRSIGNER and the process pays RSA
// key generation once.
func DefaultSigner() (*Signer, error) {
	defaultSigner.once.Do(func() { defaultSigner.signer, defaultSigner.err = NewSigner() })
	return defaultSigner.signer, defaultSigner.err
}

// SigStruct is a signed statement binding an enclave measurement to its
// author.
type SigStruct struct {
	// Measurement is the expected MRENCLAVE.
	Measurement [32]byte
	// Signature is the RSA-PSS signature over the measurement.
	Signature []byte
	// PublicKey identifies the signer; MRSIGNER is its SHA-256 hash.
	PublicKey *rsa.PublicKey
}

// Sign produces a SIGSTRUCT for the given measurement. Signatures are
// memoized per measurement: signing the same image twice returns the
// same (still valid) SIGSTRUCT without re-running RSA-PSS.
func (s *Signer) Sign(measurement [32]byte) (SigStruct, error) {
	s.sigMu.Lock()
	if ss, ok := s.sigs[measurement]; ok {
		s.sigMu.Unlock()
		return ss, nil
	}
	s.sigMu.Unlock()
	sig, err := rsa.SignPSS(rand.Reader, s.key, crypto.SHA256, measurement[:], nil)
	if err != nil {
		return SigStruct{}, fmt.Errorf("sgx: sign sigstruct: %w", err)
	}
	ss := SigStruct{Measurement: measurement, Signature: sig, PublicKey: &s.key.PublicKey}
	s.sigMu.Lock()
	if s.sigs == nil {
		s.sigs = make(map[[32]byte]SigStruct)
	}
	s.sigs[measurement] = ss
	s.sigMu.Unlock()
	return ss, nil
}

// MRSigner derives the signer identity from a SIGSTRUCT.
func (ss SigStruct) MRSigner() [32]byte {
	return sha256.Sum256(ss.PublicKey.N.Bytes())
}

type state int

const (
	stateCreated state = iota + 1
	stateInitialized
	stateDestroyed
)

// Stats holds enclave transition and memory counters.
type Stats struct {
	// Ecalls and Ocalls count completed transitions, including the
	// entries of resident threads (EnterResident).
	Ecalls uint64
	Ocalls uint64
	// SwitchlessEcalls counts calls handed to an already-resident thread
	// (Switchless), SwitchlessOcalls the ocalls handed out of one to the
	// untrusted thread waiting on it (SwitchlessOcall). Neither counts
	// in Ecalls/Ocalls or the per-routine maps: no transition happens.
	SwitchlessEcalls uint64
	SwitchlessOcalls uint64
	// EcallsByID and OcallsByID break transitions down per edge routine.
	EcallsByID map[int]uint64
	OcallsByID map[int]uint64
	// HeapBytesInUse is the enclave heap memory handed out so far.
	HeapBytesInUse int
	// Residency reports EPC paging counters.
	Residency epc.ResidencyStats
	// MEE reports encryption-engine counters.
	MEE mee.Stats
}

// Enclave is a simulated SGX enclave.
type Enclave struct {
	cfg   simcfg.Config
	clock *cycles.Clock
	eng   *mee.Engine
	res   *epc.Residency

	mu          sync.Mutex
	st          state
	measurement [32]byte
	mrsigner    [32]byte
	heapInUse   int
	ecallsByID  map[int]uint64
	ocallsByID  map[int]uint64
	// sealCiphers caches the sealing ciphers Seal and Unseal have used
	// (sealing.go); emptied by Destroy.
	sealCiphers map[sealCacheKey]cipher.AEAD

	tcs chan struct{}

	depth            atomic.Int64 // current nesting of enclave execution
	ecalls           atomic.Uint64
	ocalls           atomic.Uint64
	switchlessEcalls atomic.Uint64
	switchlessOcalls atomic.Uint64
}

// Create performs ECREATE: a new enclave shell with empty measurement.
// numTCS bounds concurrently executing enclave threads (<=0 means 8).
func Create(cfg simcfg.Config, clock *cycles.Clock, numTCS int) (*Enclave, error) {
	if clock == nil {
		return nil, errors.New("sgx: nil clock")
	}
	if numTCS <= 0 {
		numTCS = 8
	}
	eng, err := mee.New()
	if err != nil {
		return nil, err
	}
	res, err := epc.NewResidency(cfg.EPCBytes, clock)
	if err != nil {
		return nil, fmt.Errorf("sgx: residency: %w", err)
	}
	e := &Enclave{
		cfg:         cfg,
		clock:       clock,
		eng:         eng,
		res:         res,
		st:          stateCreated,
		measurement: sha256.Sum256(nil),
		ecallsByID:  make(map[int]uint64),
		ocallsByID:  make(map[int]uint64),
		tcs:         make(chan struct{}, numTCS),
	}
	for i := 0; i < numTCS; i++ {
		e.tcs <- struct{}{}
	}
	return e, nil
}

// AddPages performs EADD/EEXTEND: loads image bytes into the enclave and
// extends the measurement over them.
func (e *Enclave) AddPages(data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.st {
	case stateInitialized:
		return ErrAlreadyInit
	case stateDestroyed:
		return ErrDestroyed
	}
	h := sha256.New()
	h.Write(e.measurement[:])
	h.Write(data)
	h.Sum(e.measurement[:0])
	// Loading pages into the EPC costs MEE encryption of the image.
	e.clock.ChargeBytes(len(data), simcfg.MEEBytesPerCycle)
	return nil
}

// Init performs EINIT: the SIGSTRUCT signature is verified and its
// measurement compared against the enclave's accumulated MRENCLAVE.
func (e *Enclave) Init(ss SigStruct) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.st {
	case stateInitialized:
		return ErrAlreadyInit
	case stateDestroyed:
		return ErrDestroyed
	}
	if ss.PublicKey == nil {
		return fmt.Errorf("%w: missing public key", ErrBadSignature)
	}
	if err := verifySigStruct(ss); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if ss.Measurement != e.measurement {
		return fmt.Errorf("%w: sigstruct %x != mrenclave %x", ErrBadMeasurement, ss.Measurement[:8], e.measurement[:8])
	}
	e.mrsigner = ss.MRSigner()
	e.st = stateInitialized
	return nil
}

// verifiedSigs memoizes successful SIGSTRUCT verifications keyed by a
// digest of (public key, measurement, signature). Signature
// verification is deterministic, so re-verifying a bit-identical
// SIGSTRUCT — which World.Restart and the orderly explorer's
// replay-from-scratch resets do thousands of times per run — can skip
// the RSA-PSS arithmetic after the first success. Failures are never
// cached.
var verifiedSigs sync.Map // [32]byte -> struct{}

func verifySigStruct(ss SigStruct) error {
	d := sha256.New()
	d.Write(ss.PublicKey.N.Bytes())
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(ss.PublicKey.E))
	d.Write(e[:])
	d.Write(ss.Measurement[:])
	d.Write(ss.Signature)
	var key [32]byte
	d.Sum(key[:0])
	if _, ok := verifiedSigs.Load(key); ok {
		return nil
	}
	if err := rsa.VerifyPSS(ss.PublicKey, crypto.SHA256, ss.Measurement[:], ss.Signature, nil); err != nil {
		return err
	}
	verifiedSigs.Store(key, struct{}{})
	return nil
}

// Destroy tears the enclave down; subsequent transitions fail.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.st = stateDestroyed
	e.sealCiphers = nil
}

// Measurement returns the current MRENCLAVE.
func (e *Enclave) Measurement() [32]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.measurement
}

// Ecall enters the enclave, runs fn as enclave code, and returns. The
// round-trip transition cost is charged and a TCS slot is held until fn
// returns; while it runs the enclave counts as executing (InEnclave).
// Long-lived residency takes EnterResident instead.
func (e *Enclave) Ecall(id int, fn func() error) error {
	if err := e.checkRunnable(); err != nil {
		return err
	}
	<-e.tcs
	defer func() { e.tcs <- struct{}{} }()
	e.clock.Charge(e.cfg.TransitionCycles(true))
	e.ecalls.Add(1)
	e.mu.Lock()
	e.ecallsByID[id]++
	e.mu.Unlock()
	e.depth.Add(1)
	defer e.depth.Add(-1)
	return fn()
}

// Ocall exits the enclave, runs fn as untrusted code, and re-enters. It
// is an error to issue an ocall when no enclave thread is executing.
func (e *Enclave) Ocall(id int, fn func() error) error {
	if err := e.checkRunnable(); err != nil {
		return err
	}
	if e.depth.Load() == 0 {
		return ErrOcallOutside
	}
	e.clock.Charge(e.cfg.TransitionCycles(false))
	e.ocalls.Add(1)
	e.mu.Lock()
	e.ocallsByID[id]++
	e.mu.Unlock()
	return fn()
}

// EnterResident establishes long-lived enclave residency for the
// calling goroutine: it takes a TCS slot and charges one entry
// transition. The returned leave releases the slot; it is idempotent.
// A resident thread executes enclave code only inside RunResident or
// Switchless, so between calls it does not count as executing
// (InEnclave). The ring data plane takes one residency per ecall ring,
// the in-enclave thread modelled as polling the ring's slot, and the
// world one per gateway lane.
func (e *Enclave) EnterResident() (func(), error) {
	if err := e.checkRunnable(); err != nil {
		return nil, err
	}
	<-e.tcs
	e.clock.Charge(e.cfg.TransitionCycles(true))
	e.ecalls.Add(1)
	var once sync.Once
	leave := func() {
		once.Do(func() { e.tcs <- struct{}{} })
	}
	return leave, nil
}

// RunResident runs fn as enclave code on a thread that is already
// resident (EnterResident), charging nothing: the thread is executing
// inside the enclave for as long as fn runs, so nested ocalls are
// legal. A call through an ecall ring runs its far side this way.
func (e *Enclave) RunResident(fn func() error) error {
	e.depth.Add(1)
	defer e.depth.Add(-1)
	return fn()
}

// Switchless hands fn to an enclave thread that is already resident
// (EnterResident) — the in-enclave worker thread of the paper's §7
// switchless calls: the caller passes fn over through shared memory
// instead of switching context, so the call charges
// simcfg.SwitchlessCallCycles, not a transition, and takes no TCS slot
// of its own. fn runs as RunResident runs it.
func (e *Enclave) Switchless(fn func() error) error {
	if err := e.checkRunnable(); err != nil {
		return err
	}
	e.clock.Charge(simcfg.SwitchlessCallCycles)
	e.switchlessEcalls.Add(1)
	return e.RunResident(fn)
}

// SwitchlessOcall is Switchless outward: enclave code hands fn to the
// untrusted thread polling for its result, which runs it for
// simcfg.SwitchlessCallCycles instead of an exit and re-entry. It keeps
// Ocall's guards: ErrOcallOutside when no enclave thread is executing.
func (e *Enclave) SwitchlessOcall(fn func() error) error {
	if err := e.checkRunnable(); err != nil {
		return err
	}
	if e.depth.Load() == 0 {
		return ErrOcallOutside
	}
	e.clock.Charge(simcfg.SwitchlessCallCycles)
	e.switchlessOcalls.Add(1)
	return fn()
}

// InEnclave reports whether any enclave thread is currently executing.
func (e *Enclave) InEnclave() bool { return e.depth.Load() > 0 }

// TCSCap returns the number of TCS slots the enclave was created with.
func (e *Enclave) TCSCap() int { return cap(e.tcs) }

// TCSInUse returns how many TCS slots are currently held — by in-flight
// ecalls and by residencies (ecall rings, gateway lanes) pinning a slot
// each.
func (e *Enclave) TCSInUse() int { return cap(e.tcs) - len(e.tcs) }

// NewMemory allocates an encrypted memory region of the given size inside
// the enclave, counted against the configured enclave heap bound. It is
// the backend factory for the trusted isolate's heap semispaces.
func (e *Enclave) NewMemory(size int) (*epc.Memory, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == stateDestroyed {
		return nil, ErrDestroyed
	}
	if e.heapInUse+size > e.cfg.EnclaveHeapBytes {
		return nil, fmt.Errorf("%w: in use %d + %d > bound %d", ErrHeapExhausted, e.heapInUse, size, e.cfg.EnclaveHeapBytes)
	}
	m, err := epc.New(size, e.res, e.eng, e.clock)
	if err != nil {
		return nil, err
	}
	e.heapInUse += size
	return m, nil
}

// Clock returns the cycle clock all enclave costs are charged to.
func (e *Enclave) Clock() *cycles.Clock { return e.clock }

// Stats returns a snapshot of transition and memory counters.
func (e *Enclave) Stats() Stats {
	e.mu.Lock()
	ecallsByID := make(map[int]uint64, len(e.ecallsByID))
	for k, v := range e.ecallsByID {
		ecallsByID[k] = v
	}
	ocallsByID := make(map[int]uint64, len(e.ocallsByID))
	for k, v := range e.ocallsByID {
		ocallsByID[k] = v
	}
	heap := e.heapInUse
	e.mu.Unlock()
	return Stats{
		Ecalls:           e.ecalls.Load(),
		Ocalls:           e.ocalls.Load(),
		SwitchlessEcalls: e.switchlessEcalls.Load(),
		SwitchlessOcalls: e.switchlessOcalls.Load(),
		EcallsByID:       ecallsByID,
		OcallsByID:       ocallsByID,
		HeapBytesInUse:   heap,
		Residency:        e.res.Stats(),
		MEE:              e.eng.Stats(),
	}
}

func (e *Enclave) checkRunnable() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.st {
	case stateCreated:
		return ErrNotInitialized
	case stateDestroyed:
		return ErrDestroyed
	}
	return nil
}

// Quote is a simulated attestation quote: a MAC by the platform's
// attestation key over the enclave and signer identities plus
// caller-chosen report data (e.g. a channel-binding nonce).
type Quote struct {
	Measurement [32]byte
	MRSigner    [32]byte
	ReportData  []byte
	MAC         [32]byte
}

// Platform models the attestation infrastructure (quoting enclave plus
// Intel attestation service) sharing a symmetric attestation key.
type Platform struct {
	key [32]byte
}

// NewPlatform creates a platform with a fresh attestation key.
func NewPlatform() (*Platform, error) {
	var p Platform
	if _, err := rand.Read(p.key[:]); err != nil {
		return nil, fmt.Errorf("sgx: platform key: %w", err)
	}
	return &p, nil
}

// NewPlatformFromSeed derives the attestation key from a seed, so two
// processes (an enclave gateway and its remote clients) can model sharing
// one attestation infrastructure: quotes issued under a seed verify only
// against a platform built from the same seed.
func NewPlatformFromSeed(seed []byte) *Platform {
	var p Platform
	h := hmac.New(sha256.New, []byte("sgx-attestation-platform-v1"))
	h.Write(seed)
	copy(p.key[:], h.Sum(nil))
	return &p
}

// Quote produces an attestation quote for an initialized enclave.
func (p *Platform) Quote(e *Enclave, reportData []byte) (Quote, error) {
	e.mu.Lock()
	st := e.st
	meas := e.measurement
	signer := e.mrsigner
	e.mu.Unlock()
	if st != stateInitialized {
		return Quote{}, ErrNotInitializedQ
	}
	q := Quote{
		Measurement: meas,
		MRSigner:    signer,
		ReportData:  append([]byte(nil), reportData...),
	}
	copy(q.MAC[:], p.mac(q))
	return q, nil
}

// Verify checks a quote's MAC and that it attests the expected
// measurement.
func (p *Platform) Verify(q Quote, expectedMeasurement [32]byte) error {
	if !hmac.Equal(q.MAC[:], p.mac(q)) {
		return ErrQuoteForged
	}
	if q.Measurement != expectedMeasurement {
		return fmt.Errorf("%w: quote attests %x, expected %x", ErrBadMeasurement, q.Measurement[:8], expectedMeasurement[:8])
	}
	return nil
}

func (p *Platform) mac(q Quote) []byte {
	h := hmac.New(sha256.New, p.key[:])
	h.Write(q.Measurement[:])
	h.Write(q.MRSigner[:])
	h.Write(q.ReportData)
	return h.Sum(nil)
}

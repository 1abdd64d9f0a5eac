// Package simcfg centralises every calibrated constant of the Montsalvat
// simulation. Each constant is annotated with the paper value (or cited
// source) it is derived from, so the provenance of the cost model is
// auditable in one place.
//
// Two kinds of cost exist in the simulation:
//
//   - transition costs (ecall/ocall), charged in CPU cycles;
//   - memory-traffic costs (MEE encryption/decryption, EPC paging), charged
//     per byte moved in or out of the enclave page cache.
//
// Both are charged on a deterministic cycle ledger (package cycles), the
// currency every test and figure asserts on.
package simcfg

// CPU and SGX platform constants, from the paper's experimental setup
// (§6.1: quad-core Intel Xeon E3-1270 @ 3.80 GHz, EPC 128 MB of which
// 93.5 MB usable) and §2.1 (transitions cost up to 13,100 cycles).
const (
	// CPUHz is the modelled clock frequency (§6.1: 3.80 GHz).
	CPUHz = 3.8e9

	// CacheLineBytes is the MEE encryption granularity: the MEE
	// encrypts/decrypts EPC data at CPU cache-line granularity (§2.1).
	CacheLineBytes = 64

	// PageBytes is the EPC page size used by the SGX paging mechanism.
	PageBytes = 4096

	// DefaultEPCBytes is the usable EPC size (§6.1: 93.5 MB usable
	// by enclaves on the evaluation machine).
	DefaultEPCBytes = 93*1024*1024 + 512*1024

	// EcallCycles is the cost of entering an enclave. §2.1 (citing
	// sgx-perf [55] and Plinius [59]): "These calls induce costly context
	// switches that last up to 13,100 CPU cycles".
	EcallCycles = 13100

	// OcallCycles is the cost of exiting an enclave. Ocalls are measured
	// slightly cheaper than ecalls (sgx-perf [55] reports ~8,000-10,000
	// cycles for the exit path).
	OcallCycles = 8600

	// SwitchlessCallCycles is the transition cost of the future-work
	// switchless-call mode (§7, citing [51]): a worker-thread mailbox
	// avoids the context switch, leaving only cross-core cache-coherence
	// latency. It prices two things: the cost model Config.Switchless
	// applies to every ecall and ocall, and the lane mechanism's
	// hand-offs to a resident thread (sgx.Enclave.Switchless in,
	// SwitchlessOcall out).
	SwitchlessCallCycles = 1200

	// EPCPageEvictCycles is the cost of evicting one EPC page (EWB):
	// re-encryption with a paging key plus version-tree update. VAULT
	// [50] reports tens of thousands of cycles per page; we charge the
	// crypto work for the page plus this fixed kernel-driver overhead.
	EPCPageEvictCycles = 12000

	// EPCPageLoadCycles is the fixed cost of loading a page back (ELDU).
	EPCPageLoadCycles = 14000

	// MEEBytesPerCycle approximates MEE throughput: on-the-fly AES plus
	// integrity-tree verification sustains roughly 1 byte/cycle extra
	// cost relative to plain DRAM access (HotCalls [56] measures 2-6x
	// slowdown on enclave memory-bound workloads). The simulator also
	// performs real AES-CTR work; this constant is used only by the
	// virtual ledger.
	MEEBytesPerCycle = 1.0

	// Modelled costs of AOT-compiled local operations, charged to the
	// virtual ledger so that virtual time is a complete model: the
	// micro-benchmarks compare these few-cycle operations against
	// multi-thousand-cycle enclave transitions (the paper's 3-4 orders
	// of magnitude, §6.2-§6.3).
	LocalCallCycles   = 12 // compiled call + dispatch
	LocalAllocCycles  = 10 // TLAB-style bump allocation
	FieldAccessCycles = 4  // compiled field load/store

	// Java-serialization cost per value element crossing the boundary
	// (§6.3/Fig. 4b). Reflective serialization of an object costs on the
	// order of 100 ns (~400 cycles); reconstructing it is cheaper.
	// Performing either inside the enclave is several times dearer
	// (MEE-taxed buffer construction) — the asymmetry behind the paper's
	// 10x (in->out) vs 3x (out->in) serialization overheads.
	SerializeCyclesPerValue   = 400
	DeserializeCyclesPerValue = 80
	EnclaveSerializeFactor    = 3.5
)

// BatchFlushDepth is the queue depth at which pending
// result-independent relay calls are flushed in one batched transition
// (internal/boundary.Queue).
const BatchFlushDepth = 32

// Zero-copy ring data plane constants (internal/ring): per-worker
// shared-memory SPSC submission/completion rings replacing the
// marshal-copy path. Arguments are encoded straight into an untrusted
// ring slot and sealed in place with AES-GCM, so the per-byte cost is
// one streaming crypto pass instead of an MEE-taxed buffer copy.
const (
	// RingSubmitCycles is the hand-off cost of publishing a submission
	// (or completion) while the other side is actively polling: a
	// cross-core cache-line transfer of the ring indices, well under the
	// switchless mailbox hand-off (HotCalls [56] measures ~600 cycles
	// for a polled shared-memory call; the index bump alone is cheaper).
	RingSubmitCycles = 200

	// RingDoorbellCycles is charged instead of RingSubmitCycles when the
	// resident consumer has gone to sleep and the producer must ring the
	// doorbell — a futex-style wake, the same scale as the switchless
	// mailbox hand-off.
	RingDoorbellCycles = 1200

	// RingCryptoBytesPerCycle is the streaming AES-GCM rate of the
	// in-place slot seal (AES-NI/CLMUL pipelines sustain ~0.5
	// cycles/byte on bulk buffers). It is charged once per direction —
	// encrypt-on-write into the untrusted slot; the trusted-side open
	// is pipelined with the streaming read and not charged separately —
	// versus MEEBytesPerCycle (1 cycle/byte) per marshal copy on the
	// frame path. The simulator also performs real AES-256-GCM work in
	// the slot; this constant is used only by the virtual ledger.
	RingCryptoBytesPerCycle = 2.0

	// DefaultRingWorkers is the number of SPSC rings (each with one
	// resident consumer worker) per direction when Config.RingWorkers is
	// unset: a small number, since each trusted-side consumer pins a TCS
	// slot, and two suffice for the evaluation workloads.
	DefaultRingWorkers = 2

	// DefaultRingSlots is the submission-queue depth per ring when
	// Config.RingSlots is unset (io_uring's default SQ depth region).
	DefaultRingSlots = 64

	// DefaultRingSlotBytes is the plaintext payload capacity of one ring
	// slot when Config.RingSlotBytes is unset. Calls whose encoded
	// request exceeds it fall back to the frame path.
	DefaultRingSlotBytes = 64 << 10
)

// JVM / SCONE runtime-model constants. §6.6 attributes the SCONE+JVM
// slowdown to (1) class loading, bytecode interpretation and dynamic
// compilation and (2) the in-enclave JVM inflating the enclave heap,
// causing more MEE traffic; Table 1's Monte-Carlo anomaly is attributed
// to the native image's serial GC losing to HotSpot's collectors [28].
const (
	// JVMStartupCycles is the flat class-loading/verification cost per
	// run (SPECjvm-style runs amortise most JVM startup, so this term is
	// modest).
	JVMStartupCycles = 20_000_000

	// JVMComputeOverhead is the net compute slowdown of the JVM relative
	// to an AOT native image over a benchmark run: interpretation and
	// JIT compilation of the warm-up phase plus residual dynamic-dispatch
	// overhead.
	JVMComputeOverhead = 0.25

	// JVMHeapInflation is the multiplier on DRAM traffic inside the
	// enclave when a full JVM shares the enclave heap with the
	// application ("the in-enclave JVM increases the number of objects in
	// the enclave heap, which leads to more data exchange between the EPC
	// and CPU", §6.6).
	JVMHeapInflation = 2.9

	// SCONESyscallCycles is the cost of one relayed system call through
	// SCONE's asynchronous syscall interface (sgx-perf [55] measures
	// 10k-25k cycles per relayed call under queue contention).
	SCONESyscallCycles = 22000

	// Allocation + garbage-collection cost per allocated byte. The
	// native image embeds a serial stop-and-copy GC (§6.4) that streams
	// the heap on every cycle; HotSpot's generational collectors touch
	// only live young data (TLAB allocation is nearly free), so the
	// native image pays substantially more per allocated byte — the
	// cause of Table 1's Monte-Carlo result (0.25x). Inside an enclave
	// the GC's copy traffic additionally crosses the MEE, quadrupling
	// the native-image cost.
	NIAllocCyclesPerByte         = 1.0
	NIAllocEnclaveCyclesPerByte  = 4.0
	JVMAllocCyclesPerByte        = 0.25
	JVMAllocEnclaveCyclesPerByte = 0.5
)

// Config carries the tunable parameters of one simulated platform.
// The zero value is not valid; use Default.
type Config struct {
	// CPUHz is the modelled core frequency used to convert cycles to time.
	CPUHz float64

	// EcallCycles and OcallCycles are per-transition costs.
	EcallCycles int64
	OcallCycles int64

	// Switchless selects the reduced-cost transition model (§7 future
	// work): both transition directions cost SwitchlessCallCycles. It is
	// a cost model only — calls still cross with one Ecall or Ocall.
	Switchless bool

	// Batching coalesces result-independent relay calls (void-returning
	// proxy calls, registry releases) into single batched transitions,
	// flushed on result dependency, at BatchFlushDepth pending calls, or
	// by World.Flush.
	Batching bool

	// Rings enables the zero-copy ring data plane: partitioned worlds
	// start per-worker SPSC submission/completion rings in both
	// directions and the world routes fitting proxy calls
	// through them, falling back to the frame path when a payload
	// exceeds the slot capacity or every ring producer is busy.
	Rings bool

	// RingWorkers is the ring (and resident consumer) count per
	// direction when Rings is set (<=0 means DefaultRingWorkers).
	RingWorkers int

	// RingSlots is the submission-queue depth per ring (<=0 means
	// DefaultRingSlots).
	RingSlots int

	// RingSlotBytes is the plaintext payload capacity of one slot (<=0
	// means DefaultRingSlotBytes).
	RingSlotBytes int

	// EPCBytes is the usable EPC size; enclave heaps larger than this
	// trigger paging.
	EPCBytes int

	// EnclaveHeapBytes bounds the enclave heap (§6.1: 4 GB).
	EnclaveHeapBytes int
}

// Default returns the configuration matching the paper's evaluation
// platform (§6.1).
func Default() Config {
	return Config{
		CPUHz:            CPUHz,
		EcallCycles:      EcallCycles,
		OcallCycles:      OcallCycles,
		EPCBytes:         DefaultEPCBytes,
		EnclaveHeapBytes: 4 << 30,
	}
}

// TransitionCycles returns the cycle cost of a transition entering
// (in=true) or exiting (in=false) the enclave under this configuration.
func (c Config) TransitionCycles(in bool) int64 {
	if c.Switchless {
		return SwitchlessCallCycles
	}
	if in {
		return c.EcallCycles
	}
	return c.OcallCycles
}

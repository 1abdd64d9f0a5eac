// Package jvm models the runtime configurations the paper compares in
// §6.6: GraalVM native images versus a HotSpot JVM, running natively,
// inside a bare enclave, or inside a SCONE container in the enclave.
//
// A Model converts the measured base compute of a workload plus its Work
// profile (memory traffic, allocation) into total simulated cycles by
// charging the documented overheads:
//
//   - JVM runs pay class loading plus an interpretation/JIT compute
//     overhead ("the JVM spends some time for class loading, bytecode
//     interpretation and dynamic compilation; these operations are absent
//     in native images", §6.6);
//   - enclave runs pay MEE cost for the workload's DRAM traffic, with
//     the JVM's heap inflation multiplying that traffic ("the in-enclave
//     JVM increases the number of objects in the enclave heap, which
//     leads to more data exchange between the EPC and CPU", §6.6);
//   - allocation pays GC cost per byte: the native image's serial
//     stop-and-copy collector is far more expensive per allocated byte
//     than HotSpot's generational collectors ([28], the cause of
//     Table 1's Monte-Carlo anomaly), and its copy traffic also crosses
//     the MEE inside an enclave;
//   - SCONE relays system calls asynchronously at a per-call cost.
package jvm

import (
	"fmt"
	"time"

	"montsalvat/internal/simcfg"
	"montsalvat/internal/specjvm"
)

// RuntimeKind selects the language runtime.
type RuntimeKind int

// Runtime kinds.
const (
	// NativeImage is an AOT-compiled GraalVM native image.
	NativeImage RuntimeKind = iota + 1
	// HotSpotJVM is a conventional JVM (class loading + JIT).
	HotSpotJVM
)

func (k RuntimeKind) String() string {
	if k == NativeImage {
		return "native-image"
	}
	return "jvm"
}

// Platform selects where the runtime executes.
type Platform int

// Platforms.
const (
	// Native runs outside any enclave.
	Native Platform = iota + 1
	// SGX runs inside a bare enclave (Montsalvat-style).
	SGX
	// SCONE runs inside an enclave under a SCONE container (libc
	// replacement + asynchronous system calls).
	SCONE
)

func (p Platform) String() string {
	switch p {
	case Native:
		return "native"
	case SGX:
		return "sgx"
	default:
		return "scone"
	}
}

// Model is one runtime configuration.
type Model struct {
	Runtime  RuntimeKind
	Platform Platform
}

// The four configurations of Fig. 12.
var (
	NoSGXJVM = Model{Runtime: HotSpotJVM, Platform: Native}
	NoSGXNI  = Model{Runtime: NativeImage, Platform: Native}
	SGXNI    = Model{Runtime: NativeImage, Platform: SGX}
	SCONEJVM = Model{Runtime: HotSpotJVM, Platform: SCONE}
)

func (m Model) String() string {
	switch m {
	case NoSGXJVM:
		return "NoSGX+JVM"
	case NoSGXNI:
		return "NoSGX-NI"
	case SGXNI:
		return "SGX-NI"
	case SCONEJVM:
		return "SCONE+JVM"
	default:
		return fmt.Sprintf("%s/%s", m.Runtime, m.Platform)
	}
}

// InEnclave reports whether the platform runs inside an enclave.
func (m Model) InEnclave() bool { return m.Platform == SGX || m.Platform == SCONE }

// Overheads breaks total cycles down by cause.
type Overheads struct {
	// Base is the workload's own compute.
	Base int64
	// Startup is class loading / verification (JVM only).
	Startup int64
	// Interp is interpretation/JIT compute overhead (JVM only).
	Interp int64
	// MEE is memory-encryption cost on DRAM traffic (enclave only).
	MEE int64
	// GC is allocation + collection cost.
	GC int64
	// Syscalls is SCONE's asynchronous syscall relay cost.
	Syscalls int64
}

// Total sums all components.
func (o Overheads) Total() int64 {
	return o.Base + o.Startup + o.Interp + o.MEE + o.GC + o.Syscalls
}

// Charged sums the components the work profile alone decides. Base and
// Interp scale with the measured host time of the kernel; the rest is
// the model's cycle ledger and repeats exactly from run to run.
func (o Overheads) Charged() int64 {
	return o.Startup + o.MEE + o.GC + o.Syscalls
}

// Apply charges the model's overheads for a workload with the given
// measured base compute cycles, work profile and relayed system calls.
func (m Model) Apply(baseCycles int64, w specjvm.Work, syscalls int64) Overheads {
	o := Overheads{Base: baseCycles}

	if m.Runtime == HotSpotJVM {
		o.Startup = simcfg.JVMStartupCycles
		o.Interp = int64(float64(baseCycles) * simcfg.JVMComputeOverhead)
	}

	if m.InEnclave() {
		dram := float64(w.DRAMBytes)
		if m.Runtime == HotSpotJVM {
			dram *= simcfg.JVMHeapInflation
		}
		o.MEE = int64(dram / simcfg.MEEBytesPerCycle)
	}

	switch {
	case m.Runtime == NativeImage && m.InEnclave():
		o.GC = int64(float64(w.AllocBytes) * simcfg.NIAllocEnclaveCyclesPerByte)
	case m.Runtime == NativeImage:
		o.GC = int64(float64(w.AllocBytes) * simcfg.NIAllocCyclesPerByte)
	case m.InEnclave():
		o.GC = int64(float64(w.AllocBytes) * simcfg.JVMAllocEnclaveCyclesPerByte)
	default:
		o.GC = int64(float64(w.AllocBytes) * simcfg.JVMAllocCyclesPerByte)
	}

	if m.Platform == SCONE {
		o.Syscalls = syscalls * simcfg.SCONESyscallCycles
	}
	return o
}

// Measurement is the model-independent base of one kernel run: the
// measured compute plus the work profile. Applying different models to
// the SAME measurement keeps cross-model comparisons free of run-to-run
// measurement noise.
type Measurement struct {
	Kernel   string
	Size     int
	Checksum float64
	// Wall is the measured Go execution time of the kernel itself.
	Wall time.Duration
	// BaseCycles is Wall at the modelled clock.
	BaseCycles int64
	Work       specjvm.Work
}

// Result is one modelled kernel run.
type Result struct {
	Model    Model
	Kernel   string
	Size     int
	Checksum float64
	// WallBase is the measured Go execution time of the kernel itself.
	WallBase time.Duration
	// Overheads is the cycle breakdown; Duration is Overheads.Total()
	// at the modelled clock.
	Overheads Overheads
	Duration  time.Duration
}

// Runner executes kernels under runtime models.
type Runner struct {
	hz float64
}

// NewRunner creates a runner converting wall time to cycles at the
// modelled clock frequency (simcfg.CPUHz when hz <= 0).
func NewRunner(hz float64) *Runner {
	if hz <= 0 {
		hz = simcfg.CPUHz
	}
	return &Runner{hz: hz}
}

// Hz returns the modelled clock frequency.
func (r *Runner) Hz() float64 { return r.hz }

// Measure runs the kernel (taking the fastest of three runs to suppress
// scheduling noise) and returns the model-independent measurement.
func (r *Runner) Measure(k specjvm.Kernel, size int) Measurement {
	if size <= 0 {
		size = k.DefaultSize
	}
	var (
		best time.Duration
		cs   float64
		work specjvm.Work
	)
	for i := 0; i < 3; i++ {
		start := time.Now()
		cs, work = k.Run(size)
		wall := time.Since(start)
		if i == 0 || wall < best {
			best = wall
		}
	}
	return Measurement{
		Kernel:     k.Name,
		Size:       size,
		Checksum:   cs,
		Wall:       best,
		BaseCycles: int64(best.Seconds() * r.hz),
		Work:       work,
	}
}

// ApplyTo charges a model's overheads onto a measurement.
func (r *Runner) ApplyTo(m Model, meas Measurement) Result {
	o := m.Apply(meas.BaseCycles, meas.Work, 0)
	return Result{
		Model:     m,
		Kernel:    meas.Kernel,
		Size:      meas.Size,
		Checksum:  meas.Checksum,
		WallBase:  meas.Wall,
		Overheads: o,
		Duration:  time.Duration(float64(o.Total()) / r.hz * float64(time.Second)),
	}
}

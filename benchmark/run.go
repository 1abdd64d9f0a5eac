package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sample is one reported number and the count of measurements behind it.
type sample struct {
	value float64
	n     int
}

// outcome is everything one workload's run reports.
type outcome struct {
	metrics   map[string]sample
	attempted int
	failed    int
	lost      int
	firstErr  error
}

func (o *outcome) set(name string, v float64, n int) { o.metrics[name] = sample{v, n} }

func (o *outcome) note(err error) {
	if err != nil && o.firstErr == nil {
		o.firstErr = err
	}
}

// client is the closed-loop caller: it sends its next op only after the
// previous one returned.
type client struct {
	kv  kv
	led *ledger
	gen *opGen
	// readGen is a stream of gets over the small values, for the read
	// phase of a workload whose mix has no gets.
	readGen *opGen

	getNS, putNS []int64 // latencies of ops over small values
	lastNS       int64
	ops          int
	failed       int
	lost         int
	firstErr     error
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// do executes one op, checks what came back against the acked-write
// ledger, and returns the time the op ended. An op that errors counts
// as failed and contributes no latency sample.
func (c *client) do(o op) time.Time {
	c.ops++
	name := keyName(o.key)
	var t0, t1 time.Time
	switch o.kind {
	case opPut:
		val := c.led.nextValue(o)
		t0 = time.Now()
		err := c.kv.Put(name, val)
		t1 = time.Now()
		if err != nil {
			c.fail(fmt.Errorf("put %s: %w", name, err))
			return t1
		}
		c.led.ack(o.key)
		if o.size == smallValue {
			c.putNS = append(c.putNS, int64(t1.Sub(t0)))
		}
	case opGet:
		t0 = time.Now()
		got, ok, err := c.kv.Get(name)
		t1 = time.Now()
		if err != nil {
			c.fail(fmt.Errorf("get %s: %w", name, err))
			return t1
		}
		if !c.led.holds(o.key, got, ok) {
			c.lost++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("get %s: acked version %d not served (found=%v, %d bytes)", name, c.led.acked[o.key], ok, len(got))
			}
		}
		if o.size == smallValue {
			c.getNS = append(c.getNS, int64(t1.Sub(t0)))
		}
	case opLifecycle:
		lc, ok := c.kv.(interface{ Lifecycle(key, val string) error })
		if !ok {
			c.fail(errNoLifecycle)
			return time.Now()
		}
		val := value(o.key, 0, o.size)
		t0 = time.Now()
		err := lc.Lifecycle(name, val)
		t1 = time.Now()
		if err != nil {
			c.fail(fmt.Errorf("lifecycle %s: %w", name, err))
		}
	}
	c.lastNS = int64(t1.Sub(t0))
	return t1
}

// samples are the latencies recorded so far for one op kind.
func (c *client) samples(kind opKind) []int64 {
	if kind == opGet {
		return c.getNS
	}
	return c.putNS
}

// readBack reads every key and checks it against the ledger; a missing
// or stale value is a lost acked write.
func (c *client) readBack(wl *workload) {
	for key := 0; key < wl.keys(); key++ {
		c.do(op{kind: opGet, key: key, size: wl.classOf(key).size})
	}
}

// drain moves the client's counters into the outcome and resets them.
func (c *client) drain(out *outcome) {
	out.attempted += c.ops
	out.failed += c.failed
	out.lost += c.lost
	out.note(c.firstErr)
	c.ops, c.failed, c.lost, c.firstErr = 0, 0, 0, nil
	c.getNS, c.putNS = c.getNS[:0], c.putNS[:0]
}

// cpuTime is the process's user+system CPU time and its involuntary
// context switches so far.
func cpuTime() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Nivcsw
}

var calibAEAD = func() cipher.AEAD {
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		panic(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	return aead
}()

// calibBuf holds the calibration kernel's 1 MiB message, room for its
// tag, and its nonce.
var calibBuf = make([]byte, 1<<20+16+12)

// calibrate times a fixed kernel, AES-256-GCM over 1 MiB, and returns
// the median of five runs in ns. It moves with the machine and not with
// the code under test.
func calibrate() float64 {
	buf, nonce := calibBuf[:1<<20], calibBuf[1<<20+16:]
	var runs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		calibAEAD.Seal(buf[:0], nonce, buf, nil)
		runs = append(runs, float64(time.Since(start)))
	}
	return median(runs)
}

// calibRefNS is the time the calibration kernel takes on the reference
// machine, which is this class of box when nothing disturbs it.
const calibRefNS = 250_000

// pace brackets a stretch of host time with two runs of the calibration
// kernel. A shared host changes speed by tens of percent for seconds to
// minutes at a time, and the kernel changes with it (README, "Why the
// host metrics are paced"): every host time is divided by how much
// slower than the reference machine the kernel ran around it, so it is
// a time on the reference machine, which does not drift.
type pace struct {
	s      *session
	before float64
}

func (s *session) startPace() pace {
	c := calibrate()
	s.calib = append(s.calib, c)
	return pace{s, c}
}

// stop returns the slowdown over the stretch: 1 on the reference
// machine, more on a slower one.
func (p pace) stop() float64 {
	c := calibrate()
	p.s.calib = append(p.s.calib, c)
	return (p.before + c) / (2 * calibRefNS)
}

// roundResult is one timed round's per-round values; a wall metric is
// the median of its rounds' values.
type roundResult struct {
	opsPerS  float64
	cpuPerOp float64 // µs
	get, put []float64
	ops      int
}

// hostDelta is what the Go runtime and the kernel report over the timed
// part of the rounds, summed; heapInuse is the last reading.
type hostDelta struct {
	allocBytes uint64
	gcPauseNS  uint64
	heapInuse  uint64
	involCS    int64
}

// hostMark is one reading of the counters hostDelta sums.
type hostMark struct {
	mem runtime.MemStats
	cs  int64
}

func markHost() *hostMark {
	var m hostMark
	runtime.ReadMemStats(&m.mem)
	_, m.cs = cpuTime()
	return &m
}

// since adds what happened after from to the delta.
func (h *hostDelta) since(from *hostMark) {
	now := markHost()
	h.allocBytes += now.mem.TotalAlloc - from.mem.TotalAlloc
	h.gcPauseNS += now.mem.PauseTotalNs - from.mem.PauseTotalNs
	h.involCS += now.cs - from.cs
	h.heapInuse = now.mem.HeapInuse
}

// session runs one workload: set-up and warm-up, then a spare stack
// and a timed round with its read-back in turn, then the traced pass.
// Rounds of different sessions may be interleaved; the stack stays
// alive between them.
type session struct {
	wl    *workload
	seed  int64
	trace bool
	out   *outcome

	setups    []float64 // s, one per full set-up
	boots     []float64 // ms, fabric.New share of each set-up
	recovers  []float64 // ms, one per product recovery call
	handshake []float64 // ms, one per serve.Dial
	ledgerCPO []float64 // cycles per op, one per ledger pass
	ledgerN   int       // ops sent by all ledger passes
	promoteCy []float64 // promoted shard's cycles right after Promote

	main   *stack
	client *client
	rounds []roundResult
	calib  []float64
	host   hostDelta

	// window is the time the failover workload's cycles may still use.
	window time.Duration
}

func newSession(wl *workload, seed int64, trace bool) *session {
	return &session{wl: wl, seed: seed, trace: trace, out: &outcome{metrics: map[string]sample{}}}
}

// spareRestarts is how many recovery samples a spare stack gives (a
// fabric: one per shard, its one standby can be promoted once).
const spareRestarts = 2

// setUp builds the workload's stack and preloads every key in key
// order. It is the whole of what setup_s times: build, boot, attest,
// preload.
func (s *session) setUp() (*stack, *ledger, error) {
	// The stack before this one left its simulated memory behind; it is
	// collected now, not at some point of the set-up being timed.
	runtime.GC()
	pace := s.startPace()
	start := time.Now()
	st, err := s.wl.build()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", s.wl.name, err)
	}
	led := newLedger(s.wl)
	// A router dials a shard on first use: the preload touches every
	// shard, so no session handshake falls into a timed round.
	pre := &client{kv: st.client, led: led}
	for key := 0; key < s.wl.keys(); key++ {
		pre.do(op{kind: opPut, key: key, size: s.wl.classOf(key).size})
	}
	pre.drain(s.out)
	took := time.Since(start)
	s.setups = append(s.setups, took.Seconds()/pace.stop())
	s.boots = append(s.boots, float64(st.bootTime)/1e6)
	for _, d := range st.handshakes {
		s.handshake = append(s.handshake, float64(d)/1e6)
	}
	return st, led, nil
}

// ledgerPass sends ops through st and records the stack's cycles per op
// over them: the simulated-currency figure.
func (s *session) ledgerPass(st *stack, led *ledger, ops []op) {
	c := &client{kv: st.client, led: led}
	st.quiesce()
	before := st.cycles()
	for _, o := range ops {
		c.do(o)
	}
	st.quiesce()
	s.ledgerCPO = append(s.ledgerCPO, float64(st.cycles()-before)/float64(len(ops)))
	s.ledgerN += len(ops)
	c.drain(s.out)
}

// restartAndVerify takes recovery samples from st and, where the stack
// is durable, reads the whole ledger back afterwards.
func (s *session) restartAndVerify(st *stack, led *ledger, times int) error {
	if st.fabric != nil {
		times = 1 // a shard's one standby can be promoted once
	}
	for i := 0; i < times; i++ {
		pace := s.startPace()
		ds, err := st.restart()
		if err != nil {
			return fmt.Errorf("%s: restart: %w", s.wl.name, err)
		}
		slowdown := pace.stop()
		for _, d := range ds {
			s.recovers = append(s.recovers, float64(d)/1e6/slowdown)
		}
	}
	if st.recoverable() {
		c := &client{kv: st.client, led: led}
		c.readBack(s.wl)
		c.drain(s.out)
	}
	return nil
}

// spare sets the workload up once more on a stack of its own, runs the
// ledger pass on it (a store with a fixed history), takes recovery
// samples over that fixed volume and closes it. One spare precedes every
// timed round, so the samples of setup_s, recover_ms and cycles_per_op
// are spread over the whole run like those of the wall metrics.
func (s *session) spare() error {
	st, led, err := s.setUp()
	if err != nil {
		return err
	}
	defer runtime.GC()
	defer st.close()
	s.ledgerPass(st, led, s.wl.ledgerStream(s.seed))
	return s.restartAndVerify(st, led, spareRestarts)
}

// prepare sets up the stack the timed rounds run on and warms it up.
func (s *session) prepare() error {
	if s.wl.failover {
		// A cycle sets itself up; one untimed cycle warms the process.
		if err := s.failoverCycle(); err != nil {
			return err
		}
		s.setups, s.boots, s.recovers, s.promoteCy, s.rounds = nil, nil, nil, nil, nil
		return nil
	}
	st, led, err := s.setUp()
	if err != nil {
		return err
	}
	s.main = st
	s.client = &client{kv: st.client, led: led, gen: newOpGen(s.wl, s.seed)}
	if !s.wl.hasGets() {
		reads := *s.wl
		reads.mix = []mixEntry{{opGet, 0, 1}}
		s.client.readGen = newOpGen(&reads, s.seed)
	}
	s.drive(time.Now().Add(warmUp))
	for limit := time.Now().Add(time.Minute); !s.main.heapSettled(); {
		if time.Now().After(limit) {
			return fmt.Errorf("%s: trusted heap still growing after a minute of warm-up", s.wl.name)
		}
		s.drive(time.Now().Add(warmUp / 10))
	}
	s.client.drain(s.out)
	return nil
}

// warmUp is how long the client runs, at least, before the first timed
// round: the session is dialled and the store preloaded by then, this
// fills buffer pools and grows the heaps.
const warmUp = 2 * time.Second

// runUntil sends ops from g, each after the previous one returned, until
// the deadline has passed.
func (c *client) runUntil(deadline time.Time, g *opGen) {
	for now := time.Now(); now.Before(deadline); {
		now = c.do(g.next())
	}
}

// drive runs the client on its workload stream until the deadline.
func (s *session) drive(deadline time.Time) {
	s.client.runUntil(deadline, s.client.gen)
}

// round runs one timed round of length d.
func (s *session) round(d time.Duration) {
	if s.wl.failover {
		s.roundFailover(d)
		return
	}
	if err := s.spare(); err != nil {
		s.out.failed++
		s.out.note(err)
	}
	// Every round starts from a freshly truncated log, so that rounds
	// are comparable and the run's length does not decide its result.
	if err := s.main.checkpoint(); err != nil {
		s.out.failed++
		s.out.note(fmt.Errorf("%s: checkpoint: %w", s.wl.name, err))
	}
	// A workload whose mix has no gets spends the last fifth of each
	// round reading, so that get_* exists on it too; its throughput and
	// CPU per op are those of the writing part.
	mixed := d
	if !s.wl.hasGets() {
		mixed = d * 4 / 5
	}
	mark := markHost()
	pace := s.startPace()
	cpu0, _ := cpuTime()
	start := time.Now()
	s.drive(start.Add(mixed))
	elapsed := time.Since(start)
	cpu1, _ := cpuTime()
	s.host.since(mark)

	c := s.client
	r := roundResult{ops: c.ops}
	if mixed < d {
		c.runUntil(start.Add(d), c.readGen)
	}
	slowdown := pace.stop()
	r.get, r.put = durationsUS(c.getNS, slowdown), durationsUS(c.putNS, slowdown)
	c.drain(s.out)
	// Every key is read back after every round: the correctness check.
	c.readBack(s.wl)
	c.drain(s.out)
	r.opsPerS = float64(r.ops) / elapsed.Seconds() * slowdown
	r.cpuPerOp = ratio(float64(cpu1-cpu0)/1e3, float64(r.ops)) / slowdown
	s.rounds = append(s.rounds, r)
}

// finish climbs the traced ladder if asked to, reads the ledger back
// through a restart where the stack is durable, closes the stack, and
// turns the rounds into metrics. It returns the ladder's spans.
func (s *session) finish() ([]span, error) {
	var spans []span
	if s.trace {
		var err error
		if spans, err = s.tracedPass(); err != nil {
			return nil, err
		}
	}
	if s.main != nil {
		var err error
		if s.main.recoverable() {
			recovers := s.recovers
			err = s.restartAndVerify(s.main, s.client.led, 1)
			// The main stack's log grew with the run's throughput; only
			// the spares' fixed volume feeds recover_ms.
			s.recovers = recovers
		}
		s.main.close()
		s.main = nil
		if err != nil {
			return nil, err
		}
	}
	s.endToEnd()
	return spans, nil
}

// endToEnd derives the end-to-end metrics from the rounds and passes.
func (s *session) endToEnd() {
	pick := func(f func(roundResult) float64) []float64 {
		var vs []float64
		for _, r := range s.rounds {
			vs = append(vs, f(r))
		}
		return vs
	}
	var ops, gets, puts int
	for _, r := range s.rounds {
		ops += r.ops
		gets += len(r.get)
		puts += len(r.put)
	}
	opsPerS := pick(func(r roundResult) float64 { return r.opsPerS })
	o := s.out
	o.set("ops_per_s", median(opsPerS), ops)
	o.set("cpu_us_per_op", median(pick(func(r roundResult) float64 { return r.cpuPerOp })), ops)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}} {
		q := q
		o.set("get_"+q.name+"_us", median(pick(func(r roundResult) float64 { return percentile(r.get, q.q) })), gets)
		o.set("put_"+q.name+"_us", median(pick(func(r roundResult) float64 { return percentile(r.put, q.q) })), puts)
	}
	o.set("recover_ms", median(s.recovers), len(s.recovers))
	o.set("cycles_per_op", median(s.ledgerCPO), s.ledgerN)
	o.set("setup_s", median(s.setups), len(s.setups))

	// The tail is reported over all rounds pooled, ungated.
	var allGet, allPut []float64
	for _, r := range s.rounds {
		allGet = append(allGet, r.get...)
		allPut = append(allPut, r.put...)
	}
	sort.Float64s(allGet)
	sort.Float64s(allPut)
	o.set("driver.get_p99_us", percentile(allGet, tailQuantile(gets)), gets)
	o.set("driver.put_p99_us", percentile(allPut, tailQuantile(puts)), puts)
	o.set("driver.ops", float64(ops), len(s.rounds))
	o.set("driver.round_spread", spread(opsPerS), len(opsPerS))
	o.set("driver.cycles_repeat_diff", spread(s.ledgerCPO), len(s.ledgerCPO))
	o.set("driver.failed_ratio", ratio(float64(o.failed), float64(o.attempted)), o.attempted)
	o.set("driver.lost_acked_writes", float64(o.lost), o.attempted)
	o.set("host.calib_ns", median(s.calib), len(s.calib))
	o.set("host.alloc_bytes_per_op", ratio(float64(s.host.allocBytes), float64(ops)), ops)
	o.set("host.gc_pause_ms", float64(s.host.gcPauseNS)/1e6, 1)
	o.set("host.heap_inuse_mb", float64(s.host.heapInuse)/(1<<20), 1)
	o.set("host.invol_ctx_switches", float64(s.host.involCS), 1)
	o.set("serve.handshake_ms", median(s.handshake), len(s.handshake))
	o.set("fabric.boot_ms", median(s.boots), len(s.boots))
	o.set("fabric.promote_cycles", median(s.promoteCy), len(s.promoteCy))
}

package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	// opLifecycle is the proxy life cycle of the rmi workload: create a
	// trusted object from the untrusted side, call it twice, drop it.
	opLifecycle
)

func (k opKind) String() string { return [...]string{"get", "put", "lifecycle"}[k] }

// op is one generated request. The product only ever sees key and value
// strings derived from it.
type op struct {
	kind opKind
	key  int
	size int // value size in bytes of the key's class
}

// smallValue is the value size the get_*/put_* latency metrics are
// taken over on every workload; larger classes count toward ops_per_s
// and the per-layer counters but contribute no latency sample, so the
// percentiles stay unimodal.
const smallValue = 64

// keyClass is a contiguous key range whose values all have one size.
// Sizes are fixed per key so that an overwrite never changes how much
// data a later get returns.
type keyClass struct {
	lo, hi int
	size   int
}

// mixEntry is one line of a workload's traffic mix: count ops of this
// kind on this key class in every block of the stream.
type mixEntry struct {
	kind  opKind
	class int
	count int
}

// workload describes one traffic mix and the stack it runs against.
type workload struct {
	name string
	why  string
	// classes and mix define the op stream of the steady workloads; the
	// failover workload's stream is the fixed volume in failoverOps.
	classes []keyClass
	mix     []mixEntry
	// build constructs the workload's own stack.
	build func() (*stack, error)
	// rungs is the ladder of the traced pass, lowest first.
	rungs []rung
	// exactCycles says the ledger pass must repeat bit-identically.
	exactCycles bool
	failover    bool
	// gapKind is the op kind the ladder's self-check compares: puts,
	// which cross every layer, except where puts are only queued.
	gapKind opKind
	// absent lists the metric-name prefixes of layers that do no work on
	// this workload; their metrics are reported as 0 over 0 samples.
	absent []string
}

// failoverRecords is the fixed write volume of one failover cycle: it
// keeps promote time independent of write throughput.
const failoverRecords = 2000

// ledgerOps is the length of the sequential single-client pass that
// yields the simulated-currency numbers and every per-op count.
const ledgerOps = 2000

// workloads returns the four workloads in their fixed run order.
func workloads() []*workload {
	uniform := []keyClass{{0, 1024, smallValue}}
	return []*workload{
		{
			name:    "rmi",
			why:     "In-process partitioned World, all crossing routes live, 64 B to 96 KiB payloads plus proxy life cycles: the paper's RMI core; serve, persist and fabric do nothing.",
			classes: []keyClass{{0, 192, smallValue}, {192, 240, 4 << 10}, {240, 256, 96 << 10}},
			mix: []mixEntry{
				{opGet, 0, 43}, {opGet, 1, 1}, {opGet, 2, 1},
				{opPut, 0, 39}, {opPut, 1, 10}, {opPut, 2, 1},
				{opLifecycle, 0, 5},
			},
			build: func() (*stack, error) { return newWorldStack(true) },
			rungs: []rung{rungWorldFull},
			// With batching on a put returns once queued; the get that
			// follows flushes it, so gets are what cross synchronously.
			gapKind: opGet,
			absent:  []string{"serve.", "persist.", "shim.self", "shim.dirfs", "shim.memfs", "sgx.seal", "fabric."},
		},
		{
			name:        "gateway-mixed",
			why:         "Durable gateway on DirFS over loopback, 80% get / 20% put, 1,024 keys: session, framing and admission dominate a get; the only real-filesystem append path.",
			classes:     uniform,
			mix:         []mixEntry{{opGet, 0, 80}, {opPut, 0, 20}},
			build:       func() (*stack, error) { return newGatewayStack(fsDir) },
			rungs:       []rung{rungWorld, rungGateway, rungDurableMem, rungDurableDir},
			exactCycles: true,
			gapKind:     opPut,
			absent:      []string{"fabric."},
		},
		{
			name:        "fabric-write",
			why:         "2 shards x 1 replica, 100% routed puts: WAL seal and append, replica ship and watermark ack do most of the work; the path of the recorded throughput flatline.",
			classes:     uniform,
			mix:         []mixEntry{{opPut, 0, 100}},
			build:       func() (*stack, error) { return newFabricStack(2, 1, nil) },
			rungs:       []rung{rungWorld, rungGateway, rungDurableMem, rungFabric2, rungFabric2Replica},
			exactCycles: true,
			gapKind:     opPut,
			absent:      []string{"shim.self"},
		},
		{
			name:        "failover",
			why:         "1 shard x 1 replica: put 2,000 records, kill, promote, read all back, repeat: replay and promotion, so a write-path gain bought with slower recovery shows.",
			classes:     []keyClass{{0, failoverRecords, smallValue}},
			rungs:       []rung{rungWorld, rungGateway, rungDurableMem, rungFabric1, rungFabric1Replica},
			exactCycles: true,
			failover:    true,
			gapKind:     opPut,
			absent:      []string{"shim.self"},
		},
	}
}

func workloadByName(name string) *workload {
	for _, wl := range workloads() {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// hasGets reports whether the timed rounds of the workload read.
func (wl *workload) hasGets() bool {
	for _, m := range wl.mix {
		if m.kind == opGet {
			return true
		}
	}
	return wl.failover
}

func (wl *workload) keys() int { return wl.classes[len(wl.classes)-1].hi }

func (wl *workload) classOf(key int) keyClass {
	for _, c := range wl.classes {
		if key < c.hi {
			return c
		}
	}
	panic(fmt.Sprintf("benchmark: key %d outside workload %s", key, wl.name))
}

// opGen is the seeded op stream. The stream is a sequence of blocks,
// each holding exactly the workload's mix in a seeded order, so every
// seed sends the same amount of each kind of work and differs only in
// order and keys.
type opGen struct {
	wl    *workload
	rng   *rand.Rand
	block []mixEntry // one entry per op, count unused
	pos   int
}

func newOpGen(wl *workload, seed int64) *opGen {
	g := &opGen{wl: wl, rng: rand.New(rand.NewSource(seed))}
	for _, m := range wl.mix {
		for i := 0; i < m.count; i++ {
			g.block = append(g.block, m)
		}
	}
	g.pos = len(g.block)
	return g
}

func (g *opGen) next() op {
	if g.pos == len(g.block) {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	m := g.block[g.pos]
	g.pos++
	c := g.wl.classes[m.class]
	return op{kind: m.kind, key: c.lo + g.rng.Intn(c.hi-c.lo), size: c.size}
}

// failoverOps is the fixed volume of one failover cycle: every key
// written once in a seeded order, then every key read back in another.
func failoverOps(seed int64) (puts, gets []op) {
	rng := rand.New(rand.NewSource(seed))
	for _, kind := range []opKind{opPut, opGet} {
		ops := make([]op, failoverRecords)
		for i, k := range rng.Perm(failoverRecords) {
			ops[i] = op{kind: kind, key: k, size: smallValue}
		}
		if kind == opPut {
			puts = ops
		} else {
			gets = ops
		}
	}
	return puts, gets
}

// ledgerStream is the op sequence of the ledger and traced passes: the
// first ledgerOps ops of the seeded stream, or one failover cycle's
// volume.
func (wl *workload) ledgerStream(seed int64) []op {
	if wl.failover {
		puts, gets := failoverOps(seed)
		return append(puts, gets...)
	}
	g := newOpGen(wl, seed)
	ops := make([]op, ledgerOps)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// streamHash fingerprints an op sequence.
func streamHash(ops []op) uint64 {
	h := fnv.New64a()
	for _, o := range ops {
		fmt.Fprintf(h, "%d/%d/%d;", o.kind, o.key, o.size)
	}
	return h.Sum64()
}

func keyName(key int) string { return fmt.Sprintf("k%06d", key) }

var padding = strings.Repeat("x", 96<<10)

// value is the deterministic content of version ver of a key: a header
// naming both, padded to the key's class size. A read can therefore be
// checked against the acked-write ledger exactly.
func value(key int, ver int32, size int) string {
	head := fmt.Sprintf("k%06d.v%09d.", key, ver)
	return head + padding[:size-len(head)]
}

// ledger is the record of acked writes of one stack: per key the last
// version whose put was acknowledged and the last version attempted.
type ledger struct {
	wl    *workload
	acked []int32
	tried []int32
}

func newLedger(wl *workload) *ledger {
	return &ledger{wl: wl, acked: make([]int32, wl.keys()), tried: make([]int32, wl.keys())}
}

// nextValue starts a write of key and returns its content.
func (l *ledger) nextValue(o op) string {
	l.tried[o.key]++
	return value(o.key, l.tried[o.key], o.size)
}

func (l *ledger) ack(key int) { l.acked[key] = l.tried[key] }

// holds reports whether got is what the ledger promises for key: the
// last acked version, or the one attempt that failed after it (a put
// that errored may still have landed). A key never acked must be
// absent or hold that failed attempt.
func (l *ledger) holds(key int, got string, ok bool) bool {
	size := l.wl.classOf(key).size
	if ok && l.tried[key] > l.acked[key] && got == value(key, l.tried[key], size) {
		return true
	}
	if l.acked[key] == 0 {
		return !ok
	}
	return ok && got == value(key, l.acked[key], size)
}

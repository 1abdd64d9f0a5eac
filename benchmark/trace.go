package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/persist"
	"montsalvat/internal/shim"
	"montsalvat/internal/wire"
)

// span is one op on one rung of the ladder. Spans of one request share
// Op; Parent names the rung above, whose span of the same op covers
// this rung's work plus one more layer.
type span struct {
	Op      int    `json:"op"`
	Kind    string `json:"kind"`
	Rung    string `json:"rung"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent,omitempty"`
	Cycles  int64  `json:"cycles"`
}

// rungPass is what one rung of the ladder measured.
type rungPass struct {
	rung          rung
	before, after snapshot
	walBytes      int64
	ops           int
}

// rungMedians are one rung's medians over the small-value ops of a
// kind: wall µs and simulated cycles.
type rungMedians struct{ us, cycles float64 }

// kindMedians returns a rung's medians over the spans of one op kind
// that carry small values.
func kindMedians(spans []span, ops []op, rungName string, kind opKind) rungMedians {
	var us, cy []float64
	for _, sp := range spans {
		if sp.Rung == rungName && ops[sp.Op].kind == kind && ops[sp.Op].size == smallValue {
			us = append(us, float64(sp.EndNS-sp.StartNS)/1e3)
			cy = append(cy, float64(sp.Cycles))
		}
	}
	return rungMedians{median(us), median(cy)}
}

// selfTimes turns a ladder's rung medians, lowest rung first, into self
// times: each rung's median minus the one below it. The differences
// telescope, so they sum to the top rung's median exactly.
func selfTimes(rungs []rungMedians) []rungMedians {
	out := make([]rungMedians, len(rungs))
	var below rungMedians
	for i, r := range rungs {
		out[i] = rungMedians{r.us - below.us, r.cycles - below.cycles}
		below = r
	}
	return out
}

// ladderGap is how far the top rung's median is from the untraced
// single-client pass over the same ops, as a share of the latter:
// signed it is the tracing overhead, in magnitude the ladder's
// self-check.
func ladderGap(topUS, untracedUS float64) float64 {
	return ratio(topUS-untracedUS, untracedUS)
}

// traceEpoch is the zero of every span's clock.
var traceEpoch = time.Now()

// climber is one rung of the ladder while it is being climbed.
type climber struct {
	rung   rung
	parent string
	st     *stack
	c      *client
	before snapshot
	wal0   int64
}

// ladderChunk is how many consecutive ops one rung runs before the next
// rung runs the same ops. Rungs are compared by subtraction, so they
// take turns in short chunks and machine drift falls on all of them
// alike, while each chunk still runs with its stack's caches warm.
const ladderChunk = 100

// climb builds every rung's stack with the workload's keys preloaded,
// sends the seeded ledger stream through each, one client, one span per
// op and rung, and closes the stacks. It also returns the median of the
// workload's gapKind on the ladder's reference.
func (s *session) climb(ops []op) ([]rungPass, []span, float64, error) {
	var climbers []*climber
	defer func() {
		for _, cl := range climbers {
			cl.st.close()
		}
	}()
	for i, r := range s.wl.rungs {
		st, err := r.build()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: rung %s: %w", s.wl.name, r.name, err)
		}
		cl := &climber{rung: r, st: st, c: &client{kv: st.client, led: newLedger(s.wl)}}
		climbers = append(climbers, cl)
		if i+1 < len(s.wl.rungs) {
			cl.parent = s.wl.rungs[i+1].name
		}
		for _, d := range st.handshakes {
			s.handshake = append(s.handshake, float64(d)/1e6)
		}
		if !s.wl.failover {
			for key := 0; key < s.wl.keys(); key++ {
				cl.c.do(op{kind: opPut, key: key, size: s.wl.classOf(key).size})
			}
		}
		st.quiesce()
		cl.before = st.snapshot()
		if st.fs != nil {
			if cl.wal0, err = st.walBytes(); err != nil {
				return nil, nil, 0, err
			}
		}
	}

	// The ladder's reference takes its turn like a rung: the same ops,
	// one client, no spans, on the stack the timed rounds ran on.
	var ref *client
	if s.main != nil {
		ref = s.client
	} else {
		st, err := s.bootFailover()
		if err != nil {
			return nil, nil, 0, err
		}
		defer st.close()
		ref = &client{kv: st.client, led: newLedger(s.wl)}
	}
	spans := make([]span, 0, len(ops)*len(climbers))
	for lo := 0; lo < len(ops); lo += ladderChunk {
		hi := min(lo+ladderChunk, len(ops))
		for _, o := range ops[lo:hi] {
			ref.do(o)
		}
		for _, cl := range climbers {
			for i := lo; i < hi; i++ {
				cy0 := cl.st.cycles()
				end := cl.c.do(ops[i])
				cy1 := cl.st.cycles()
				endNS := int64(end.Sub(traceEpoch))
				spans = append(spans, span{
					Op: i, Kind: ops[i].kind.String(), Rung: cl.rung.name, Parent: cl.parent,
					StartNS: endNS - cl.c.lastNS, EndNS: endNS, Cycles: cy1 - cy0,
				})
			}
		}
	}

	untracedP50 := percentile(durationsUS(ref.samples(s.wl.gapKind), 1), 0.5)
	ref.drain(s.out)
	var passes []rungPass
	for _, cl := range climbers {
		cl.st.quiesce()
		pass := rungPass{rung: cl.rung, before: cl.before, after: cl.st.snapshot(), ops: len(ops)}
		if cl.st.fs != nil {
			wal1, err := cl.st.walBytes()
			if err != nil {
				return nil, nil, 0, err
			}
			pass.walBytes = wal1 - cl.wal0
		}
		cl.c.drain(s.out)
		passes = append(passes, pass)
	}
	return passes, spans, untracedP50, nil
}

// tracedPass climbs the workload's ladder, runs the leaf probes, and
// reports every per-layer metric that comes from them. It returns the
// spans for the trace file.
func (s *session) tracedPass() ([]span, error) {
	ops := s.wl.ledgerStream(s.seed)
	passes, all, untracedP50, err := s.climb(ops)
	if err != nil {
		return nil, err
	}
	var puts, gets []rungMedians
	for _, r := range s.wl.rungs {
		puts = append(puts, kindMedians(all, ops, r.name, opPut))
		gets = append(gets, kindMedians(all, ops, r.name, opGet))
	}

	o := s.out
	nPuts := countSmall(ops, opPut)
	putSelf, getSelf := selfTimes(puts), selfTimes(gets)
	for i, r := range s.wl.rungs {
		o.set(r.self+"_us", putSelf[i].us, nPuts)
		o.set(r.self+"_cycles", putSelf[i].cycles, nPuts)
		if r.self == "world.self" || r.self == "serve.self" {
			o.set(strings.Replace(r.self, "self", "get_self_us", 1), getSelf[i].us, countSmall(ops, opGet))
		}
	}
	top := puts[len(puts)-1]
	if s.wl.gapKind == opGet {
		top = gets[len(gets)-1]
	}
	gap := ladderGap(top.us, untracedP50)
	o.set("driver.ladder_gap_ratio", math.Abs(gap), countSmall(ops, s.wl.gapKind))
	o.set("driver.trace_overhead_ratio", gap, countSmall(ops, s.wl.gapKind))

	// Counts come from the richest stack whose Stats are public: the
	// bare world for rmi, else the durable gateway, which runs the same
	// calls a shard's world and manager would; replication and routing
	// come from the fabric rungs.
	first := passes[0]
	o.set("world.cycles_per_op", float64(first.after.world.Cycles-first.before.world.Cycles)/float64(first.ops), first.ops)
	counted := first
	for _, p := range passes {
		switch p.rung.self {
		case "persist.self", "shim.self":
			counted = p
			serveCounts(o, p.before.serve, p.after.serve, p.ops)
			persistCounts(o, p.before.persist, p.after.persist, p.walBytes)
			if s.main == nil || s.main.gateway == nil {
				admission(o, p.after.serve)
			}
		case "fabric.ship_self":
			fabricCounts(o, p.before, p.after, p.ops)
		}
	}
	worldCounts(o, counted.before.world, counted.after.world, counted.ops)
	if s.main != nil && s.main.gateway != nil {
		admission(o, s.main.gateway.W.Stats())
	}
	return all, s.probes(ops, len(s.wl.rungs) > 1)
}

func countSmall(ops []op, kind opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == kind && o.size == smallValue {
			n++
		}
	}
	return n
}

// probes time the leaves of the stack on the ledger stream's own
// bytes: wire encode and decode of each op's arguments, and, where the
// workload is durable, Enclave.Seal, a standalone Manager.Append, a raw
// FS.Append of one sealed record on each filesystem kind, and the
// recovery of what was appended.
func (s *session) probes(ops []op, durable bool) error {
	o := s.out
	start := time.Now()
	if _, err := core.BuildPartitioned(demo.MustKVProgram()); err != nil {
		return err
	}
	o.set("core.build_ms", float64(time.Since(start))/1e6, 1)

	var encNS, decNS, bytes []float64
	for _, op := range ops {
		args := []wire.Value{wire.Str(keyName(op.key))}
		if op.kind != opGet {
			args = append(args, wire.Str(value(op.key, 1, op.size)))
		}
		t0 := time.Now()
		buf := wire.MarshalList(args)
		t1 := time.Now()
		_, err := wire.UnmarshalList(buf)
		t2 := time.Now()
		if err != nil {
			return err
		}
		encNS = append(encNS, float64(t1.Sub(t0)))
		decNS = append(decNS, float64(t2.Sub(t1)))
		bytes = append(bytes, float64(len(buf)))
	}
	o.set("wire.encode_ns", median(encNS), len(ops))
	o.set("wire.decode_ns", median(decNS), len(ops))
	o.set("wire.bytes_per_op", mean(bytes), len(ops))
	if !durable {
		return nil
	}

	w, err := newWorld(false)
	if err != nil {
		return err
	}
	defer w.Close()
	dirFS, tmp, err := newDirFS()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	memFS := shim.NewMemFS()
	store, err := newProbeStore(w, shim.NewMemFS())
	if err != nil {
		return err
	}
	m, _, err := store.open()
	if err != nil {
		return err
	}
	var sealNS, kib float64
	var appendUS, dirUS, memUS []float64
	for _, op := range ops {
		if op.kind != opPut {
			continue
		}
		key, val := keyName(op.key), []byte(value(op.key, 1, op.size))
		t0 := time.Now()
		sealed, err := store.seal(val)
		t1 := time.Now()
		if err != nil {
			return err
		}
		sealNS += float64(t1.Sub(t0))
		kib += float64(len(val)) / 1024
		if _, err := m.Append("kv", persist.OpPut, key, val); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := dirFS.Append("p/probe.seg", sealed); err != nil {
			return err
		}
		t3 := time.Now()
		if _, err := memFS.Append("p/probe.seg", sealed); err != nil {
			return err
		}
		t4 := time.Now()
		appendUS = append(appendUS, float64(t2.Sub(t1))/1e3)
		dirUS = append(dirUS, float64(t3.Sub(t2))/1e3)
		memUS = append(memUS, float64(t4.Sub(t3))/1e3)
	}
	o.set("sgx.seal_us_per_kib", ratio(sealNS/1e3, kib), len(appendUS))
	o.set("persist.append_us", median(appendUS), len(appendUS))
	o.set("shim.dirfs_append_us", median(dirUS), len(dirUS))
	o.set("shim.memfs_append_us", median(memUS), len(memUS))
	_, rep, err := store.open()
	if err != nil {
		return err
	}
	o.set("persist.replayed_records", float64(rep.ReplayedRecords), 1)
	o.set("persist.recover_ms", float64(rep.Duration)/1e6, rep.ReplayedRecords)
	return nil
}

func mean(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return ratio(sum, float64(len(vs)))
}

// writeTrace writes one workload's spans, ordered by op then rung, to
// trace-<workload>.json in dir.
func writeTrace(dir string, wl *workload, seed int64, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Op < spans[j].Op })
	var rungs []string
	for _, r := range wl.rungs {
		rungs = append(rungs, r.name)
	}
	data, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Rungs    []string `json:"rungs"`
		Spans    []span   `json:"spans"`
	}{wl.name, seed, rungs, spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+wl.name+".json"), data, 0o644)
}

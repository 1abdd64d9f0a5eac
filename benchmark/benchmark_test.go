package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestOpStreamIsSeeded(t *testing.T) {
	for _, wl := range workloads() {
		a, b, c := wl.ledgerStream(1), wl.ledgerStream(1), wl.ledgerStream(2)
		if streamHash(a) != streamHash(b) {
			t.Errorf("%s: same seed gave different op streams", wl.name)
		}
		if streamHash(a) == streamHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", wl.name)
		}
	}
}

// Every block of a steady workload's stream holds exactly the mix.
func TestOpStreamKeepsTheMix(t *testing.T) {
	for _, wl := range workloads() {
		if wl.failover {
			continue
		}
		block := 0
		for _, m := range wl.mix {
			block += m.count
		}
		g := newOpGen(wl, 7)
		for b := 0; b < 4; b++ {
			got := map[[2]int]int{}
			for i := 0; i < block; i++ {
				o := g.next()
				got[[2]int{int(o.kind), o.size}]++
				if c := wl.classOf(o.key); c.size != o.size {
					t.Fatalf("%s: key %d has size %d, op says %d", wl.name, o.key, c.size, o.size)
				}
			}
			want := map[[2]int]int{}
			for _, m := range wl.mix {
				want[[2]int{int(m.kind), wl.classes[m.class].size}] += m.count
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: block %d holds %v, want %v", wl.name, b, got, want)
			}
		}
	}
}

func TestFailoverVolumeIsFixed(t *testing.T) {
	puts, gets := failoverOps(3)
	for _, ops := range [][]op{puts, gets} {
		seen := map[int]bool{}
		for _, o := range ops {
			seen[o.key] = true
		}
		if len(ops) != failoverRecords || len(seen) != failoverRecords {
			t.Fatalf("%d ops over %d keys, want %d of each", len(ops), len(seen), failoverRecords)
		}
	}
}

func TestPercentileArithmetic(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := percentile(ten, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread(90,100,110) = %v, want 0.2", got)
	}
	if got := durationsUS([]int64{6000, 2000, 4000}, 2); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("durationsUS = %v, want sorted µs of a machine twice as fast", got)
	}
	// The tail is the highest quantile with ten samples beyond it,
	// capped at p99.
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {100, 0.9}, {1000, 0.99}, {100000, 0.99}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// A wall metric is the median of its rounds' values, not a value over
// the pooled samples.
func TestRoundMedian(t *testing.T) {
	s := newSession(workloadByName("gateway-mixed"), 1, false)
	for _, r := range []roundResult{
		{opsPerS: 100, cpuPerOp: 30, get: []float64{10, 20, 30}, put: []float64{1, 2, 3, 4}, ops: 7},
		{opsPerS: 300, cpuPerOp: 10, get: []float64{11, 21, 31}, put: []float64{5, 6, 7, 8}, ops: 7},
		{opsPerS: 200, cpuPerOp: 20, get: []float64{12, 22, 32}, put: []float64{9, 10, 11, 12}, ops: 7},
	} {
		s.rounds = append(s.rounds, r)
	}
	s.endToEnd()
	for name, want := range map[string]sample{
		"ops_per_s":     {200, 21},
		"cpu_us_per_op": {20, 21},
		"get_p50_us":    {21, 9},
		"get_p90_us":    {31, 9},
		"put_p50_us":    {6, 12},
		"put_p90_us":    {8, 12},
	} {
		if got := s.out.metrics[name]; got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
}

func TestLadderSubtraction(t *testing.T) {
	ops := []op{{opPut, 0, smallValue}, {opGet, 0, smallValue}, {opPut, 1, smallValue}, {opPut, 2, 4096}, {opPut, 3, smallValue}}
	var spans []span
	// Per rung, the put of op i takes base+i µs; gets and large puts
	// must be left out of the put medians.
	for _, r := range []struct {
		name   string
		us, cy int64
	}{{"R1", 30, 1000}, {"R2", 70, 1000}, {"R3", 95, 1400}} {
		for i, o := range ops {
			d := (r.us + int64(i)) * 1000
			if o.kind == opGet || o.size != smallValue {
				d *= 10
			}
			spans = append(spans, span{Op: i, Rung: r.name, StartNS: 500, EndNS: 500 + d, Cycles: r.cy})
		}
	}
	var rungs []rungMedians
	for _, name := range []string{"R1", "R2", "R3"} {
		rungs = append(rungs, kindMedians(spans, ops, name, opPut))
	}
	if want := []rungMedians{{32, 1000}, {72, 1000}, {97, 1400}}; !reflect.DeepEqual(rungs, want) {
		t.Fatalf("rung medians = %v, want %v", rungs, want)
	}
	self := selfTimes(rungs)
	if want := []rungMedians{{32, 1000}, {40, 0}, {25, 400}}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	var sum rungMedians
	for _, s := range self {
		sum.us += s.us
		sum.cycles += s.cycles
	}
	if top := rungs[len(rungs)-1]; sum != top {
		t.Errorf("self times sum to %v, top rung is %v", sum, top)
	}
	if got := ladderGap(97, 100); got != -0.03 {
		t.Errorf("ladderGap(97, 100) = %v, want -0.03", got)
	}
	if got := ladderGap(97, 0); got != 0 {
		t.Errorf("ladderGap with no reference = %v, want 0", got)
	}
}

func TestLedgerHolds(t *testing.T) {
	wl := workloadByName("gateway-mixed")
	l := newLedger(wl)
	o := op{kind: opPut, key: 5, size: smallValue}
	if !l.holds(5, "", false) {
		t.Error("a key never written must be allowed to be absent")
	}
	v1 := l.nextValue(o)
	if len(v1) != smallValue {
		t.Fatalf("value %q is not a %d-byte value", v1, smallValue)
	}
	if !l.holds(5, v1, true) || !l.holds(5, "", false) {
		t.Error("an unacked first write may have landed or not")
	}
	l.ack(5)
	if !l.holds(5, v1, true) || l.holds(5, "", false) {
		t.Error("an acked write must be served")
	}
	v2 := l.nextValue(o)
	if !l.holds(5, v1, true) || !l.holds(5, v2, true) {
		t.Error("during an unacked overwrite either version may be served")
	}
	l.ack(5)
	if l.holds(5, v1, true) {
		t.Error("a stale version after an acked overwrite is a lost write")
	}
}

// The simulated currency is deterministic: the same ops on two freshly
// set-up gateway stacks charge exactly the same cycles.
func TestLedgerPassRepeats(t *testing.T) {
	wl := workloadByName("gateway-mixed")
	s := newSession(wl, 1, false)
	ops := wl.ledgerStream(1)[:200]
	for i := 0; i < 2; i++ {
		st, led, err := s.setUp()
		if err != nil {
			t.Fatal(err)
		}
		s.ledgerPass(st, led, ops)
		st.close()
	}
	if s.out.failed != 0 || s.out.lost != 0 {
		t.Fatalf("%d ops failed, %d acked writes lost: %v", s.out.failed, s.out.lost, s.out.firstErr)
	}
	if s.ledgerCPO[0] != s.ledgerCPO[1] || s.ledgerCPO[0] == 0 {
		t.Errorf("cycles per op %v and %v, want equal and not 0", s.ledgerCPO[0], s.ledgerCPO[1])
	}
}

// BENCHMARK.json at the root of the repository names exactly the
// workloads and metrics this program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	wls := workloads()
	if len(file.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, program has %d", len(file.Workloads), len(wls))
	}
	for i, wl := range wls {
		if got := file.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d = %+v, program has %s: %s", i, got, wl.name, wl.why)
		}
		if len(wl.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", wl.name, len(wl.why))
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, program has %d", len(got), kind, len(defs))
		}
		for i, def := range defs {
			m := got[i]
			if m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
				t.Errorf("%s metric %d = %+v, program has %+v", kind, i, m, def)
			}
			if !metricName.MatchString(def.name) {
				t.Errorf("metric name %q is malformed", def.name)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != def.bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from the program's %v", def.name, def.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.name)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEndDefs, true)
	check("per-layer", file.PerLayer, perLayerDefs, false)
}

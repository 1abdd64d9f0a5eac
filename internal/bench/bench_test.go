package bench

import (
	"strconv"
	"strings"
	"testing"
)

// quickOpts runs experiments at reduced scale with virtual cost
// accounting — deterministic and fast.
func quickOpts() Options { return Options{Quick: true} }

func TestAllExperimentsRegistered(t *testing.T) {
	want := []string{
		"fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7",
		"fig9", "fig10", "fig11", "fig12", "table1",
		"ablation-switchless", "ablation-dispatch", "ablation-tcb",
		"ablation-transition", "concurrent-rmi", "ring-sweep", "recovery",
		"group-commit", "fabric-scale", "failover", "obs-overhead",
		"orderly-rate",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("experiments = %d, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
	}
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("ByID accepted unknown id")
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	proxyOut, _ := tab.Row("proxy-out->in")
	proxyIn, _ := tab.Row("proxy-in->out")
	concOut, _ := tab.Row("concrete-out")
	concIn, _ := tab.Row("concrete-in")
	for i := range proxyOut.Values {
		// Paper §6.2: proxy creation is orders of magnitude dearer than
		// concrete creation on the same side. We require >= 100x.
		if proxyOut.Values[i] < 100*concOut.Values[i] {
			t.Errorf("col %d: proxy-out %.3g < 100x concrete-out %.3g", i, proxyOut.Values[i], concOut.Values[i])
		}
		if proxyIn.Values[i] < 50*concIn.Values[i] {
			t.Errorf("col %d: proxy-in %.3g < 50x concrete-in %.3g", i, proxyIn.Values[i], concIn.Values[i])
		}
	}
	// Concrete creation inside the enclave is dearer than outside (MEE).
	var inSum, outSum float64
	for i := range concIn.Values {
		inSum += concIn.Values[i]
		outSum += concOut.Values[i]
	}
	if inSum <= outSum {
		t.Errorf("concrete-in total %.3g <= concrete-out total %.3g", inSum, outSum)
	}
}

func TestFig4aShape(t *testing.T) {
	tab, err := Fig4a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	proxyOut, _ := tab.Row("proxy-out->in")
	concOut, _ := tab.Row("concrete-out")
	for i := range proxyOut.Values {
		if proxyOut.Values[i] < 100*concOut.Values[i] {
			t.Errorf("col %d: RMI %.3g < 100x concrete %.3g", i, proxyOut.Values[i], concOut.Values[i])
		}
	}
}

func TestFig4bShape(t *testing.T) {
	tab, err := Fig4b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ser, _ := tab.Row("proxy-in->out+s")
	plain, _ := tab.Row("proxy-in->out")
	// Serialized RMIs cost more, and the gap widens with list size.
	last := len(ser.Values) - 1
	if ser.Values[last] <= plain.Values[last] {
		t.Errorf("serialized RMI %.3g <= plain %.3g", ser.Values[last], plain.Values[last])
	}
	ratioFirst := ser.Values[0] / plain.Values[0]
	ratioLast := ser.Values[last] / plain.Values[last]
	if ratioLast <= ratioFirst*0.8 {
		t.Errorf("serialization ratio fell with list size: %.2f -> %.2f", ratioFirst, ratioLast)
	}
}

// sumCycles totals a row's cycle ledger; the row must carry one entry per
// column.
func sumCycles(t *testing.T, tab *Table, name string) int64 {
	t.Helper()
	row, ok := tab.Row(name)
	if !ok {
		t.Fatalf("%s: missing row %s", tab.ID, name)
	}
	if len(row.Cycles) != len(tab.Columns) || len(row.Values) != len(tab.Columns) {
		t.Fatalf("%s row %s: %d values, %d cycle entries for %d columns", tab.ID, name, len(row.Values), len(row.Cycles), len(tab.Columns))
	}
	var sum int64
	for _, c := range row.Cycles {
		sum += c
	}
	return sum
}

// The macro figures plot host time plus charged cycles. Host time at quick
// scale is a few milliseconds and depends on who else has the cores, so
// every assertion from here to Table 1 is on the cycle ledger the rows
// carry (Series.Cycles): it repeats exactly on any machine.

func TestFig5aShape(t *testing.T) {
	tab, err := Fig5a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper §6.4: "the enclave adds an order of magnitude more overhead
	// to the garbage collection operation". On the ledger that overhead
	// is the whole difference: a collection outside the enclave charges
	// nothing, one inside pays the MEE for every byte it reads and writes.
	if out := sumCycles(t, tab, "GC-out (concrete-out)"); out != 0 {
		t.Errorf("GC-out charged %d cycles, want 0", out)
	}
	sumCycles(t, tab, "GC-in (concrete-in)")
	in, _ := tab.Row("GC-in (concrete-in)")
	for i, c := range in.Cycles {
		// Each live object (16 B header + 40 B) is read and written once.
		objects, _ := strconv.Atoi(tab.Columns[i])
		if min := int64(objects) * 2 * 56; c < min {
			t.Errorf("GC-in at %s objects charged %d cycles, want >= %d", tab.Columns[i], c, min)
		}
		if i > 0 && c <= in.Cycles[i-1] {
			t.Errorf("GC-in cycles did not grow with the live set: %v", in.Cycles)
		}
	}
}

func TestFig5bConsistency(t *testing.T) {
	tab, err := Fig5b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	proxies, _ := tab.Row("proxy-objs-out")
	mirrors, _ := tab.Row("mirror-objs-in")
	rose := false
	fell := false
	for i := range proxies.Values {
		if proxies.Values[i] != mirrors.Values[i] {
			t.Errorf("step %d: proxies %v != mirrors %v", i, proxies.Values[i], mirrors.Values[i])
		}
		if i > 0 && proxies.Values[i] > proxies.Values[i-1] {
			rose = true
		}
		if i > 0 && proxies.Values[i] < proxies.Values[i-1] {
			fell = true
		}
	}
	if !rose || !fell {
		t.Error("timeline did not both rise and fall")
	}
}

func TestFig6Shape(t *testing.T) {
	tab, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"CPU-intensive", "I/O-intensive"} {
		sumCycles(t, tab, name)
		row, _ := tab.Row(name)
		// Every class moved out of the enclave takes its MEE traffic or
		// its relayed writes off the ledger.
		for i := 1; i < len(row.Cycles); i++ {
			if row.Cycles[i] >= row.Cycles[i-1] {
				t.Errorf("%s: cycles did not fall from %s%% to %s%% untrusted: %v", name, tab.Columns[i-1], tab.Columns[i], row.Cycles)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	tab, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	noSGX := sumCycles(t, tab, "NoSGX")
	noPart := sumCycles(t, tab, "NoPart")
	rtwu := sumCycles(t, tab, "Part(RTWU)")
	wtru := sumCycles(t, tab, "Part(WTRU)")
	// Paper Fig. 7: RTWU clearly beats NoPart and runs close to native
	// (no-SGX), which is the floor; WTRU is close to NoPart.
	if noSGX > rtwu {
		t.Errorf("NoSGX %d cycles above RTWU %d", noSGX, rtwu)
	}
	if rtwu <= 0 || wtru <= 0 {
		t.Fatalf("partitioned schemes charged nothing: RTWU %d, WTRU %d", rtwu, wtru)
	}
	rtwuGain := float64(noPart) / float64(rtwu)
	wtruGain := float64(noPart) / float64(wtru)
	if rtwuGain < 1.3 {
		t.Errorf("RTWU gain over NoPart = %.2f, want >= 1.3 (paper: 2.5)", rtwuGain)
	}
	if wtruGain > rtwuGain {
		t.Errorf("WTRU gain %.2f exceeds RTWU gain %.2f", wtruGain, rtwuGain)
	}
}

func TestFig9Shape(t *testing.T) {
	tab, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	noSGX := sumCycles(t, tab, "NoSGX total")
	noPart := sumCycles(t, tab, "NoPart total")
	part := sumCycles(t, tab, "Part total")
	// Partitioning strictly reduces the simulated cost (the sharder's
	// ocalls disappear), and NoSGX charges next to nothing.
	if part >= noPart {
		t.Errorf("Part total %d cycles >= NoPart total %d", part, noPart)
	}
	if noSGX >= part {
		t.Errorf("NoSGX total %d cycles >= Part total %d", noSGX, part)
	}
	// The partitioned sharder runs outside the enclave: as cheap as
	// native, and below the in-enclave one.
	partShard := sumCycles(t, tab, "Part sharding")
	if native := sumCycles(t, tab, "NoSGX sharding"); partShard != native {
		t.Errorf("Part sharding %d cycles, native %d", partShard, native)
	}
	if noPartShard := sumCycles(t, tab, "NoPart sharding"); partShard >= noPartShard {
		t.Errorf("Part sharding %d cycles >= NoPart sharding %d", partShard, noPartShard)
	}
	// The engine is in the enclave either way.
	if p, n := sumCycles(t, tab, "Part engine"), sumCycles(t, tab, "NoPart engine"); p != n || p == 0 {
		t.Errorf("engine cycles: Part %d, NoPart %d, want equal and non-zero", p, n)
	}
}

func TestFig10Shape(t *testing.T) {
	tab, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	scone := sumCycles(t, tab, "SCONE+JVM")
	rtwu := sumCycles(t, tab, "Part(RTWU)")
	noPart := sumCycles(t, tab, "NoPart-NI")
	// Paper: RTWU 6.6x and NoPart 2.6x faster than SCONE+JVM. The SCONE
	// row's ledger is what its model adds to the measured base.
	if rtwu <= 0 || float64(scone)/float64(rtwu) < 2 {
		t.Errorf("RTWU gain over SCONE = %.2f, want >= 2 (paper: 6.6)", float64(scone)/float64(rtwu))
	}
	if noPart <= 0 || float64(scone)/float64(noPart) < 1.2 {
		t.Errorf("NoPart gain over SCONE = %.2f, want >= 1.2 (paper: 2.6)", float64(scone)/float64(noPart))
	}
}

func TestFig11Shape(t *testing.T) {
	tab, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 11 ordering: NoSGX-NI < Part-NI < NoPart-NI < SCONE+JVM.
	order := []string{"NoSGX-NI", "Part-NI", "NoPart-NI", "SCONE+JVM"}
	for i := 1; i < len(order); i++ {
		if lo, hi := sumCycles(t, tab, order[i-1]), sumCycles(t, tab, order[i]); lo >= hi {
			t.Errorf("%s %d cycles not below %s %d", order[i-1], lo, order[i], hi)
		}
	}
}

func TestFig12AndTable1Shape(t *testing.T) {
	tab, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	sumCycles(t, tab, "NoSGX-NI")
	sumCycles(t, tab, "SGX-NI")
	sumCycles(t, tab, "SCONE+JVM")
	ni, _ := tab.Row("NoSGX-NI")
	sgx, _ := tab.Row("SGX-NI")
	scone, _ := tab.Row("SCONE+JVM")
	for i, kernel := range tab.Columns {
		if sgx.Cycles[i] < ni.Cycles[i] {
			t.Errorf("kernel %s: SGX-NI overhead %d < NoSGX-NI %d", kernel, sgx.Cycles[i], ni.Cycles[i])
		}
		// Table 1's shape on the overheads the two models add to one and
		// the same base: the native image wins everywhere but on
		// montecarlo, whose allocation rate its serial GC pays for.
		gain := float64(scone.Cycles[i]) / float64(sgx.Cycles[i])
		if kernel == "montecarlo" {
			if gain >= 1 {
				t.Errorf("montecarlo overhead gain %.2f >= 1, want the paper's anomaly (< 1)", gain)
			}
		} else if gain <= 1 {
			t.Errorf("%s overhead gain %.2f <= 1", kernel, gain)
		}
	}

	t1, err := Table1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	gains, ok := t1.Row("gain over SCONE+JVM")
	if !ok || len(gains.Values) != len(t1.Columns) {
		t.Fatalf("table1 gain row malformed: %+v", t1)
	}
	for i, g := range gains.Values {
		if g <= 0 {
			t.Errorf("%s gain %.2f, want positive", t1.Columns[i], g)
		}
	}
}

func TestAblations(t *testing.T) {
	sw, err := AblationSwitchless(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := sw.Row("regular ecall/ocall")
	fast, _ := sw.Row("switchless")
	for i := range reg.Values {
		if fast.Values[i] >= reg.Values[i] {
			t.Errorf("switchless %.3g >= regular %.3g", fast.Values[i], reg.Values[i])
		}
	}

	tcb, err := AblationTCB(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	partRow, _ := tcb.Row("partitioned+shim")
	wholeRow, _ := tcb.Row("whole-app (LibOS-style)")
	if partRow.Values[1] >= wholeRow.Values[1] {
		t.Errorf("partitioned TCB %v not smaller than whole-app %v", partRow.Values, wholeRow.Values)
	}

	tr, err := AblationTransitionCost(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	rmi, _ := tr.Row("RMI (proxy-out->in)")
	if rmi.Values[len(rmi.Values)-1] <= rmi.Values[0] {
		t.Errorf("RMI latency did not grow with transition cost: %v", rmi.Values)
	}
}

// TestDispatchSmoke is the `make bench-smoke` entry point: short-mode
// transition-count and cycle assertions for the dispatch modes. The
// acceptance bar is the issue's: batching + switchless must cut total
// simulated cycles on the proxy-call workload by >= 30% versus
// full-transition dispatch, with strictly fewer enclave transitions.
func TestDispatchSmoke(t *testing.T) {
	const invocations = 300
	runs := make(map[string]dispatchRun)
	for _, mode := range []string{"full transitions", "batched", "batched+switchless"} {
		var switchless, batching bool
		switch mode {
		case "batched":
			batching = true
		case "batched+switchless":
			switchless, batching = true, true
		}
		run, err := runDispatchMode(quickOpts(), switchless, batching, invocations)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if run.Cycles <= 0 || run.Transitions == 0 {
			t.Fatalf("%s: empty measurement %+v", mode, run)
		}
		runs[mode] = run
		t.Logf("%-20s %12d cycles  %6d transitions", mode, run.Cycles, run.Transitions)
	}
	full := runs["full transitions"]
	// Full dispatch pays one transition per call; batching folds the void
	// calls into watermark-sized frames.
	if full.Transitions < invocations {
		t.Fatalf("full dispatch made %d transitions for %d calls", full.Transitions, invocations)
	}
	for _, mode := range []string{"batched", "batched+switchless"} {
		if got := runs[mode].Transitions; got >= full.Transitions {
			t.Errorf("%s transitions = %d, want < %d (full)", mode, got, full.Transitions)
		}
	}
	best := runs["batched+switchless"]
	if reduction := 1 - float64(best.Cycles)/float64(full.Cycles); reduction < 0.30 {
		t.Errorf("batched+switchless cycle reduction = %.1f%%, want >= 30%%", 100*reduction)
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", XLabel: "series", Unit: "s", Columns: []string{"a", "b"}}
	tab.AddRow("row1", 1.5, 0.25)
	tab.AddNote("hello %d", 42)
	out := tab.Render()
	for _, want := range []string{"== x: demo ==", "row1", "1.5", "0.25", "note: hello 42", "unit: s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSweepHelper(t *testing.T) {
	got := sweep(10, 100, 10)
	if len(got) != 10 || got[0] != 10 || got[9] != 100 {
		t.Fatalf("sweep = %v", got)
	}
	if got := sweep(5, 5, 1); len(got) != 1 || got[0] != 5 {
		t.Fatalf("single sweep = %v", got)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b,c"}}
	tab.AddRow("row,1", 1.5, 0.25)
	out := tab.RenderCSV()
	want := "series,a,\"b,c\"\n\"row,1\",1.5,0.25\n"
	if out != want {
		t.Fatalf("csv = %q, want %q", out, want)
	}
}

// TestOrderlyRateShape: both budgeted passes explore, and each column
// carries every figure of its pass.
func TestOrderlyRateShape(t *testing.T) {
	tab, err := OrderlyRate(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(tab.Columns, ",") != "world,fabric" {
		t.Fatalf("columns = %v", tab.Columns)
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Fatalf("row %s has %d values, want %d", r.Name, len(r.Values), len(tab.Columns))
		}
	}
	for _, name := range []string{"states/s", "states", "transitions", "resets", "elapsed-ms"} {
		r, ok := tab.Row(name)
		if !ok {
			t.Fatalf("no %s row", name)
		}
		for i, v := range r.Values {
			if v <= 0 {
				t.Errorf("%s %s = %g, want > 0", tab.Columns[i], name, v)
			}
		}
	}
}

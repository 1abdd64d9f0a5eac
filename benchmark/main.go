// Command benchmark is the one benchmark of the crossing engine, the
// gateway, the durable fabric and failover. It reports every number in
// one of two currencies and says which: simulated virtual cycles on the
// deterministic ledger, and host time on this machine. README.md
// defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"montsalvat/internal/sgx"
)

// roundLength is the length of one timed round. The window of -seconds
// is that many rounds, and a wall metric is the median of its per-round
// values: a round a neighbour on the host disturbed moves one value of
// many, not the result.
const roundLength = time.Second

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (rmi, gateway-mixed, fabric-write, failover) and end with one JSON result line; empty runs all four with their rounds interleaved")
		seconds      = flag.Int("seconds", 30, "timed window per workload in seconds, one round per second")
		seed         = flag.Int64("seed", 1, "seed of the key, op and order generator")
		trace        = flag.Int("trace", 1, "1 adds the traced ladder and the leaf probes (per-layer metrics, trace files); 0 reports the end-to-end metrics only")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the timed rounds of -workload, and of the spare stacks between them, to this file")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace-<workload>.json")
		agree        = flag.Bool("agree", false, "run the full set twice and print, per metric and workload, both values, their relative difference, the bound and PASS or FAIL")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}
	cfg := config{seconds: *seconds, seed: *seed, trace: *trace != 0, outDir: *outDir, cpuProfile: *cpuProfile}

	var wls []*workload
	if *workloadName == "" {
		wls = workloads()
	} else if wl := workloadByName(*workloadName); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if cfg.cpuProfile != "" && len(wls) != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -cpuprofile needs -workload")
		os.Exit(2)
	}

	// One closed-loop client sends one request at a time, and a request
	// is a relay between goroutines. On several Ps every hand-over may or
	// may not wake an idle core, which on a shared host costs anything
	// from 5 to 50 us and leaves a second thread spinning for work: the
	// numbers then describe the scheduler and the hypervisor. On one P a
	// latency is the length of the request's path through the program
	// and cpu_us_per_op the work done on it.
	runtime.GOMAXPROCS(1)
	var err error
	if benchSigner, err = sgx.NewSigner(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	first, err := runSet(cfg, wls)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	ok := report(cfg, wls, first)
	if *agree {
		second, err := runSet(cfg, wls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		ok = report(cfg, wls, second) && ok
		ok = printAgreement(wls, first, second) && ok
	}
	if err := writeResults(cfg, wls, first); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if len(wls) == 1 {
		printResultLine(cfg, first[0], ok)
	}
	if !ok {
		os.Exit(1)
	}
}

type config struct {
	seconds    int
	seed       int64
	trace      bool
	outDir     string
	cpuProfile string
}

// runSet runs the given workloads once: every workload is prepared,
// then the rounds are interleaved across workloads (A B C D A B C D
// A B C D) so that machine drift falls on all of them alike, then each
// is finished and, with tracing on, climbs its ladder.
func runSet(cfg config, wls []*workload) ([]*outcome, error) {
	var sessions []*session
	for _, wl := range wls {
		s := newSession(wl, cfg.seed, cfg.trace)
		if err := s.prepare(); err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	for r := 0; r < cfg.seconds; r++ {
		for _, s := range sessions {
			s.round(roundLength)
		}
	}
	if cfg.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	var outs []*outcome
	for _, s := range sessions {
		spans, err := s.finish()
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			if err := writeTrace(cfg.outDir, s.wl, cfg.seed, spans); err != nil {
				return nil, err
			}
		}
		outs = append(outs, s.out)
	}
	return outs, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// expected lists the metric definitions a run with this configuration
// must have emitted.
func expected(cfg config) []metricDef {
	if !cfg.trace {
		return endToEndDefs
	}
	return append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...)
}

// report prints every metric of every workload as "name unit value n"
// and returns whether the run is correct: no op failed, no acked write
// was lost, every expected metric is there, named well and finite, no
// end-to-end metric is 0, and the simulated currency repeated exactly
// where the workload promises it.
func report(cfg config, wls []*workload, outs []*outcome) bool {
	ok := true
	complain := func(wl *workload, format string, args ...any) {
		ok = false
		fmt.Printf("FAIL %s: %s\n", wl.name, fmt.Sprintf(format, args...))
	}
	for i, wl := range wls {
		o := outs[i]
		fmt.Printf("== %s  seed=%d seconds=%d attempted=%d failed=%d lost_acked_writes=%d\n",
			wl.name, cfg.seed, cfg.seconds, o.attempted, o.failed, o.lost)
		// Without the traced pass the per-layer set is incomplete and is
		// neither printed nor checked.
		for _, def := range expected(cfg) {
			m, have := o.metrics[def.name]
			if !have && wl.lacks(def.name) {
				o.set(def.name, 0, 0)
				m, have = o.metrics[def.name], true
			}
			switch {
			case !metricName.MatchString(def.name):
				complain(wl, "metric name %q is malformed", def.name)
			case !have:
				complain(wl, "metric %s missing", def.name)
			case math.IsNaN(m.value) || math.IsInf(m.value, 0):
				complain(wl, "metric %s is %v", def.name, m.value)
			case m.value == 0 && isEndToEnd(def.name):
				complain(wl, "end-to-end metric %s is 0", def.name)
			}
			if have {
				fmt.Printf("%-36s %-7s %16.4f %9d\n", def.name, def.unit, m.value, m.n)
			}
		}
		if cfg.trace && len(o.metrics) > len(expected(cfg)) {
			complain(wl, "%d metrics emitted, %d defined", len(o.metrics), len(expected(cfg)))
		}
		if o.failed > 0 || o.lost > 0 {
			complain(wl, "%d ops failed, %d acked writes lost; first: %v", o.failed, o.lost, o.firstErr)
		}
		if d := o.metrics["driver.cycles_repeat_diff"].value; wl.exactCycles && d != 0 {
			complain(wl, "cycles_per_op differs between two ledger passes by %g of its median", d)
		}
	}
	return ok
}

// lacks reports whether the named metric belongs to a layer that does
// no work on this workload.
func (wl *workload) lacks(name string) bool {
	for _, prefix := range wl.absent {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func isEndToEnd(name string) bool {
	for _, def := range endToEndDefs {
		if def.name == name {
			return true
		}
	}
	return false
}

// printResultLine ends a single-workload run with the one JSON object
// the driver reads: the end-to-end metrics without tracing, the
// per-layer metrics with it.
func printResultLine(cfg config, o *outcome, ok bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEndDefs
	if cfg.trace {
		defs = perLayerDefs
	}
	metrics := map[string]value{}
	for _, def := range defs {
		metrics[def.name] = value{o.metrics[def.name].value, def.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{ok, o.attempted, o.failed + o.lost, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printAgreement compares two runs of the same code on every end-to-end
// metric and workload against the metric's own bound.
func printAgreement(wls []*workload, first, second []*outcome) bool {
	ok := true
	fmt.Printf("== agreement  %-16s %-14s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, wl := range wls {
		for _, def := range endToEndDefs {
			a, b := first[i].metrics[def.name].value, second[i].metrics[def.name].value
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "PASS"
			if diff > def.bound || (wl.exactCycles && def.name == "cycles_per_op" && a != b) {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-4s         %-16s %-14s %14.4f %14.4f %7.2f%% %5.0f%%\n", verdict, wl.name, def.name, a, b, 100*diff, 100*def.bound)
		}
		fmt.Printf("             %-16s %-14s %14.0f %14.0f\n", wl.name, "host.calib_ns",
			first[i].metrics["host.calib_ns"].value, second[i].metrics["host.calib_ns"].value)
	}
	return ok
}

// writeResults records a run in results.json: the box it ran on and
// every metric of every workload.
func writeResults(cfg config, wls []*workload, outs []*outcome) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	type workloadResult struct {
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Lost      int               `json:"lost_acked_writes"`
		Metrics   map[string]metric `json:"metrics"`
	}
	res := struct {
		Box       map[string]any            `json:"box"`
		Seed      int64                     `json:"seed"`
		Seconds   int                       `json:"seconds"`
		Workloads map[string]workloadResult `json:"workloads"`
	}{
		Box:       map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH},
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Workloads: map[string]workloadResult{},
	}
	for i, wl := range wls {
		wr := workloadResult{outs[i].attempted, outs[i].failed, outs[i].lost, map[string]metric{}}
		for _, def := range expected(cfg) {
			m := outs[i].metrics[def.name]
			wr.Metrics[def.name] = metric{m.value, def.unit, m.n}
		}
		res.Workloads[wl.name] = wr
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(data, '\n'), 0o644)
}

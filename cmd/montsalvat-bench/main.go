// Command montsalvat-bench regenerates the tables and figures of the
// paper's evaluation (§6).
//
// Usage:
//
//	montsalvat-bench                      # run every experiment
//	montsalvat-bench -experiment fig7     # one experiment
//	montsalvat-bench -list                # list experiment IDs
//	montsalvat-bench -quick               # reduced problem sizes
//	montsalvat-bench -spin=false          # virtual-only cost accounting
//	montsalvat-bench -profile-dispatch    # telemetry-instrumented dispatch profile
//	montsalvat-bench -experiment fig7 -cpuprofile cpu.prof -memprofile mem.prof
//
// With -spin (the default), simulated costs — enclave transitions, MEE
// traffic — are charged as real busy-wait time so wall-clock measurements
// reflect them; -spin=false keeps runs fast and fully deterministic.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"montsalvat/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "montsalvat-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("montsalvat-bench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment ID (see -list) or \"all\"")
		quick      = fs.Bool("quick", false, "reduced problem sizes")
		spin       = fs.Bool("spin", true, "charge simulated costs as real busy-wait time")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		format     = fs.String("format", "text", "output format: text or csv")
		profile    = fs.Bool("profile-dispatch", false, "run the KV demo with full-rate telemetry and print the dispatch profile")
		jsonPath   = fs.String("json", "", "run a perf suite (see -suite) and append a machine-readable entry to this file (e.g. BENCH_rmi.json)")
		suite      = fs.String("suite", "rmi", "perf suite for -json: rmi (BENCH_rmi.json), ring (rmi plus payload sweep), persist (BENCH_persist.json), fabric (BENCH_fabric.json), obs (BENCH_obs.json) or orderly (BENCH_orderly.json)")
		label      = fs.String("label", "run", "entry label for -json records")
		sweep      = fs.Bool("payload-sweep", false, "with -json -suite rmi: include the ring payload sweep in the entry")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (read it with go tool pprof)")
		memProfile = fs.String("memprofile", "", "write an allocation profile to this file when the run ends")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want text or csv)", *format)
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(out, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeAllocProfile(*memProfile); err == nil {
				err = werr
			}
		}()
	}

	opts := bench.Options{Quick: *quick, Spin: *spin}
	if *jsonPath != "" {
		switch *suite {
		case "rmi":
			return writeRMIPerf(opts, *jsonPath, *label, *sweep, out)
		case "ring":
			return writeRMIPerf(opts, *jsonPath, *label, true, out)
		case "persist":
			return writeRecoveryPerf(opts, *jsonPath, *label, out)
		case "fabric":
			return writeFabricPerf(opts, *jsonPath, *label, out)
		case "obs":
			return writeObsPerf(opts, *jsonPath, *label, out)
		case "orderly":
			return writeOrderlyPerf(opts, *jsonPath, *label, out)
		default:
			return fmt.Errorf("unknown -suite %q (want rmi, ring, persist, fabric, obs or orderly)", *suite)
		}
	}
	if *profile {
		report, err := bench.DispatchProfile(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(out, report)
		return nil
	}
	experiments := bench.All()
	if *experiment != "all" {
		e, err := bench.ByID(*experiment)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	}

	for _, e := range experiments {
		start := time.Now()
		table, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *format == "csv" {
			fmt.Fprintf(out, "# %s: %s\n", table.ID, table.Title)
			fmt.Fprint(out, table.RenderCSV())
			fmt.Fprintln(out)
			continue
		}
		fmt.Fprint(out, table.Render())
		fmt.Fprintf(out, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// startCPUProfile begins profiling into path and returns the function that
// ends the profile and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the start error is the one to report
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeAllocProfile writes the allocations of the whole run (after a
// collection, so the in-use figures are current too) to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}

// trajectory is the on-disk shape of every BENCH_*.json: an append-only
// list of labelled entries under the suite's schema name.
type trajectory[E any] struct {
	Schema  string `json:"schema"`
	Entries []E    `json:"entries"`
}

// appendEntry appends entry to the trajectory file at path, creating it
// when absent. The entries already there are decoded and written back as
// they were.
func appendEntry[E any](path, schema string, entry E) error {
	var file trajectory[E]
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	case errors.Is(err, os.ErrNotExist):
		// First record: start a fresh trajectory.
	default:
		return err
	}
	file.Schema = schema
	file.Entries = append(file.Entries, entry)
	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// writeRMIPerf runs the RMI perf suite and appends the labelled entry to
// the trajectory file, creating it when absent. With sweep, the entry
// additionally carries the ring-vs-frame payload sweep.
func writeRMIPerf(opts bench.Options, path, label string, sweep bool, out io.Writer) error {
	run := bench.RMIPerf
	if sweep {
		run = bench.RingPerf
	}
	entry, err := run(opts, label)
	if err != nil {
		return err
	}
	if err := appendEntry(path, bench.RMIPerfSchema, *entry); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: appended %q (single %.0f ops/s, 8-goroutine speedup %.2fx)\n",
		path, label, entry.SingleOpsPerSec, speedupAt(entry, 8))
	if n := len(entry.PayloadSweep); n > 0 {
		top := entry.PayloadSweep[n-1]
		fmt.Fprintf(out, "%s: payload sweep %d points, ring %.2fx at %d B (crypto share %.0f%%)\n",
			path, n, top.Speedup, top.PayloadBytes, top.RingCryptoShare*100)
	}
	return nil
}

// writeRecoveryPerf runs the durability recovery suite and appends the
// labelled entry to the trajectory file, creating it when absent.
func writeRecoveryPerf(opts bench.Options, path, label string, out io.Writer) error {
	entry, err := bench.RecoveryPerf(opts, label)
	if err != nil {
		return err
	}
	if err := appendEntry(path, bench.RecoveryPerfSchema, *entry); err != nil {
		return err
	}
	if len(entry.Points) > 0 {
		worst := entry.Points[0]
		for _, p := range entry.Points {
			if p.RecoverMS > worst.RecoverMS {
				worst = p
			}
		}
		fmt.Fprintf(out, "%s: appended %q (%d points, worst recovery %.1fms at %d records / interval %d)\n",
			path, label, len(entry.Points), worst.RecoverMS, worst.Records, worst.CkptInterval)
	} else {
		fmt.Fprintf(out, "%s: appended %q (no recovery points)\n", path, label)
	}
	if n := len(entry.GroupCommit); n > 0 {
		lone, best := entry.GroupCommit[0], entry.GroupCommit[0]
		for _, p := range entry.GroupCommit {
			if p.PutsPerSec > best.PutsPerSec {
				best = p
			}
		}
		fmt.Fprintf(out, "%s: group-commit sweep %d cells, %.0f puts/s at %d writer(s), best %.0f puts/s at %d writers (batch %.1f, ack p99 %.0fus)\n",
			path, n, lone.PutsPerSec, lone.Writers, best.PutsPerSec, best.Writers, best.MeanBatch, best.AckP99US)
	}
	return nil
}

// writeFabricPerf runs the fabric suite (shard scaling + failover) and
// appends the labelled entry to the trajectory file, creating it when
// absent.
func writeFabricPerf(opts bench.Options, path, label string, out io.Writer) error {
	entry, err := bench.FabricPerf(opts, label)
	if err != nil {
		return err
	}
	if err := appendEntry(path, bench.FabricPerfSchema, *entry); err != nil {
		return err
	}
	top := entry.Scale[len(entry.Scale)-1]
	worst := entry.Failover[0]
	for _, p := range entry.Failover {
		if p.PromoteMS > worst.PromoteMS {
			worst = p
		}
	}
	fmt.Fprintf(out, "%s: appended %q (%.2fx put speedup at %d shards, worst promote %.1fms at %d records)\n",
		path, label, top.PutSpeedup, top.Shards, worst.PromoteMS, worst.Records)
	return nil
}

// writeObsPerf runs the observability-overhead suite and appends the
// labelled entry to the trajectory file, creating it when absent.
func writeObsPerf(opts bench.Options, path, label string, out io.Writer) error {
	entry, err := bench.ObsPerf(opts, label)
	if err != nil {
		return err
	}
	if err := appendEntry(path, bench.ObsPerfSchema, *entry); err != nil {
		return err
	}
	worst := entry.Points[len(entry.Points)-1]
	fmt.Fprintf(out, "%s: appended %q (%d modes, cycle delta %+.0f/op, %s wall overhead %.1f%%)\n",
		path, label, len(entry.Points), worst.CycleDelta, worst.Mode, worst.WallOverhead*100)
	return nil
}

// writeOrderlyPerf runs the model-checker throughput suite (the orderly
// explorer's budgeted deep mode) and appends the labelled entry to the
// trajectory file, creating it when absent.
func writeOrderlyPerf(opts bench.Options, path, label string, out io.Writer) error {
	entry, err := bench.OrderlyPerf(opts, label)
	if err != nil {
		return err
	}
	if err := appendEntry(path, bench.OrderlyPerfSchema, *entry); err != nil {
		return err
	}
	for _, p := range entry.Points {
		fmt.Fprintf(out, "%s: appended %q (%s depth<=%d: %d states, %.0f states/s, %d resets)\n",
			path, label, p.Config, p.MaxDepth, p.States, p.StatesPerSec, p.Resets)
	}
	return nil
}

// speedupAt returns the measured speedup at a goroutine count, or 0.
func speedupAt(e *bench.RMIPerfEntry, goroutines int) float64 {
	for _, p := range e.Scaling {
		if p.Goroutines == goroutines {
			return p.Speedup
		}
	}
	return 0
}

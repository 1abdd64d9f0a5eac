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
//	montsalvat-bench -experiment fig7 -json BENCH.json -label L  # record the run
//
// With -spin (the default), simulated costs — enclave transitions, MEE
// traffic — are charged as real busy-wait time so wall-clock measurements
// reflect them; -spin=false keeps runs fast and fully deterministic.
//
// With -json, every experiment run also appends one record — its label,
// the run's options and the experiment's table, cycle ledger included —
// to the trajectory file (BENCH.json at the repository root).
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
		jsonPath   = fs.String("json", "", "append one record per experiment run to this trajectory file (e.g. BENCH.json)")
		label      = fs.String("label", "run", "record label for -json")
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
		} else {
			fmt.Fprint(out, table.Render())
			fmt.Fprintf(out, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		if *jsonPath != "" {
			rec := record{Label: *label, GoMaxProcs: runtime.GOMAXPROCS(0), Quick: opts.Quick, Spin: opts.Spin, Table: table}
			if err := appendRecord(*jsonPath, rec); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s: appended %q (%s)\n", *jsonPath, *label, e.ID)
		}
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

// schema names the trajectory format: one record per experiment run.
const schema = "montsalvat-bench/v2"

// record is one labelled run of one experiment.
type record struct {
	Label      string       `json:"label"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Quick      bool         `json:"quick"`
	Spin       bool         `json:"spin"`
	Table      *bench.Table `json:"table"`
}

// trajectory is the on-disk shape of BENCH.json: an append-only list of
// records under the schema name. The records already on disk stay raw,
// so an append writes back every earlier byte as it was.
type trajectory struct {
	Schema  string            `json:"schema"`
	Records []json.RawMessage `json:"records"`
}

// appendRecord appends rec to the trajectory file at path, creating it
// when absent. A file under another schema is refused, not rewritten.
func appendRecord(path string, rec record) error {
	file := trajectory{Schema: schema}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &file); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if file.Schema != schema {
			return fmt.Errorf("%s: schema %q, want %q", path, file.Schema, schema)
		}
	case errors.Is(err, os.ErrNotExist):
		// First record: start a fresh trajectory.
	default:
		return err
	}
	enc, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%s: %w", rec.Table.ID, err)
	}
	file.Records = append(file.Records, enc)
	out, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

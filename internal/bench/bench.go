// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment function returns a Table whose rows
// are the series/bars of the corresponding figure, rendered as aligned
// text by the montsalvat-bench CLI and exercised by the repository's
// testing.B benchmarks.
//
// Experiments measure a combination of real work (AES in the MEE,
// serialization, kernel compute) and charged simulated cycles (enclave
// transitions, MEE traffic accounted on the cycle ledger). The meter
// below reports both: host wall time plus the ledger's delta converted
// at the modelled clock rate. The ledger repeats exactly, so the shape
// tests assert on it.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"montsalvat/internal/cycles"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks problem sizes for fast runs (tests, -quick).
	Quick bool
}

// scale picks full or quick experiment parameters.
func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Table is one regenerated figure or table. It is also the body of a
// recorded run: montsalvat-bench -json writes it as is.
type Table struct {
	// ID is the experiment identifier (fig3 ... table1).
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// XLabel and Unit describe the columns.
	XLabel string `json:"xlabel"`
	Unit   string `json:"unit,omitempty"`
	// Columns are the x-axis values (e.g. object counts, shard counts).
	Columns []string `json:"columns"`
	// Rows are the series, in display order.
	Rows []Series `json:"rows"`
	// Notes carry observations (e.g. computed speedups) for the report.
	Notes []string `json:"notes,omitempty"`
}

// Series is one line/bar group of a figure.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
	// Cycles, where an experiment records it, is the cycle ledger behind
	// each value: the cycles charged during the measured window, or for a
	// modelled runtime the overheads its model adds to the measured base.
	// Values that fold host time in vary from run to run; Cycles repeat
	// exactly, so the shape tests assert on them. Not rendered.
	Cycles []int64 `json:"cycles,omitempty"`
}

// AddRow appends a series.
func (t *Table) AddRow(name string, values ...float64) {
	t.Rows = append(t.Rows, Series{Name: name, Values: values})
}

// AddTimedRow appends a series of measured windows: seconds as the values,
// with the cycle ledger alongside.
func (t *Table) AddTimedRow(name string, windows []timing) {
	s := Series{Name: name}
	for _, w := range windows {
		s.Values = append(s.Values, w.elapsed.Seconds())
		s.Cycles = append(s.Cycles, w.cycles)
	}
	t.Rows = append(t.Rows, s)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Row returns the series with the given name.
func (t *Table) Row(name string) (Series, bool) {
	for _, r := range t.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return Series{}, false
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&sb, "unit: %s\n", t.Unit)
	}
	nameW := len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Values))
		for j, v := range r.Values {
			cells[i][j] = formatValue(v)
		}
	}
	for j, c := range t.Columns {
		colW[j] = len(c)
		for i := range cells {
			if j < len(cells[i]) && len(cells[i][j]) > colW[j] {
				colW[j] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(&sb, "%-*s", nameW+2, t.XLabel)
	for j, c := range t.Columns {
		fmt.Fprintf(&sb, "  %*s", colW[j], c)
	}
	sb.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", nameW+2, r.Name)
		for j := range r.Values {
			fmt.Fprintf(&sb, "  %*s", colW[j], cells[i][j])
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// RenderCSV formats the table as CSV (one header row, one row per
// series) for plotting.
func (t *Table) RenderCSV() string {
	var sb strings.Builder
	sb.WriteString("series")
	for _, c := range t.Columns {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(c))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		sb.WriteString(csvEscape(r.Name))
		for _, v := range r.Values {
			fmt.Fprintf(&sb, ",%g", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func formatValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// meter measures an experiment window in both currencies: host wall time
// and the cycles charged on the ledger.
type meter struct {
	clock  *cycles.Clock
	start  time.Time
	cycles int64
}

// startMeter begins a measurement window on clk (clk may be nil for
// pure-wall measurements).
func startMeter(clk *cycles.Clock) meter {
	m := meter{clock: clk, start: time.Now()}
	if clk != nil {
		m.cycles = clk.Total()
	}
	return m
}

// timing is one measured window in both currencies: its duration as the
// figures plot it, and the cycles charged within it.
type timing struct {
	elapsed time.Duration
	cycles  int64
}

// stop closes the window.
func (m meter) stop() timing {
	t := timing{elapsed: m.elapsed()}
	if m.clock != nil {
		t.cycles = m.clock.Total() - m.cycles
	}
	return t
}

// elapsed returns the window's duration: wall time plus the charged
// cycles at the modelled clock rate.
func (m meter) elapsed() time.Duration {
	wall := time.Since(m.start)
	if m.clock == nil {
		return wall
	}
	return wall + m.clock.Duration(m.clock.Total()-m.cycles)
}

// vmeter measures charged virtual cycles only — the complete modelled
// time of an operation sequence, excluding the Go implementation's own
// overhead. The micro-benchmarks (Figs. 3-4) use it because they compare
// few-cycle compiled operations against multi-thousand-cycle transitions;
// measuring the simulator's interpretation overhead would compress the
// orders-of-magnitude gaps the paper reports.
type vmeter struct {
	clock *cycles.Clock
	c0    int64
}

func startVMeter(clk *cycles.Clock) vmeter {
	return vmeter{clock: clk, c0: clk.Total()}
}

func (m vmeter) elapsed() time.Duration {
	return m.clock.Duration(m.clock.Total() - m.c0)
}

// Experiment is a registered figure/table generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "fig3", Title: "Proxy object creation vs concrete object creation", Run: Fig3},
		{ID: "fig4a", Title: "Remote method invocation latency", Run: Fig4a},
		{ID: "fig4b", Title: "Impact of serialization on RMIs", Run: Fig4b},
		{ID: "fig5a", Title: "GC time in vs out of the enclave", Run: Fig5a},
		{ID: "fig5b", Title: "GC consistency across runtimes", Run: Fig5b},
		{ID: "fig6", Title: "Synthetic partitioning sweep (CPU & I/O)", Run: Fig6},
		{ID: "fig7", Title: "PalDB read/write under partitioning schemes", Run: Fig7},
		{ID: "fig9", Title: "GraphChi PageRank under partitioning", Run: Fig9},
		{ID: "fig10", Title: "PalDB vs SCONE+JVM", Run: Fig10},
		{ID: "fig11", Title: "GraphChi vs SCONE+JVM", Run: Fig11},
		{ID: "fig12", Title: "SPECjvm2008 micro-benchmarks across runtimes", Run: Fig12},
		{ID: "table1", Title: "SGX-NI gain over SCONE+JVM per kernel", Run: Table1},
		{ID: "ablation-switchless", Title: "Ablation: switchless transitions (§7)", Run: AblationSwitchless},
		{ID: "ablation-dispatch", Title: "Ablation: boundary dispatch (switchless + batching)", Run: AblationDispatch},
		{ID: "ablation-tcb", Title: "Ablation: TCB size, partitioned vs LibOS-style", Run: AblationTCB},
		{ID: "ablation-transition", Title: "Ablation: transition-cost sensitivity", Run: AblationTransitionCost},
		{ID: "concurrent-rmi", Title: "Concurrent RMI throughput scaling", Run: ConcurrentRMI},
		{ID: "ring-sweep", Title: "Zero-copy ring data plane vs frame path (payload sweep)", Run: RingSweep},
		{ID: "recovery", Title: "Crash-recovery latency: WAL length × checkpoint cadence", Run: RecoveryTime},
		{ID: "group-commit", Title: "Group commit: durable-put throughput vs concurrent writers", Run: GroupCommit},
		{ID: "fabric-scale", Title: "Sharded fabric throughput vs shard count", Run: FabricScale},
		{ID: "failover", Title: "Failover time: replica promotion vs write volume", Run: FailoverTime},
		{ID: "obs-overhead", Title: "Observability overhead: enabled vs disabled telemetry", Run: ObsOverhead},
		{ID: "orderly-rate", Title: "Model-checker exploration rate (orderly deep mode)", Run: OrderlyRate},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

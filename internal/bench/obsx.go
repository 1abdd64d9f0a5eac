package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"montsalvat/internal/core"
	"montsalvat/internal/demo"
	"montsalvat/internal/telemetry"
	"montsalvat/internal/world"
)

// DispatchProfile runs the secure KV demo workload with full-rate
// transition telemetry attached and renders what an operator would see
// on the live introspection endpoint: boundary calls by route, latency
// and size distributions, and a sampled cross-boundary trace with its
// nested ocall children. It backs the montsalvat-bench
// -profile-dispatch flag; it is intentionally not a registered
// experiment (the experiment list regenerates paper figures, this
// inspects the machinery).
func DispatchProfile(opts Options) (string, error) {
	tel := telemetry.New(telemetry.Options{
		TraceSampleRate: 1,
		TraceBuffer:     4096,
		Seed:            1,
	})
	wopts := world.DefaultOptions()
	wopts.Cfg = opts.Config()
	wopts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), wopts)
	if err != nil {
		return "", err
	}
	defer w.Close()

	m := startMeter(w.Clock())
	if _, err := w.RunMain(); err != nil {
		return "", err
	}
	if err := w.SweepOnce(w.Untrusted()); err != nil {
		return "", err
	}
	elapsed := m.elapsed()

	snap := tel.Registry().Snapshot()
	var sb strings.Builder
	fmt.Fprintf(&sb, "== dispatch profile: secure KV demo (%d requests) ==\n", demo.KVRequests)
	fmt.Fprintf(&sb, "elapsed             %v\n\n", elapsed.Round(time.Microsecond))

	sb.WriteString("boundary calls by route\n")
	routes := make([]string, 0, 4)
	for name := range snap.Counters {
		if strings.HasPrefix(name, "montsalvat_boundary_calls_total{") {
			routes = append(routes, name)
		}
	}
	sort.Strings(routes)
	for _, name := range routes {
		fmt.Fprintf(&sb, "  %-44s %d\n", name, snap.Counters[name])
	}
	fmt.Fprintf(&sb, "  %-44s %d\n", "montsalvat_sgx_ecalls_total", snap.Counters["montsalvat_sgx_ecalls_total"])
	fmt.Fprintf(&sb, "  %-44s %d\n", "montsalvat_sgx_ocalls_total", snap.Counters["montsalvat_sgx_ocalls_total"])

	sb.WriteString("\nlatency and size distributions\n")
	for _, h := range []struct{ name, unit string }{
		{"montsalvat_boundary_dispatch_ns", "ns"},
		{"montsalvat_boundary_body_cycles", "cycles"},
		{"montsalvat_boundary_marshal_bytes", "bytes"},
	} {
		hs, ok := snap.Histograms[h.name]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "  %-36s n=%-6d p50=%-8d p95=%-8d p99=%-8d max=%d %s\n",
			h.name, hs.Count, hs.P50, hs.P95, hs.P99, hs.Max, h.unit)
	}

	sb.WriteString("\nsampled trace (one put ecall with its nested audit ocall)\n")
	writeProfileTrace(&sb, tel.Tracer().Dump())
	return sb.String(), nil
}

// writeProfileTrace picks the last relay root that has children and
// renders its span tree, oldest child first.
func writeProfileTrace(sb *strings.Builder, spans []telemetry.Span) {
	children := make(map[uint64][]telemetry.Span, len(spans))
	for _, sp := range spans {
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	var root *telemetry.Span
	for i := range spans {
		sp := &spans[i]
		if sp.ParentID == 0 && len(children[sp.SpanID]) > 0 {
			root = sp // keep the newest qualifying root
		}
	}
	if root == nil {
		sb.WriteString("  (no sampled trace with nested spans in the ring)\n")
		return
	}
	var render func(sp telemetry.Span, depth int)
	render = func(sp telemetry.Span, depth int) {
		fmt.Fprintf(sb, "  %s%s dir=%s route=%s bytes=%d cycles=%d span=%x parent=%x\n",
			strings.Repeat("  ", depth), sp.Name, sp.Dir, sp.Route,
			sp.MarshalBytes, sp.BodyCycles, sp.SpanID, sp.ParentID)
		kids := children[sp.SpanID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		for _, k := range kids {
			render(k, depth+1)
		}
	}
	fmt.Fprintf(sb, "  trace %x\n", root.TraceID)
	render(*root, 1)
}

// obsMode is one telemetry configuration of the overhead experiment.
type obsMode struct {
	name string
	tel  func() *telemetry.Telemetry
}

func obsModes() []obsMode {
	return []obsMode{
		{"disabled", func() *telemetry.Telemetry { return nil }},
		{"metrics", func() *telemetry.Telemetry {
			return telemetry.New(telemetry.Options{})
		}},
		{"metrics+trace", func() *telemetry.Telemetry {
			return telemetry.New(telemetry.Options{TraceSampleRate: 1, TraceBuffer: 4096})
		}},
	}
}

// obsRun executes the demo KV workload once under one telemetry mode
// and returns the charged virtual cycles and wall time of the run.
func obsRun(opts Options, tel *telemetry.Telemetry) (cycles int64, wall time.Duration, err error) {
	wopts := world.DefaultOptions()
	wopts.Cfg = opts.Config()
	wopts.Telemetry = tel
	w, _, err := core.NewPartitionedWorld(demo.MustKVProgram(), wopts)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	c0 := w.Clock().Total()
	start := time.Now()
	if _, err := w.RunMain(); err != nil {
		return 0, 0, err
	}
	return w.Clock().Total() - c0, time.Since(start), nil
}

// ObsOverhead measures what the observability plane costs on the
// boundary hot path: the demo KV workload with telemetry disabled,
// with the metrics registry attached, and with full-rate tracing on
// top. The charged virtual cycles — the simulation's cost model — must
// be identical across modes (the disabled path is additionally pinned
// by TestTelemetryCycleNeutral); the wall-clock row shows the real
// implementation cost of the enabled instruments.
func ObsOverhead(opts Options) (*Table, error) {
	modes := obsModes()
	reps := opts.scale(5, 2)
	t := &Table{
		ID:     "obs-overhead",
		Title:  "Observability overhead: enabled vs disabled telemetry",
		XLabel: "metric",
		Unit:   "per boundary op (demo KV workload)",
	}
	cycPerOp := make([]float64, 0, len(modes))
	wallPerOp := make([]float64, 0, len(modes))
	for _, m := range modes {
		t.Columns = append(t.Columns, m.name)
		var cycles int64
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			c, wall, err := obsRun(opts, m.tel())
			if err != nil {
				return nil, fmt.Errorf("obs-overhead %s: %w", m.name, err)
			}
			cycles = c
			if best == 0 || wall < best {
				best = wall
			}
		}
		ops := float64(demo.KVRequests)
		cycPerOp = append(cycPerOp, float64(cycles)/ops)
		wallPerOp = append(wallPerOp, float64(best.Nanoseconds())/ops)
	}
	t.AddRow("virtual cycles/op", cycPerOp...)
	t.AddRow("wall ns/op (best of reps)", wallPerOp...)
	for i := 1; i < len(modes); i++ {
		delta := cycPerOp[i] - cycPerOp[0]
		t.AddNote("%s: cycle delta vs disabled = %+.0f cycles/op (must be 0), wall overhead %.1f%%",
			modes[i].name, delta, 100*(wallPerOp[i]-wallPerOp[0])/wallPerOp[0])
		if delta != 0 {
			return nil, fmt.Errorf("obs-overhead: %s changed charged cycles by %+.0f/op — telemetry must be cycle-neutral", modes[i].name, delta)
		}
	}
	return t, nil
}

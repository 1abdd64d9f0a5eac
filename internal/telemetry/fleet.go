package telemetry

import (
	"strconv"
	"strings"
	"sync"
)

// Fleet aggregates the telemetry of many Worlds (fabric shards,
// replicas, the router) behind one scrapeable bundle.
//
// Identity is split deliberately:
//
//   - every node gets a private metrics Registry, so per-shard counters
//     never contend across Worlds and a node's own /snapshot stays
//     meaningful;
//   - every node shares the fleet's Tracer and EventLog, so one trace
//     ID follows a request router → shard → peer → replica and the
//     event journal is a single totally-ordered timeline.
//
// The fleet registry registers a collector that scrapes each node
// registry's Snapshot() — the same data a remote deployment would pull
// from per-shard /snapshot endpoints — and republishes it under
// shard-labeled montsalvat_fabric_* names. Histograms are republished
// as _count/_sum counters plus _p50/_p95/_p99/_max gauges (bucket
// detail stays on the per-node registries).
type Fleet struct {
	tel   *Telemetry
	mu    sync.Mutex
	nodes map[string]*Telemetry
}

// NewFleet builds a fleet aggregator. opts configures the shared tracer
// and event journal exactly as for New.
func NewFleet(opts Options) *Fleet {
	f := &Fleet{tel: New(opts), nodes: make(map[string]*Telemetry)}
	f.tel.reg.RegisterCollector(f.scrape)
	return f
}

// Telemetry returns the fleet-level bundle: the aggregated registry,
// the shared tracer, and the shared event journal. Nil when f is nil.
func (f *Fleet) Telemetry() *Telemetry {
	if f == nil {
		return nil
	}
	return f.tel
}

// Node returns (creating on first use) the telemetry bundle for the
// named fleet actor: a private registry plus the shared event journal
// and a view of the shared tracer that stamps name on the spans it
// starts. Nil when f is nil, so a fleet-less fabric stays a
// disabled telemetry layer.
func (f *Fleet) Node(name string) *Telemetry {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if t, ok := f.nodes[name]; ok {
		return t
	}
	t := &Telemetry{reg: NewRegistry(), tracer: f.tel.tracer.forNode(name), events: f.tel.events}
	f.nodes[name] = t
	return t
}

// scrape is the fleet registry's collector: it snapshots every node
// registry and republishes the samples shard-labeled.
func (f *Fleet) scrape(reg *Registry) {
	f.mu.Lock()
	type namedNode struct {
		name string
		tel  *Telemetry
	}
	nodes := make([]namedNode, 0, len(f.nodes))
	for name, tel := range f.nodes {
		nodes = append(nodes, namedNode{name, tel})
	}
	f.mu.Unlock()
	for _, n := range nodes {
		snap := n.tel.Registry().Snapshot()
		for key, v := range snap.Counters {
			base, labels := parseCanonKey(key)
			reg.Counter(fleetName(base), append(labels, "shard", n.name)...).Set(v)
		}
		for key, v := range snap.Gauges {
			base, labels := parseCanonKey(key)
			reg.Gauge(fleetName(base), append(labels, "shard", n.name)...).Set(v)
		}
		for key, hs := range snap.Histograms {
			base, labels := parseCanonKey(key)
			name := fleetName(base)
			sl := append(labels, "shard", n.name)
			reg.Counter(name+"_count", sl...).Set(hs.Count)
			reg.Counter(name+"_sum", sl...).Set(uint64(max64(hs.Sum, 0)))
			reg.Gauge(name+"_p50", sl...).Set(hs.P50)
			reg.Gauge(name+"_p95", sl...).Set(hs.P95)
			reg.Gauge(name+"_p99", sl...).Set(hs.P99)
			reg.Gauge(name+"_max", sl...).Set(hs.Max)
		}
	}
}

// fleetName maps a per-node metric name into the fleet namespace:
// montsalvat_serve_requests_total -> montsalvat_fabric_serve_requests_total.
func fleetName(base string) string {
	if rest, ok := strings.CutPrefix(base, "montsalvat_"); ok {
		if strings.HasPrefix(rest, "fabric_") {
			return base
		}
		return "montsalvat_fabric_" + rest
	}
	return "montsalvat_fabric_" + base
}

// parseCanonKey splits a canonical metric key back into its base name
// and alternating label pairs. Inverse of canonKey for the quoting the
// registry produces.
func parseCanonKey(key string) (base string, labels []string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, nil
	}
	base = key[:i]
	rest := strings.TrimSuffix(key[i+1:], "}")
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			break
		}
		k := rest[:eq]
		rest = rest[eq+1:]
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			break
		}
		v, err := strconv.Unquote(quoted)
		if err != nil {
			break
		}
		labels = append(labels, k, v)
		rest = strings.TrimPrefix(rest[len(quoted):], ",")
	}
	return base, labels
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

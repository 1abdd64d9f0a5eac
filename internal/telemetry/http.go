package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the live-introspection HTTP handler:
//
//	GET /metrics   Prometheus text exposition of every metric
//	GET /traces    JSON dump of the sampled-span ring buffer
//	GET /events    JSON dump of the structured event journal, Seq order
//	GET /snapshot  JSON snapshot of counters/gauges/histogram quantiles
//	GET /healthz   liveness probe
//	GET /debug/pprof/...  the runtime's profiles (net/http/pprof): a CPU
//	               profile of a served gateway is
//	               go tool pprof http://<addr>/debug/pprof/profile?seconds=10
//
// The endpoint is read-only diagnostics for operators; bind it to
// loopback or an operations network, never the serving address.
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		spans := t.Tracer().Dump()
		if spans == nil {
			spans = []Span{}
		}
		_ = json.NewEncoder(w).Encode(spans)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events := t.Events().Dump()
		if events == nil {
			events = []Event{}
		}
		_ = json.NewEncoder(w).Encode(events)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(t.Registry().Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	// Mounted by hand: importing net/http/pprof for its side effect
	// registers on http.DefaultServeMux, which this endpoint does not
	// serve. Index also answers the named profiles (heap, allocs, ...).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr and serves the introspection handler in the
// background until Close.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(t), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }

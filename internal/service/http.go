package service

// The observability endpoint: a small HTTP server beside the analysis
// protocol, so operators, load generators, and CI scrape state with curl and
// jq instead of speaking the service protocol. Two routes:
//
//	GET /metrics — the full MetricsSnapshot as pretty-printed JSON
//	GET /healthz — 200 {"status":"ok"} while serving, 503
//	               {"status":"draining"} once shutdown began
//
// The endpoint is read-only and allocation-light: a scrape snapshots atomics,
// it never blocks a request. It listens on its own address (cosyd
// -metrics-addr) so the operational plane survives the analysis listener
// closing during drain — the CI soak gate scrapes after drain to check for
// goroutine and connection drift.

import (
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"time"
)

// MetricsSnapshot captures the whole process: the service sections from
// Service.MetricsSnapshot plus the server's drain state, connection count,
// and the process goroutine count.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	snap := s.svc.MetricsSnapshot()
	snap.Draining = s.Draining()
	snap.Conns = s.ConnCount()
	snap.Goroutines = runtime.NumGoroutine()
	return snap
}

// MetricsMux returns the HTTP handler serving /metrics and /healthz.
func (s *Server) MetricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.MetricsSnapshot()); err != nil {
			s.Logf("service: metrics encode: %v", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		status, code := "ok", http.StatusOK
		if s.Draining() {
			status, code = "draining", http.StatusServiceUnavailable
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"status": status})
	})
	return mux
}

// ServeMetrics binds the observability endpoint to addr ("127.0.0.1:0" picks
// a free port) and serves it in the background. The returned http.Server is
// shut down by the caller (cosyd closes it after printing the final
// snapshot); the returned address is the bound one.
func (s *Server) ServeMetrics(addr string) (*http.Server, string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{
		Handler: s.MetricsMux(),
		// Scrapes are tiny; generous ceilings just bound a stuck peer.
		ReadHeaderTimeout: 5 * time.Second,
	}
	go hs.Serve(lis)
	return hs, lis.Addr().String(), nil
}

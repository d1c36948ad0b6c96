// Package obshttp is the stdlib-only live introspection server behind
// the shared -http flag: the exact HTTP surface the future encoding
// daemon (cmd/picolad) will mount. Endpoints:
//
//	/metrics      Prometheus text exposition (format 0.0.4) of the
//	              metrics registry; ?format=json serves the JSON snapshot
//	/runs         the bounded ring of recent run-ledger records (JSON)
//	/progress     live rows-done/rows-total gauges of a running sweep
//	/healthz      liveness probe ("ok")
//	/debug/pprof  the standard pprof profile handlers
//
// Everything is read-only and served from atomic snapshots, so scraping
// never perturbs a running encode.
package obshttp

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"picola/internal/obs"
)

// Options select the data sources the handler serves.
type Options struct {
	// Metrics is the registry behind /metrics and /progress; nil means
	// obs.Default.
	Metrics *obs.Metrics
	// Runs is the ledger ring behind /runs; nil means obs.Recent.
	Runs *obs.RunRing
}

// progressView is the /progress response body.
type progressView struct {
	Done  int64   `json:"done"`
	Total int64   `json:"total"`
	Pct   float64 `json:"pct"`
}

// writeJSON serves v as a JSON response. Encoding errors past the first
// byte cannot be reported to the client anymore; they mean the
// connection died and are dropped like any other write to a gone peer.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Handler returns the introspection mux over the given sources — the
// surface a long-lived daemon mounts directly.
func Handler(o Options) http.Handler {
	m := o.Metrics
	if m == nil {
		m = obs.Default
	}
	runs := o.Runs
	if runs == nil {
		runs = obs.Recent
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s := m.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = s.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WriteProm(w)
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, runs.Records())
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		s := m.Snapshot()
		v := progressView{Done: s.Gauges[obs.ProgressDone], Total: s.Gauges[obs.ProgressTotal]}
		if v.Total > 0 {
			v.Pct = 100 * float64(v.Done) / float64(v.Total)
		}
		writeJSON(w, v)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection server bound to a listener.
type Server struct {
	ln  net.Listener
	srv *http.Server

	closeOnce sync.Once
	closeErr  error
	done      chan struct{} // closed by Close; releases the ctx watcher
}

// StartContext serves the introspection surface on addr. An empty addr
// returns a nil server (every method on a nil *Server is a safe no-op),
// so the commands can call StartContext/Close unconditionally. Pass
// host:0 to bind an ephemeral port; Addr reports the bound address.
// Cancelling ctx shuts the server down (equivalent to Close), so a
// -timeout run's introspection server dies with the run instead of
// outliving it. Close remains safe to call as well; whichever comes
// first wins.
func StartContext(ctx context.Context, addr string, o Options) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(o)}, done: make(chan struct{})}
	//lint:ignore leakcheck Serve returns once Close or the run context shuts the server down
	go func() {
		// Serve returns http.ErrServerClosed after Close; a listener that
		// dies earlier takes the process's introspection down with it,
		// which the liveness probe surfaces — nothing to handle here.
		_ = s.srv.Serve(ln)
	}()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				_ = s.Close()
			case <-s.done:
			}
		}()
	}
	return s, nil
}

// Addr returns the bound listen address ("" on a nil server).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and releases the port. The listener is closed
// directly (not only via http.Server.Close) so the port is free on
// return even when Close races the Serve goroutine's listener
// registration.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		close(s.done)
		lerr := s.ln.Close()
		err := s.srv.Close()
		if err == nil && lerr != nil && !errors.Is(lerr, net.ErrClosed) {
			err = lerr
		}
		s.closeErr = err
	})
	return s.closeErr
}

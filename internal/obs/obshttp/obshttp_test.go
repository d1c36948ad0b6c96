package obshttp

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"picola/internal/obs"
)

// startTestServer binds an ephemeral port over a private registry and
// ring, and tears everything down with the test.
func startTestServer(t *testing.T) (string, *obs.Metrics, *obs.RunRing) {
	t.Helper()
	m := obs.NewMetrics()
	runs := obs.NewRunRing(8)
	s, err := StartContext(context.Background(), "127.0.0.1:0", Options{Metrics: m, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return "http://" + s.Addr(), m, runs
}

// get fetches one path and returns status and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestStartEmptyAddrIsNoop(t *testing.T) {
	s, err := StartContext(context.Background(), "", Options{})
	if err != nil || s != nil {
		t.Fatalf("StartContext(ctx, \"\") = %v, %v; want nil, nil", s, err)
	}
	// Every method on the nil server is a safe no-op.
	if s.Addr() != "" || s.Close() != nil {
		t.Error("nil server methods not inert")
	}
}

func TestHealthz(t *testing.T) {
	base, _, _ := startTestServer(t)
	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestMetricsPromAndJSON(t *testing.T) {
	base, m, _ := startTestServer(t)
	m.Counter("core.encodes").Add(5)
	m.LatencyHistogram("core.encode_ns").Observe(int64(3 * time.Millisecond))

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	if !strings.Contains(body, "picola_core_encodes 5\n") {
		t.Errorf("prom exposition missing counter:\n%s", body)
	}
	if !strings.Contains(body, `picola_core_encode_ns_bucket{le="+Inf"} 1`) {
		t.Errorf("prom exposition missing histogram family:\n%s", body)
	}

	code, body = get(t, base+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("metrics json status = %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("json snapshot does not parse: %v\n%s", err, body)
	}
	if snap.Counters["core.encodes"] != 5 {
		t.Errorf("json snapshot counter = %d, want 5", snap.Counters["core.encodes"])
	}
}

func TestRuns(t *testing.T) {
	base, _, runs := startTestServer(t)
	runs.Add(&obs.LedgerRecord{Schema: obs.LedgerSchema, Command: "first"})
	runs.Add(&obs.LedgerRecord{Schema: obs.LedgerSchema, Command: "second"})
	code, body := get(t, base+"/runs")
	if code != http.StatusOK {
		t.Fatalf("runs status = %d", code)
	}
	var recs []obs.LedgerRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("runs body does not parse: %v\n%s", err, body)
	}
	if len(recs) != 2 || recs[0].Command != "first" || recs[1].Command != "second" {
		t.Errorf("runs = %+v, want [first second] oldest first", recs)
	}
}

func TestProgress(t *testing.T) {
	base, m, _ := startTestServer(t)
	code, body := get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress status = %d", code)
	}
	var v struct {
		Done  int64   `json:"done"`
		Total int64   `json:"total"`
		Pct   float64 `json:"pct"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Done != 0 || v.Total != 0 || v.Pct != 0 {
		t.Errorf("idle progress = %+v, want zeros", v)
	}
	m.Gauge(obs.ProgressTotal).Set(8)
	m.Gauge(obs.ProgressDone).Set(2)
	_, body = get(t, base+"/progress")
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	if v.Done != 2 || v.Total != 8 || v.Pct != 25 {
		t.Errorf("progress = %+v, want 2/8 = 25%%", v)
	}
}

func TestPprofIndex(t *testing.T) {
	base, _, _ := startTestServer(t)
	code, body := get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index = %d (goroutine link present: %v)", code, strings.Contains(body, "goroutine"))
	}
}

func TestCloseReleasesPort(t *testing.T) {
	m := obs.NewMetrics()
	s, err := StartContext(context.Background(), "127.0.0.1:0", Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The same address must be bindable again immediately.
	s2, err := StartContext(context.Background(), addr, Options{Metrics: m})
	if err != nil {
		t.Fatalf("rebind after Close: %v", err)
	}
	_ = s2.Close()
}

// TestStartContextCancelShutsDown is the -timeout regression test: when
// the run context dies, the introspection server must shut down with it
// instead of holding the port for the life of the process.
func TestStartContextCancelShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := StartContext(ctx, "127.0.0.1:0", Options{Metrics: obs.NewMetrics(), Runs: obs.NewRunRing(8)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	base := "http://" + s.Addr()
	if code, _ := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before cancel = %d", code)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break // port released: the watcher closed the server
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving 5s after context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Close after the ctx watcher already shut down must stay a no-op.
	if err := s.Close(); err != nil {
		t.Errorf("Close after ctx shutdown: %v", err)
	}
}

// TestStartContextCloseFirst covers the opposite race: an explicit Close
// releases the ctx watcher goroutine instead of leaking it until cancel.
func TestStartContextCloseFirst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := StartContext(ctx, "127.0.0.1:0", Options{Metrics: obs.NewMetrics(), Runs: obs.NewRunRing(8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"picola/internal/benchgen"
	"picola/internal/obs"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 {
		t.Errorf("percentile sorted its input: %v", xs)
	}
	if got := percentile([]float64{5}, 0.9); got != 5 {
		t.Errorf("single sample p90 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
	// 1..100: p90 interpolates between the 90th and 91st values.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if got := percentile(hundred, 0.9); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
}

// TestCalibrator checks that a calibration block records one sample per
// worker per round, covers the time asked for, and gives a finite scale.
func TestCalibrator(t *testing.T) {
	c, err := newCalibrator(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	t0 := time.Now()
	c.block(20 * time.Millisecond)
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Errorf("block took %v, want at least 20ms", d)
	}
	if n := len(c.samples); n == 0 || n%2 != 0 {
		t.Errorf("%d samples from 2 workers", n)
	}
	if f := c.factor(); !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("factor = %v", f)
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a
		{Name: "a1", Parent: 1, Start: 15, End: 20},
		{Name: "c", Parent: 0, Start: 90, End: 110}, // reaches past root
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,60] ∪ [90,100] = 60.
	want := []int64{40, 25, 30, 5, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNest(t *testing.T) {
	us := int64(time.Microsecond)
	spans := []span{
		{Name: "column", Inst: 0, Start: 20 * us, End: 30 * us},
		{Name: "restart", Inst: 0, Start: 10 * us, End: 1000 * us},
		{Name: "instance", Inst: 0, Start: 0, End: 5000 * us},
		// Starts a few µs before its parent: within nestSlack.
		{Name: "encode", Inst: 0, Start: 8 * us, End: 2000 * us},
		// Another instance's span covering the same interval.
		{Name: "instance", Inst: 1, Start: 0, End: 9000 * us},
		{Name: "after", Inst: 0, Start: 4000 * us, End: 4500 * us},
	}
	spans[3].Start = 12 * us // encode's reconstructed start skews past restart's
	nest(spans)
	want := []int{1, 3, -1, 2, -1, 2}
	for i, w := range want {
		if spans[i].Parent != w {
			t.Errorf("parent(%s/%d) = %d, want %d", spans[i].Name, spans[i].Inst, spans[i].Parent, w)
		}
	}
}

func testReference(t *testing.T) *reference {
	t.Helper()
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	return &ref
}

// tracedPass runs one traced pass over the instances at order and
// returns its per-layer metrics after checking every outcome.
func tracedPass(t *testing.T, s *suite, order []int) (*passStats, map[string]float64) {
	t.Helper()
	before := obs.Default.Snapshot()
	ps, err := s.pass(context.Background(), order, time.Now(), true)
	if err != nil {
		t.Fatal(err)
	}
	ps.reg = regDelta{before, obs.Default.Snapshot()}
	if bad, notes := s.check(order, ps); bad > 0 {
		t.Fatalf("%d failed op(s): %v", bad, notes)
	}
	return ps, layerMetrics(s, ps)
}

// smallest returns the indices of the n instances with the least input.
func smallest(s *suite, n int, size func(*instance) int) []int {
	idx := make([]int, len(s.insts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return size(&s.insts[idx[a]]) < size(&s.insts[idx[b]]) })
	return idx[:n]
}

// TestTracedRuns runs one traced pass of every workload on a few small
// instances and checks that it reports every per-layer metric, that the
// layer self times account for each instance's wall, and the layers each
// workload must exercise or bypass.
func TestTracedRuns(t *testing.T) {
	ref := testReference(t)
	ctx := context.Background()
	small := benchgen.CorpusSpec{Seed: corpusSpec.Seed, Count: 12, MaxSymbols: corpusSpec.MaxSymbols}
	cases := []struct {
		name  string
		setup func(dir string) (*suite, error)
		order func(*suite) []int
		// positive metrics must be > 0, zero metrics exactly 0.
		positive, zero []string
		equal          map[string]float64
	}{
		{
			name:  "table1",
			setup: func(dir string) (*suite, error) { return setupTable1(ctx, dir, ref) },
			order: func(s *suite) []int { return smallest(s, 4, func(in *instance) int { return len(in.text) }) },
			positive: []string{"consfile.parse_s", "symbolic.extract_s", "core.encode_s", "core.column.self_s",
				"core.exact_polish.self_s", "exact.minimize_count", "eval.evaluate_s", "eval.cache.bytes"},
			zero: []string{"espresso.minimize_count", "stassign.encode_s", "evalstore.load_s", "eval.export_s"},
		},
		{
			name:  "table2",
			setup: func(dir string) (*suite, error) { return setupTable2(ctx, dir, ref) },
			order: func(s *suite) []int { return smallest(s, 3, func(in *instance) int { return len(in.fsm.Transitions) }) },
			positive: []string{"symbolic.extract_s", "stassign.encode_s", "stassign.minimize_s",
				"espresso.minimize_count", "espresso.minimize_s", "core.column.self_s"},
			zero: []string{"consfile.parse_s", "core.encode_s", "core.exact_polish.self_s", "evalstore.load_s"},
		},
		{
			name:     "corpus-cold",
			setup:    func(dir string) (*suite, error) { return setupCorpus(ctx, dir, ref, small, false) },
			positive: []string{"consfile.parse_s", "exact.minimize_count", "eval.cache.misses", "eval.export_s", "evalstore.append_s", "evalstore.compact_s"},
			zero:     []string{"symbolic.extract_s", "espresso.minimize_count"},
			equal:    map[string]float64{"evalstore.append_ratio": 1},
		},
		{
			name:     "corpus-warm",
			setup:    func(dir string) (*suite, error) { return setupCorpus(ctx, dir, ref, small, true) },
			positive: []string{"evalstore.load_s", "eval.cache.hits", "evalstore.compact_s"},
			zero:     []string{"exact.minimize_count", "eval.cache.misses"},
			equal:    map[string]float64{"evalstore.append_ratio": 0, "eval.cache.hit_ratio": 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.setup(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			order := make([]int, len(s.insts))
			for i := range order {
				order[i] = i
			}
			if c.order != nil {
				order = c.order(s)
			}
			ps, lm := tracedPass(t, s, order)
			for _, d := range layerMetricDefs {
				if _, ok := lm[d.name]; !ok {
					t.Errorf("traced pass does not report %s", d.name)
				}
			}
			if len(lm) != len(layerMetricDefs) {
				t.Errorf("traced pass reports %d metrics, layerMetricDefs lists %d", len(lm), len(layerMetricDefs))
			}
			for _, name := range c.positive {
				if lm[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, lm[name])
				}
			}
			for _, name := range c.zero {
				if lm[name] != 0 {
					t.Errorf("%s = %v, want 0", name, lm[name])
				}
			}
			for name, want := range c.equal {
				if lm[name] != want {
					t.Errorf("%s = %v, want %v", name, lm[name], want)
				}
			}
			checkAccounting(t, ps)
		})
	}
}

// The traced run's accounting tolerance: the part of an instance's wall
// that no layer span covers (creating its cache, the benchmark's own
// bookkeeping) stays under accountTolerance of the wall, or under
// accountFloor on instances too short for a ratio to be meaningful (one
// preemption between two spans can cost that much).
const (
	accountTolerance = 0.02
	accountFloor     = time.Millisecond
)

// checkAccounting requires each instance's unattributed time — its span
// minus the layer spans under it — to stay within accountTolerance.
func checkAccounting(t *testing.T, ps *passStats) {
	t.Helper()
	self := selfTimes(ps.spans)
	seen := 0
	for i, sp := range ps.spans {
		if sp.Name != "instance" {
			continue
		}
		seen++
		if limit := max(int64(accountTolerance*float64(sp.dur())), int64(accountFloor)); self[i] > limit {
			t.Errorf("instance %d: %v of %v not attributed to a layer (limit %v)",
				sp.Inst, time.Duration(self[i]), time.Duration(sp.dur()), time.Duration(limit))
		}
	}
	if seen != len(ps.outs) {
		t.Errorf("%d instance spans for %d instances", seen, len(ps.outs))
	}
}

// TestRunTable1 runs the untraced benchmark end to end and checks that
// it reports exactly the end-to-end metrics BENCHMARK.json declares,
// with a correct Table I cost.
func TestRunTable1(t *testing.T) {
	cfg := config{workload: "table1", seed: 3, seconds: time.Second, workdir: t.TempDir()}
	res, err := run(context.Background(), cfg, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 33 {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if got := res.Metrics["cost_total"].Value; got != 718 {
		t.Errorf("cost_total = %v, want 718", got)
	}
	decl := readBenchmarkJSON(t)
	if len(res.Metrics) != len(decl.EndToEnd) {
		t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(decl.EndToEnd))
	}
	for _, m := range decl.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
		if got.Value == 0 {
			t.Errorf("metric %s is 0", m.Name)
		}
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	return &decl
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and per-layer
// metrics in step with the code.
func TestBenchmarkJSONMatches(t *testing.T) {
	decl := readBenchmarkJSON(t)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
				break
			}
		}
	}
	if len(decl.PerLayer) != len(layerMetricDefs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(decl.PerLayer), len(layerMetricDefs))
	}
	for i, d := range layerMetricDefs {
		if decl.PerLayer[i].Name != d.name || decl.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, code has %s (%s)", i, decl.PerLayer[i], d.name, d.unit)
		}
	}
}

// TestCorpusMatchesBatchGen pins the in-memory corpus to the files
// `batch -gen` writes for the same spec, which the committed reference
// was computed from.
func TestCorpusMatchesBatchGen(t *testing.T) {
	spec := benchgen.CorpusSpec{Seed: corpusSpec.Seed, Count: 20, MaxSymbols: corpusSpec.MaxSymbols}
	dir := t.TempDir()
	files, err := benchgen.WriteCorpus(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := setupCorpus(context.Background(), dir, testReference(t), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if s.insts[i].text != string(b) {
			t.Errorf("instance %d differs from %s", i, f)
		}
	}
}

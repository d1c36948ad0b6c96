package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"picola/internal/benchgen"
	"picola/internal/consfile"
	"picola/internal/core"
	"picola/internal/eval"
	"picola/internal/evalstore"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/obs"
	"picola/internal/par"
	"picola/internal/stassign"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

// corpusSpec is the corpus both corpus workloads run: the cmd/batch
// acceptance shape (max-symbols 22, default density) cut to 150
// instances, so that a run holds several passes and its medians average
// over several feed orders. It is fixed, so every run is checked against
// the committed per-instance reference; the run seed only shuffles the
// feed order.
var corpusSpec = benchgen.CorpusSpec{Seed: 1, Count: 150, MaxSymbols: 22}

const (
	// corpusCacheBytes is cmd/batch's in-memory cache budget; the 64 MiB
	// library default evicts part of a corpus working set mid-pass.
	corpusCacheBytes = 256 << 20
	// corpusWorkers is the number of corpus instances in flight, one per
	// core of a two-core host. Each instance runs the encoder and
	// evaluator with Workers: 1 — 0 would mean GOMAXPROCS and nest a
	// second fan-out under this one.
	corpusWorkers = 2
)

//go:embed reference.json
var referenceJSON []byte

// reference holds the expected cost of every instance: the PICOLA cube
// counts of BENCH_4.json (Table I, Σ 718), the NEW product counts of
// EXPERIMENTS.md (Table II, Σ 1753), and the cube counts cmd/batch
// reports on the first 300 instances of the corpus (Σ 4532; Σ 2178 over
// the 150 corpusSpec runs).
type reference struct {
	Table1 map[string]int `json:"table1"`
	Table2 map[string]int `json:"table2"`
	Corpus map[string]int `json:"corpus"`
}

// instance is one unit of work of a pass.
type instance struct {
	name string
	text string    // table1 and corpus: the constraints as consfile text
	fsm  *kiss.FSM // table2: the machine
	// prob is the table2 machine's constraint problem, extracted in
	// set-up for the verify oracle.
	prob *face.Problem
	want int // reference cost
}

// suite is a set-up workload: its instances and how a pass runs them.
type suite struct {
	insts   []instance
	workers int
	assign  bool // run stassign.AssignContext instead of parse → encode → evaluate
	// corpus passes share one cache and end with the store lifecycle.
	corpus bool
	// storeDir is the persistent store a corpus-warm pass loads and
	// saves back; "" gives each pass a fresh store.
	storeDir string
	// cold is corpus-warm's per-instance cost from its set-up cold pass.
	cold map[string]int
	// extract is table1's set-up constraint-extraction time.
	extract time.Duration
	dir     string // this set-up's scratch directory
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(ctx context.Context, dir string, ref *reference) (*suite, error){
	"table1": setupTable1,
	"table2": setupTable2,
	"corpus-cold": func(ctx context.Context, dir string, ref *reference) (*suite, error) {
		return setupCorpus(ctx, dir, ref, corpusSpec, false)
	},
	"corpus-warm": func(ctx context.Context, dir string, ref *reference) (*suite, error) {
		return setupCorpus(ctx, dir, ref, corpusSpec, true)
	},
}

// setupTable1 extracts the constraints of the 33 Table I machines; a pass
// parses, encodes and evaluates each on a fresh cache, sequentially —
// one cmd/picola invocation per machine.
func setupTable1(_ context.Context, dir string, ref *reference) (*suite, error) {
	s := &suite{workers: 1, dir: dir}
	for _, spec := range benchgen.Table1Specs() {
		want, ok := ref.Table1[spec.Name]
		if !ok {
			return nil, fmt.Errorf("no table1 reference for %s", spec.Name)
		}
		m := benchgen.Generate(spec)
		t0 := time.Now()
		prob, _, err := symbolic.ExtractConstraints(m)
		s.extract += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		s.insts = append(s.insts, instance{name: spec.Name, text: consfile.String(prob), want: want})
	}
	return s, nil
}

// setupTable2 builds the 19 Table II machines; a pass runs the PICOLA
// state-assignment flow on each, sequentially.
func setupTable2(_ context.Context, dir string, ref *reference) (*suite, error) {
	s := &suite{workers: 1, assign: true, dir: dir}
	for _, spec := range benchgen.Table2Specs() {
		want, ok := ref.Table2[spec.Name]
		if !ok {
			return nil, fmt.Errorf("no table2 reference for %s", spec.Name)
		}
		m := benchgen.Generate(spec)
		prob, _, err := symbolic.ExtractConstraints(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		s.insts = append(s.insts, instance{name: spec.Name, fsm: m, prob: prob, want: want})
	}
	return s, nil
}

// setupCorpus generates the corpus. For the warm workload it also runs
// one cold pass, which fills the store every measured pass loads.
//
// The corpus is the one `batch -gen` writes for spec, kept in memory as
// consfile text: writing it to disk made set-up time depend on the file
// system's write-back state, varying it several-fold between runs.
func setupCorpus(ctx context.Context, dir string, ref *reference, spec benchgen.CorpusSpec, warm bool) (*suite, error) {
	s := &suite{workers: corpusWorkers, corpus: true, dir: dir}
	for i := 0; i < spec.Count; i++ {
		name := fmt.Sprintf("inst-%05d", i)
		want, ok := ref.Corpus[name]
		if !ok {
			return nil, fmt.Errorf("no corpus reference for %s", name)
		}
		p := benchgen.RandomDenseProblem(corpusInstanceSeed(spec.Seed, i), spec.MaxSymbols, spec.Density)
		p.Name = name
		s.insts = append(s.insts, instance{name: name, text: consfile.String(p), want: want})
	}
	if !warm {
		return s, nil
	}
	s.storeDir = filepath.Join(dir, "store")
	order := make([]int, len(s.insts))
	for i := range order {
		order[i] = i
	}
	ps, err := s.pass(ctx, order, time.Now(), false)
	if err != nil {
		return nil, err
	}
	if bad, notes := s.check(order, ps); bad > 0 {
		return nil, fmt.Errorf("cold pass: %d failure(s), first: %s", bad, notes[0])
	}
	s.cold = make(map[string]int, len(order))
	for k, i := range order {
		s.cold[s.insts[i].name] = ps.outs[k].cost
	}
	return s, nil
}

// corpusInstanceSeed is benchgen.WriteCorpus's per-instance seed (a
// SplitMix64 finalizer over the corpus seed and the instance index).
func corpusInstanceSeed(corpus int64, i int) int64 {
	z := uint64(corpus) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// outcome is one instance's result.
type outcome struct {
	wall time.Duration
	cost int
	// cacheBytes is the footprint of the instance's own cache (Table I
	// and II instances).
	cacheBytes int64
	prob       *face.Problem
	enc        *face.Encoding
	err        error
}

// passStats is what one pass measured.
type passStats struct {
	wall time.Duration
	outs []outcome // in feed order
	// storeErr is a failed store lifecycle (corpus workloads).
	storeErr error
	// live is the live heap at the end of the pass, with its cache still
	// reachable.
	live uint64

	// Inputs of the per-layer metrics; spans and reg are filled only on
	// traced passes.
	spans      []span
	reg        regDelta
	fanout     time.Duration
	exported   int
	appended   int
	cacheBytes int64
	verify     time.Duration
}

// pass runs every instance once, in the given order. The pass wall covers
// the cache creation, the instance fan-out and, on the corpus workloads,
// the store lifecycle. With traced set it records spans for every call.
func (s *suite) pass(ctx context.Context, order []int, epoch time.Time, traced bool) (*passStats, error) {
	ps := &passStats{}
	var recs []*recorder
	var pr *recorder
	if traced {
		recs = make([]*recorder, len(order))
		for k := range recs {
			recs[k] = newRecorder(epoch, k)
		}
		pr = newRecorder(epoch, -1)
	}
	var freshStore string
	t0 := time.Now()
	endPass := pr.begin("pass")
	var memo *eval.Cache
	var st *evalstore.Store
	if s.corpus {
		memo = eval.NewCacheBytes(corpusCacheBytes)
		st, freshStore, ps.storeErr = s.openStore(memo, pr)
	}
	endFan := pr.begin("par.map")
	tf := time.Now()
	outs, err := par.MapContext(ctx, len(order), s.workers, func(k int) (outcome, error) {
		var r *recorder
		if recs != nil {
			r = recs[k]
		}
		return s.runInstance(ctx, &s.insts[order[k]], memo, r), nil
	})
	ps.fanout = time.Since(tf)
	endFan()
	if err != nil {
		return nil, err
	}
	ps.outs = outs
	if st != nil {
		ps.exported, ps.appended, ps.storeErr = saveStore(st, memo, pr)
	}
	endPass()
	ps.wall = time.Since(t0)
	ps.live = liveHeap()
	for _, o := range outs {
		ps.cacheBytes = max(ps.cacheBytes, o.cacheBytes)
	}
	if memo != nil {
		ps.cacheBytes = memo.Bytes()
	}
	if freshStore != "" {
		if err := os.RemoveAll(freshStore); err != nil {
			return nil, err
		}
	}
	if traced {
		ps.spans = pr.spans
		for _, r := range recs {
			ps.spans = append(ps.spans, r.spans...)
		}
	}
	return ps, nil
}

// runInstance runs one instance and times it. Table I and II instances
// each get a fresh default cache, as one command invocation does.
func (s *suite) runInstance(ctx context.Context, in *instance, memo *eval.Cache, r *recorder) outcome {
	t0 := time.Now()
	endInst := r.begin("instance")
	own := memo == nil
	if own {
		memo = eval.NewCache()
	}
	var o outcome
	if s.assign {
		o = assignInstance(ctx, in, memo, r)
	} else {
		o = encodeInstance(ctx, in, memo, r)
	}
	endInst()
	o.wall = time.Since(t0)
	if own {
		o.cacheBytes = memo.Bytes()
	}
	if o.err != nil {
		o.err = fmt.Errorf("%s: %w", in.name, o.err)
	}
	return o
}

func encodeInstance(ctx context.Context, in *instance, memo *eval.Cache, r *recorder) outcome {
	end := r.begin("consfile.parse")
	prob, err := consfile.ParseString(in.text)
	end()
	if err != nil {
		return outcome{err: err}
	}
	end = r.begin("core.encode")
	res, err := core.EncodeContext(ctx, prob, core.Options{Workers: 1, Cache: memo, Trace: r.tracer()})
	end()
	if err != nil {
		return outcome{prob: prob, err: err}
	}
	end = r.begin("eval.evaluate")
	cost, err := eval.EvaluateContext(ctx, prob, res.Encoding, eval.Options{Workers: 1, Cache: memo})
	end()
	if err != nil {
		return outcome{prob: prob, enc: res.Encoding, err: err}
	}
	return outcome{cost: cost.Total, prob: prob, enc: res.Encoding}
}

// The state-assignment flow times its three stages with these registry
// timers; they are the only view of the stages from outside the flow.
var (
	stageNames  = [3]string{"symbolic.extract", "stassign.encode", "stassign.minimize"}
	stageTimers = [3]*obs.Timer{
		obs.Default.Timer("stassign.stage.extract"),
		obs.Default.Timer("stassign.stage.encode"),
		obs.Default.Timer("stassign.stage.minimize"),
	}
)

func stageTotals() (t [3]time.Duration) {
	for i, tm := range stageTimers {
		t[i] = tm.Total()
	}
	return t
}

func assignInstance(ctx context.Context, in *instance, memo *eval.Cache, r *recorder) outcome {
	var before [3]time.Duration
	var start int64
	if r != nil {
		before = stageTotals()
		start = r.now()
	}
	rep, err := stassign.AssignContext(ctx, in.fsm, stassign.Options{
		Encoder: stassign.Picola, Workers: 1, Cache: memo, Trace: r.tracer()})
	if r != nil {
		// table2 runs one instance at a time, so the timer deltas are
		// this call's stages. They run back to back at the end of the
		// call (only input validation precedes them), so they are laid
		// out as consecutive spans ending where the call ended.
		end := r.now()
		r.add("stassign.assign", start, end)
		after := stageTotals()
		for i := len(stageNames) - 1; i >= 0; i-- {
			d := int64(after[i] - before[i])
			r.add(stageNames[i], end-d, end)
			end -= d
		}
	}
	if err != nil {
		return outcome{prob: in.prob, err: err}
	}
	return outcome{cost: rep.Products, prob: in.prob, enc: rep.Encoding}
}

// openStore opens the pass's store: the persistent one, loaded into
// memo, on corpus-warm; a fresh empty one, whose directory it returns
// for removal, on corpus-cold.
func (s *suite) openStore(memo *eval.Cache, pr *recorder) (*evalstore.Store, string, error) {
	dir, fresh := s.storeDir, ""
	if dir == "" {
		d, err := os.MkdirTemp(s.dir, "store-")
		if err != nil {
			return nil, "", err
		}
		dir, fresh = d, d
	}
	defer pr.begin("evalstore.load")()
	st, err := evalstore.Open(dir)
	if err != nil {
		return nil, fresh, err
	}
	if s.storeDir != "" {
		if _, err := st.Load(memo); err != nil {
			st.Close()
			return nil, fresh, err
		}
	}
	return st, fresh, nil
}

// saveStore persists what the pass's cache learned, as cmd/batch does at
// the end of a sweep: Export, Append to the WAL, Compact into shards.
func saveStore(st *evalstore.Store, memo *eval.Cache, pr *recorder) (exported, appended int, err error) {
	end := pr.begin("eval.export")
	entries := memo.Export()
	end()
	end = pr.begin("evalstore.append")
	appended, err = st.Append(entries)
	end()
	if err == nil {
		end = pr.begin("evalstore.compact")
		_, err = st.Compact()
		end()
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return len(entries), appended, err
}

// check verifies every outcome of a pass, outside the timed region, and
// returns the number of failed operations with a note per failure. An
// instance fails on an error, a cost differing from the reference (or,
// on corpus-warm, from the cold pass), or an encoding the verify oracle
// rejects. A failed store lifecycle is one more failed operation.
func (s *suite) check(order []int, ps *passStats) (int, []string) {
	var notes []string
	if ps.storeErr != nil {
		notes = append(notes, "store: "+ps.storeErr.Error())
	}
	for k, o := range ps.outs {
		in := &s.insts[order[k]]
		switch {
		case o.err != nil:
			notes = append(notes, o.err.Error())
		case o.cost != in.want:
			notes = append(notes, fmt.Sprintf("%s: cost %d, reference %d", in.name, o.cost, in.want))
		case s.cold != nil && o.cost != s.cold[in.name]:
			notes = append(notes, fmt.Sprintf("%s: warm cost %d, cold %d", in.name, o.cost, s.cold[in.name]))
		default:
			if rep := verify.CheckEncoding(o.prob, o.enc, verify.Options{RequireMinLength: true}); !rep.Ok() {
				notes = append(notes, fmt.Sprintf("%s: %v", in.name, rep.Err()))
			}
		}
	}
	return len(notes), notes
}

// ops is the number of operations a pass attempts: one per instance,
// plus the store lifecycle on the corpus workloads.
func (s *suite) ops() int {
	if s.corpus {
		return len(s.insts) + 1
	}
	return len(s.insts)
}

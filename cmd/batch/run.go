package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"picola/internal/benchgen"
	"picola/internal/benchsnap"
	"picola/internal/consfile"
	"picola/internal/core"
	"picola/internal/eval"
	"picola/internal/evalstore"
	"picola/internal/face"
	"picola/internal/ir"
	"picola/internal/kiss"
	"picola/internal/obs"
	"picola/internal/par"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

// Run metrics: instances computed this run, instances restored from the
// checkpoint journal, and the live corpus sweep position for /progress.
var (
	mComputed = obs.Default.Counter("batch.instances.computed")
	mResumed  = obs.Default.Counter("batch.instances.resumed")
	pDone     = obs.Default.Gauge(obs.ProgressDone)
	pTotal    = obs.Default.Gauge(obs.ProgressTotal)
)

// Exit codes: 0 done, 1 failure, 2 usage, 3 stopped at -limit with work
// remaining (re-invoke to continue from the checkpoint).
const (
	exitOK    = 0
	exitErr   = 1
	exitUsage = 2
	exitMore  = 3
)

// config is one batch invocation, flag-parsed by main and constructed
// directly by tests.
type config struct {
	gen   bool
	merge bool

	// -gen parameters.
	seed       int64
	count      int
	maxSymbols int
	density    int

	// run parameters.
	shardIdx, shardN int
	workers          int
	checkpoint       string
	storeDir         string
	jsonOut          string
	audit            bool
	limit            int
	cacheBytes       int64

	args []string
}

// instance is one corpus member: the snapshot row name (the file's base
// name) plus its path.
type instance struct {
	name string
	path string
}

// row is one completed instance: what the aggregate snapshot and the
// wall summary need. A row read back from the checkpoint also carries
// the consfile form of the problem its frame was computed for.
type row struct {
	name        string
	constraints int
	cubes       int
	wallNS      int64
	problem     string
}

// run executes one batch invocation and returns its exit code. All
// human-readable narration goes to errw; stdout carries only the
// machine-parseable summary line and -json - snapshots.
func run(ctx context.Context, cfg config, w, errw io.Writer) int {
	switch {
	case cfg.gen:
		return runGen(cfg, errw)
	case cfg.merge:
		return runMerge(cfg, w, errw)
	}
	if len(cfg.args) != 1 {
		fmt.Fprintln(errw, "batch: need exactly one corpus directory, manifest, or instance file")
		return exitUsage
	}
	if cfg.shardN < 1 || cfg.shardIdx < 0 || cfg.shardIdx >= cfg.shardN {
		fmt.Fprintf(errw, "batch: bad -shard %d/%d\n", cfg.shardIdx, cfg.shardN)
		return exitUsage
	}
	instances, err := listInstances(cfg.args[0])
	if err != nil {
		fmt.Fprintln(errw, "batch:", err)
		return exitErr
	}
	instances = shardFilter(instances, cfg.shardIdx, cfg.shardN)
	if len(instances) == 0 {
		fmt.Fprintln(errw, "batch: shard holds no instances")
		return exitErr
	}

	memo := eval.NewCacheBytes(cfg.cacheBytes)
	var store *evalstore.Store
	if cfg.storeDir != "" {
		store, err = evalstore.Open(cfg.storeDir)
		if err != nil {
			fmt.Fprintln(errw, "batch:", err)
			return exitErr
		}
		defer store.Close()
		st, err := store.Load(memo)
		if err != nil {
			fmt.Fprintln(errw, "batch:", err)
			return exitErr
		}
		fmt.Fprintf(errw, "batch: store %s: %d entries (%s)", cfg.storeDir, st.Entries, st.Import.String())
		if bad := st.SkippedShards + st.WALBadFrames; bad > 0 || st.WALTornBytes > 0 {
			fmt.Fprintf(errw, "; skipped %d shard file(s), %d bad frame(s), %d torn byte(s)",
				st.SkippedShards, st.WALBadFrames, st.WALTornBytes)
		}
		fmt.Fprintln(errw)
	}

	var jn *journal
	done := map[string]*row{}
	if cfg.checkpoint != "" {
		jn, done, err = openJournal(cfg.checkpoint)
		if err != nil {
			fmt.Fprintln(errw, "batch:", err)
			return exitErr
		}
		defer jn.close()
	}

	var pending []instance
	rows := make(map[string]*row, len(instances))
	for _, in := range instances {
		if r, ok := done[in.name]; ok && checkpointed(in, r) {
			rows[in.name] = r
			mResumed.Inc()
			continue
		}
		pending = append(pending, in)
	}
	resumed := len(instances) - len(pending)

	truncated := false
	if cfg.limit > 0 && len(pending) > cfg.limit {
		pending = pending[:cfg.limit]
		truncated = true
	}
	pTotal.Set(int64(len(instances)))
	pDone.Set(int64(resumed))

	computed, err := par.MapContext(ctx, len(pending), cfg.workers, func(i int) (*row, error) {
		r, err := computeInstance(ctx, pending[i], memo, cfg.audit, jn)
		if err != nil {
			return nil, err
		}
		pDone.Add(1)
		mComputed.Inc()
		return r, nil
	})
	// Persist whatever the cache learned before reporting any error: a
	// failed or cancelled sweep still warms the next run.
	if store != nil {
		if _, serr := store.Append(memo.Export()); serr != nil && err == nil {
			err = serr
		} else if _, cerr := store.Compact(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(errw, "batch:", err)
		return exitErr
	}
	for _, r := range computed {
		rows[r.name] = r
	}

	var summedWall int64
	names := make([]string, 0, len(rows))
	for name, r := range rows {
		names = append(names, name)
		summedWall += r.wallNS
	}
	sort.Strings(names)

	if cfg.jsonOut != "" {
		snap := &benchsnap.Snapshot{Schema: benchsnap.Schema}
		for _, name := range names {
			r := rows[name]
			// Wall times are deliberately zeroed: the snapshot must be
			// byte-identical however the corpus was split, resumed, or
			// parallelized. Timing travels via the summary line instead.
			snap.Rows = append(snap.Rows, benchsnap.Row{
				FSM:         r.name,
				Constraints: r.constraints,
				Encoders:    map[string]benchsnap.Stat{"picola": {Cubes: r.cubes, WallNS: 0}},
			})
		}
		if err := benchsnap.Write(cfg.jsonOut, snap, w); err != nil {
			fmt.Fprintln(errw, "batch:", err)
			return exitErr
		}
	}
	fmt.Fprintf(w, "batch: shard=%d/%d instances=%d computed=%d resumed=%d summed_wall_ns=%d\n",
		cfg.shardIdx, cfg.shardN, len(instances), len(computed), resumed, summedWall)
	if truncated {
		fmt.Fprintf(errw, "batch: stopped at -limit %d with %d instance(s) remaining\n",
			cfg.limit, len(instances)-len(rows))
		return exitMore
	}
	return exitOK
}

// computeInstance encodes, evaluates, optionally audits, and checkpoints
// one instance.
func computeInstance(ctx context.Context, in instance, memo *eval.Cache, audit bool, jn *journal) (*row, error) {
	prob, err := loadProblem(in)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := core.EncodeContext(ctx, prob, core.Options{Cache: memo})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	cost, err := eval.EvaluateContext(ctx, prob, res.Encoding, eval.Options{Cache: memo})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	wall := time.Since(t0)
	if audit {
		if rep := verify.Audit(prob, res.Encoding, memo, verify.Options{RequireMinLength: true}); !rep.Ok() {
			return nil, fmt.Errorf("%s: -audit failed: %w", in.name, rep.Err())
		}
	}
	r := &row{
		name:        in.name,
		constraints: len(prob.Constraints),
		cubes:       cost.Total,
		wallNS:      int64(wall),
	}
	if jn != nil {
		if err := jn.record(prob, res, cost, r); err != nil {
			return nil, fmt.Errorf("%s: checkpoint: %w", in.name, err)
		}
	}
	return r, nil
}

// checkpointed reports whether a checkpoint row was computed for the
// instance's problem as it loads now. A frame of the same name from
// another corpus, or from an edited file, fails the check: the instance
// is recomputed, and its fresh frame wins at the next open. An instance
// that no longer loads is recomputed too, which reports its error.
func checkpointed(in instance, r *row) bool {
	prob, err := loadProblem(in)
	return err == nil && consfile.String(prob) == r.problem
}

// loadProblem parses one instance file; .kiss machines go through
// symbolic constraint extraction, everything else is a consfile. The
// problem is renamed to the instance name so checkpoint frames and
// snapshot rows key consistently.
func loadProblem(in instance) (*face.Problem, error) {
	f, err := os.Open(in.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var prob *face.Problem
	if strings.HasSuffix(in.path, ".kiss") || strings.HasSuffix(in.path, ".kiss2") {
		m, err := kiss.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		prob, _, err = symbolic.ExtractConstraints(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	} else {
		prob, err = consfile.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
	}
	prob.Name = in.name
	return prob, nil
}

// listInstances resolves the corpus argument: a directory (preferring
// its manifest when present), a manifest file, or a single instance
// file. Instances are returned sorted by name, with duplicate names
// rejected — names are the corpus's row keys.
func listInstances(arg string) ([]instance, error) {
	fi, err := os.Stat(arg)
	if err != nil {
		return nil, err
	}
	var paths []string
	base := filepath.Dir(arg)
	switch {
	case fi.IsDir():
		base = arg
		if mb, err := os.ReadFile(filepath.Join(arg, benchgen.ManifestName)); err == nil {
			paths = manifestPaths(string(mb))
		} else {
			for _, pat := range []string{"*.cons", "*.kiss", "*.kiss2"} {
				m, _ := filepath.Glob(filepath.Join(arg, pat))
				for _, p := range m {
					paths = append(paths, filepath.Base(p))
				}
			}
		}
	case strings.HasSuffix(arg, ".txt"):
		mb, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		paths = manifestPaths(string(mb))
	default:
		paths = []string{filepath.Base(arg)}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no instances under %s", arg)
	}
	seen := make(map[string]struct{}, len(paths))
	out := make([]instance, 0, len(paths))
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("duplicate instance name %q", name)
		}
		seen[name] = struct{}{}
		out = append(out, instance{name: name, path: filepath.Join(base, p)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// manifestPaths parses a manifest body: one relative path per line,
// blank lines and # comments skipped.
func manifestPaths(body string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out
}

// shardFilter keeps the instances belonging to process-shard idx of n:
// assignment hashes the instance name, so every shard of a corpus
// computes a disjoint, stable subset whatever order the corpus lists.
func shardFilter(in []instance, idx, n int) []instance {
	if n <= 1 {
		return in
	}
	var out []instance
	for _, inst := range in {
		h := fnv.New32a()
		_, _ = h.Write([]byte(inst.name)) // hash.Hash.Write is documented to never fail
		if int(h.Sum32()%uint32(n)) == idx {
			out = append(out, inst)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Checkpoint journal

// journal is the resumable checkpoint: an append-only file of framed
// picola-ir/v1 containers, one per completed instance (problem,
// encoding, audit, wall). Reopening scans the clean prefix and cuts the
// file back to it — a frame torn by a mid-run kill is recomputed once,
// and the frames appended after the cut stay readable. When the file
// holds frames the open does not keep (superseded by a later frame of
// the same name, or unusable), it is first rewritten with the kept
// ones, so it does not grow across runs that recompute the same names.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens (creating if needed) the checkpoint at path and
// returns the rows recoverable from it, keyed by instance name; of two
// frames with one name, the later wins. Each row carries the problem
// its frame was computed for, so resume can reject a frame from a
// different corpus (checkpointed).
func openJournal(path string) (*journal, map[string]*row, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	payloads, clean := ir.ScanFrames(b)
	done := make(map[string]*row)
	last := make(map[string]int) // the index of each name's kept frame
	for k, p := range payloads {
		f, err := ir.Unmarshal(p)
		if err != nil || f.Problem == nil || f.Audit == nil || f.Batch == nil {
			continue // unusable frame: recompute that instance
		}
		done[f.Problem.Name] = &row{
			name:        f.Problem.Name,
			constraints: len(f.Problem.Constraints),
			cubes:       f.Audit.Total,
			wallNS:      f.Batch.WallNS,
			problem:     consfile.String(f.Problem),
		}
		last[f.Problem.Name] = k
	}
	if len(done) < len(payloads) {
		keep := make([]bool, len(payloads))
		for _, k := range last {
			keep[k] = true
		}
		var kept []byte
		for k, p := range payloads {
			if keep[k] {
				kept = ir.AppendFrame(kept, p)
			}
		}
		// A failed rewrite leaves the old file whole, and appending to it
		// stays correct, so the open goes on with it.
		if rewriteFile(path, kept) == nil {
			b, clean = kept, len(kept)
		}
	}
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if _, err := ir.CutTornTail(fh, int64(len(b)), int64(clean)); err != nil {
		_ = fh.Close() // the cut error is the one to report
		return nil, nil, err
	}
	return &journal{f: fh}, done, nil
}

// rewriteFile replaces the file at path with data: it writes and syncs
// a temporary file in the same directory with path's permissions, then
// renames it over path, so a failure at any step leaves the old file.
func rewriteFile(path string, data []byte) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	merr := tmp.Chmod(fi.Mode().Perm())
	serr := tmp.Sync()
	if err := errors.Join(werr, merr, serr, tmp.Close()); err != nil {
		_ = os.Remove(tmp.Name()) // the write error is the one to report
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	return nil
}

// record appends one completed instance as a frame.
func (j *journal) record(prob *face.Problem, res *core.Result, cost *eval.Cost, r *row) error {
	payload, err := ir.Marshal(&ir.File{
		Problem:  prob,
		Encoding: res.Encoding,
		Audit: &ir.Audit{
			Satisfied:      res.Satisfied,
			Infeasible:     res.Infeasible,
			Cubes:          cost.Cubes,
			Total:          cost.Total,
			WeightedTotal:  cost.WeightedTotal,
			SatisfiedCount: cost.SatisfiedCount,
		},
		Batch: &ir.BatchStat{WallNS: r.wallNS},
	})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return ir.WriteFrame(j.f, payload)
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ---------------------------------------------------------------------
// Corpus generation and snapshot merge

func runGen(cfg config, errw io.Writer) int {
	if len(cfg.args) != 1 {
		fmt.Fprintln(errw, "batch: -gen needs exactly one output directory")
		return exitUsage
	}
	names, err := benchgen.WriteCorpus(cfg.args[0], benchgen.CorpusSpec{
		Seed: cfg.seed, Count: cfg.count, MaxSymbols: cfg.maxSymbols, Density: cfg.density})
	if err != nil {
		fmt.Fprintln(errw, "batch:", err)
		return exitErr
	}
	fmt.Fprintf(errw, "batch: wrote %d instances and %s under %s\n",
		len(names), benchgen.ManifestName, cfg.args[0])
	return exitOK
}

// runMerge unions per-shard -json snapshots into one corpus snapshot
// (benchsnap.Merge: disjoint row names, one table, rows merged by name),
// so a sharded run's merged snapshot is byte-identical to an unsharded
// run's.
func runMerge(cfg config, w, errw io.Writer) int {
	if cfg.jsonOut == "" || len(cfg.args) < 1 {
		fmt.Fprintln(errw, "batch: -merge needs -json OUT and at least one input snapshot")
		return exitUsage
	}
	snaps := make([]*benchsnap.Snapshot, len(cfg.args))
	for i, path := range cfg.args {
		snap, err := benchsnap.Read(path)
		if err != nil {
			fmt.Fprintln(errw, "batch:", err)
			return exitErr
		}
		snaps[i] = snap
	}
	merged, err := benchsnap.Merge(snaps...)
	if err == nil {
		err = benchsnap.Write(cfg.jsonOut, merged, w)
	}
	if err != nil {
		fmt.Fprintln(errw, "batch:", err)
		return exitErr
	}
	fmt.Fprintf(errw, "batch: merged %d rows from %d snapshot(s)\n", len(merged.Rows), len(cfg.args))
	return exitOK
}

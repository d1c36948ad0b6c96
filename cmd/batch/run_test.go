package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picola/internal/ir"
)

// genCorpus writes a small fixed-seed corpus and returns its directory.
func genCorpus(t *testing.T, count int) string {
	t.Helper()
	return genSeeded(t, 11, count, 8)
}

// genSeeded writes a generated corpus and returns its directory.
func genSeeded(t *testing.T, seed int64, count, maxSymbols int) string {
	t.Helper()
	dir := t.TempDir()
	var errw bytes.Buffer
	cfg := config{gen: true, seed: seed, count: count, maxSymbols: maxSymbols, args: []string{dir}}
	if code := run(context.Background(), cfg, &errw, &errw); code != exitOK {
		t.Fatalf("gen exited %d: %s", code, errw.String())
	}
	return dir
}

// runBatch runs one invocation against dir and returns (exit code,
// snapshot bytes, stdout).
func runBatch(t *testing.T, cfg config, dir string) (int, []byte, string) {
	t.Helper()
	cfg.args = []string{dir}
	if cfg.workers == 0 {
		cfg.workers = 4
	}
	if cfg.shardN == 0 {
		cfg.shardN = 1
	}
	var w, errw bytes.Buffer
	code := run(context.Background(), cfg, &w, &errw)
	if code != exitOK && code != exitMore {
		t.Fatalf("batch exited %d: %s", code, errw.String())
	}
	var snap []byte
	if cfg.jsonOut != "" {
		b, err := os.ReadFile(cfg.jsonOut)
		if err != nil {
			t.Fatal(err)
		}
		snap = b
	}
	return code, snap, w.String()
}

// TestBatchSnapshotDeterministic: the aggregate snapshot is byte-
// identical across runs and worker counts.
func TestBatchSnapshotDeterministic(t *testing.T) {
	dir := genCorpus(t, 25)
	out := t.TempDir()
	_, s1, _ := runBatch(t, config{jsonOut: filepath.Join(out, "a.json"), workers: 4}, dir)
	_, s2, _ := runBatch(t, config{jsonOut: filepath.Join(out, "b.json"), workers: 1}, dir)
	if !bytes.Equal(s1, s2) {
		t.Fatal("snapshot differs between -j 4 and -j 1")
	}
	if !strings.Contains(string(s1), `"picola-bench/v1"`) {
		t.Fatalf("snapshot missing schema: %s", s1)
	}
}

// TestBatchKillResume: a run stopped mid-corpus at -limit resumes from
// its checkpoint, recomputes nothing it already has, and produces a
// snapshot byte-identical to an uninterrupted run's.
func TestBatchKillResume(t *testing.T) {
	dir := genCorpus(t, 24)
	out := t.TempDir()
	ckpt := filepath.Join(out, "run.ckpt")

	code, _, _ := runBatch(t, config{checkpoint: ckpt, limit: 9}, dir)
	if code != exitMore {
		t.Fatalf("limited run exited %d, want %d", code, exitMore)
	}
	// Tear the journal's tail: the frame a kill interrupts mid-write.
	jb, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, jb[:len(jb)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	code, resumedSnap, stdout := runBatch(t,
		config{checkpoint: ckpt, jsonOut: filepath.Join(out, "resumed.json")}, dir)
	if code != exitOK {
		t.Fatalf("resume exited %d", code)
	}
	// 8 clean frames survive the tear (the 9th was torn), so the resume
	// computes the remaining 16 and restores 8.
	if !strings.Contains(stdout, "computed=16 resumed=8") {
		t.Fatalf("resume summary %q, want computed=16 resumed=8", stdout)
	}

	_, fullSnap, _ := runBatch(t, config{jsonOut: filepath.Join(out, "full.json")}, dir)
	if !bytes.Equal(resumedSnap, fullSnap) {
		t.Fatal("resumed snapshot differs from an uninterrupted run's")
	}

	// The first resume cut the torn tail before appending, so its 16
	// frames are readable: a second resume restores every instance.
	code, againSnap, stdout := runBatch(t,
		config{checkpoint: ckpt, jsonOut: filepath.Join(out, "again.json")}, dir)
	if code != exitOK {
		t.Fatalf("second resume exited %d", code)
	}
	if !strings.Contains(stdout, "computed=0 resumed=24") {
		t.Fatalf("second resume summary %q, want computed=0 resumed=24", stdout)
	}
	if !bytes.Equal(againSnap, fullSnap) {
		t.Fatal("second resumed snapshot differs from an uninterrupted run's")
	}
}

// TestBatchResumeOtherCorpus: a checkpoint written for one corpus
// restores nothing into a run of another whose instances carry the same
// names. Every instance is recomputed, the snapshot equals a fresh
// run's, and the fresh frames win when the checkpoint is opened again.
func TestBatchResumeOtherCorpus(t *testing.T) {
	a, b := genSeeded(t, 1, 5, 12), genSeeded(t, 2, 5, 12)
	out := t.TempDir()
	ckpt := filepath.Join(out, "run.ckpt")
	runBatch(t, config{checkpoint: ckpt}, a)

	code, snap, stdout := runBatch(t, config{checkpoint: ckpt, jsonOut: filepath.Join(out, "b.json")}, b)
	if code != exitOK {
		t.Fatalf("run on the second corpus exited %d", code)
	}
	if !strings.Contains(stdout, "computed=5 resumed=0") {
		t.Fatalf("summary %q, want computed=5 resumed=0", stdout)
	}
	_, fresh, _ := runBatch(t, config{jsonOut: filepath.Join(out, "fresh.json")}, b)
	if !bytes.Equal(snap, fresh) {
		t.Fatalf("snapshot differs from a fresh run's:\n%s\nfresh:\n%s", snap, fresh)
	}

	code, again, stdout := runBatch(t, config{checkpoint: ckpt, jsonOut: filepath.Join(out, "again.json")}, b)
	if code != exitOK || !strings.Contains(stdout, "computed=0 resumed=5") {
		t.Fatalf("resume exited %d with summary %q, want computed=0 resumed=5", code, stdout)
	}
	if !bytes.Equal(again, fresh) {
		t.Fatal("resumed snapshot differs from a fresh run's")
	}
}

// TestBatchCheckpointCompacts: runs alternating between two corpora
// whose instances share names keep the checkpoint bounded. Each open
// rewrites it with the last frame per name, so it never holds more than
// two frames per instance, and every run's snapshot equals a fresh
// run's.
func TestBatchCheckpointCompacts(t *testing.T) {
	corpora := []string{genSeeded(t, 1, 5, 12), genSeeded(t, 2, 5, 12)}
	out := t.TempDir()
	ckpt := filepath.Join(out, "run.ckpt")
	var fresh [][]byte
	for _, dir := range corpora {
		_, snap, _ := runBatch(t, config{jsonOut: filepath.Join(out, "fresh.json")}, dir)
		fresh = append(fresh, snap)
	}
	for run := 0; run < 6; run++ {
		_, snap, _ := runBatch(t, config{checkpoint: ckpt, jsonOut: filepath.Join(out, "run.json")}, corpora[run%2])
		if !bytes.Equal(snap, fresh[run%2]) {
			t.Fatalf("run %d: snapshot differs from a fresh run's", run+1)
		}
		jb, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if frames, _ := ir.ScanFrames(jb); len(frames) > 10 {
			t.Fatalf("run %d: the checkpoint holds %d frames (%d bytes) for 5 instances, want at most 10",
				run+1, len(frames), len(jb))
		}
	}
}

// TestBatchShardMerge: two process shards partition the corpus, and
// merging their snapshots reproduces the unsharded snapshot exactly.
func TestBatchShardMerge(t *testing.T) {
	dir := genCorpus(t, 20)
	out := t.TempDir()
	s0 := filepath.Join(out, "s0.json")
	s1 := filepath.Join(out, "s1.json")
	_, _, out0 := runBatch(t, config{shardIdx: 0, shardN: 2, jsonOut: s0}, dir)
	_, _, out1 := runBatch(t, config{shardIdx: 1, shardN: 2, jsonOut: s1}, dir)
	if out0 == out1 {
		t.Fatalf("shards reported identical summaries: %q", out0)
	}

	mergedPath := filepath.Join(out, "merged.json")
	var w, errw bytes.Buffer
	cfg := config{merge: true, jsonOut: mergedPath, args: []string{s0, s1}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitOK {
		t.Fatalf("merge exited %d: %s", code, errw.String())
	}
	merged, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	_, full, _ := runBatch(t, config{jsonOut: filepath.Join(out, "full.json")}, dir)
	if !bytes.Equal(merged, full) {
		t.Fatal("merged shard snapshots differ from the unsharded snapshot")
	}

	// Overlapping inputs (the same shard twice) must be rejected.
	cfg = config{merge: true, jsonOut: filepath.Join(out, "dup.json"), args: []string{s0, s0}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitErr {
		t.Fatalf("overlapping merge exited %d, want %d", code, exitErr)
	}
}

// TestBatchWarmStore: a store populated by a cold run warms the next
// one — same snapshot bytes, and the second run's cache imports the
// first run's minimizations from disk.
func TestBatchWarmStore(t *testing.T) {
	dir := genCorpus(t, 15)
	out := t.TempDir()
	storeDir := filepath.Join(out, "store")
	_, cold, _ := runBatch(t, config{storeDir: storeDir, jsonOut: filepath.Join(out, "cold.json")}, dir)
	if _, err := os.Stat(filepath.Join(storeDir, "shard-00.ir")); err != nil {
		t.Fatalf("cold run left no compacted store: %v", err)
	}
	_, warm, _ := runBatch(t, config{storeDir: storeDir, jsonOut: filepath.Join(out, "warm.json")}, dir)
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm snapshot differs from cold")
	}
}

// TestBatchAudit: -audit accepts the whole corpus (the oracles agree
// with the encoder on every instance).
func TestBatchAudit(t *testing.T) {
	dir := genCorpus(t, 8)
	if code, _, _ := runBatch(t, config{audit: true}, dir); code != exitOK {
		t.Fatalf("audited run exited %d", code)
	}
}

// TestBatchManifestSubset: pointing at a manifest that lists a subset
// runs exactly that subset.
func TestBatchManifestSubset(t *testing.T) {
	dir := genCorpus(t, 10)
	sub := filepath.Join(dir, "subset.txt")
	if err := os.WriteFile(sub, []byte("# subset\ninst-00003.cons\ninst-00007.cons\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var w, errw bytes.Buffer
	cfg := config{workers: 2, shardN: 1, args: []string{sub}}
	if code := run(context.Background(), cfg, &w, &errw); code != exitOK {
		t.Fatalf("subset run exited %d: %s", code, errw.String())
	}
	if !strings.Contains(w.String(), "instances=2 computed=2") {
		t.Fatalf("subset summary %q", w.String())
	}
}

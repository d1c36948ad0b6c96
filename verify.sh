#!/bin/sh
# verify.sh — the repo's pre-merge gate: the static checks (go vet plus
# picolint, the determinism/tracing/error-handling analyzer suite in
# internal/analysis), the full test suite, and the race detector over
# every package.
set -eux

go vet ./...
go build ./...

# picolint must exit clean on the tree and each analyzer must still
# catch its seeded fixture violation (one positive fixture per analyzer)
# — a lint suite that stops firing is worse than none. Each fixture runs
# under its own analyzer alone and must exit exactly 1: another
# analyzer's finding cannot stand in for it, and a fixture that no
# longer loads (exit 2) fails the gate.
lint_bin=$(mktemp /tmp/picolint.XXXXXX)
go build -o "$lint_bin" ./cmd/picolint
"$lint_bin" ./...
analyzers=$("$lint_bin" -list | awk '{print $1}')
[ -n "$analyzers" ] || { echo "picolint -list named no analyzers" >&2; exit 1; }
for a in $analyzers; do
  rc=0
  "$lint_bin" -analyzers "$a" "./internal/analysis/testdata/src/$a" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "picolint -analyzers $a exits $rc on its fixture, want 1" >&2
    exit 1
  fi
done

# Baseline-is-current gate: regenerating the baseline must reproduce the
# committed file byte for byte — entries only leave through a commit
# that also fixes (or justifies) the finding, and new findings must be
# fixed rather than silently accumulated.
base_tmp=$(mktemp /tmp/picola-baseline.XXXXXX)
"$lint_bin" -baseline "$base_tmp" -write-baseline ./... 2>/dev/null
cmp picolint.baseline "$base_tmp" || {
  echo "picolint.baseline is out of date; run: go run ./cmd/picolint -write-baseline ./..." >&2
  exit 1
}
rm -f "$base_tmp" "$lint_bin"

go test ./...
go test -race ./...

# Allocation-regression gate: on a warmed arena, one exact constraint
# scoring must perform zero heap allocations, on a warmed encoder one
# classify column scan likewise, on a warmed polish search one swap
# candidate and one spare-move candidate, and on a warmed pool one
# CoversCube and one DropCoveredValues at one and at six words (the
# hot-path pooling contract; testing.AllocsPerRun-based, so a single
# stray make fails it), the face geometry (Supercube, IntruderCount,
# Satisfied) allocates nothing, and neither does a warmed NOVA swap or
# spare move. The store lifecycle gates
# bound cache import at about one allocation per inserted entry and a
# store append of known entries at a constant.
go test -run TestAllocs -count=1 ./internal/eval ./internal/core ./internal/evalstore ./internal/cover ./internal/face ./internal/baseline/nova

# Hot-path semantics gate: regenerate the Table I snapshot and require
# zero cube-count deltas against the committed baseline — the kernel,
# pooling and incremental-rescore layers may only change wall time,
# never a measurement. A fresh single-sample run's walls are noise
# against the baseline's, so the comparison is quality only (-wall-pct
# inf). The run doubles as the observability zero-delta gate: it records
# a -ledger alongside, proving that enabling the run ledger changes no
# measurement either.
tables_tmp=$(mktemp /tmp/picola-bench.XXXXXX.json)
ledger_tmp=$(mktemp /tmp/picola-ledger.XXXXXX.json)
go run ./cmd/tables -table 1 -json "$tables_tmp" -ledger "$ledger_tmp" >/dev/null
go run ./cmd/obsdiff -wall-pct inf BENCH_4.json "$tables_tmp"
grep -q '"schema": "picola-ledger/v1"' "$ledger_tmp"

# ENC reproduction gate: the paper reports that ENC fails on scf. Ours
# completes scf at the default budget, and EXPERIMENTS.md names
# -encbudget 2000 as the budget that reproduces the failure, so that run
# must report it.
go run ./cmd/tables -table 1 -fsm scf -encbudget 2000 |
  grep -F 'ENC failed (budget exhausted) on 1 instance(s)' >/dev/null

# Table II product gate: the state-assignment table runs espresso on
# every symbolic cover width (one to six words) and must reproduce the
# committed snapshot's product counts — zero mismatches, walls ignored.
t2_tmp=$(mktemp /tmp/picola-table2.XXXXXX.json)
go run ./cmd/tables -table 2 -json "$t2_tmp" >/dev/null
go run ./cmd/obsdiff -wall-pct inf internal/benchsnap/testdata/table2.json "$t2_tmp"
rm -f "$t2_tmp"

# Table III golden gate: EncodeAll plus the code-length sweep is the only
# committed experiment that runs the estimate polish at nv 8-10, so its
# output (no wall times) must match the committed table byte for byte.
go run ./cmd/tables -table 3 | cmp testdata/table3.txt -

# Table IV golden gate: espresso on the one- to three-word symbolic
# covers of bbara to planet, under the area-driven and the low-power
# codes; its output holds no wall times either.
go run ./cmd/tables -table 4 | cmp testdata/table4.txt -

# Regression-comparator self-consistency: obsdiff of a snapshot against
# itself must exit 0 for both input kinds, whatever the thresholds.
go run ./cmd/obsdiff "$ledger_tmp" "$ledger_tmp"
go run ./cmd/obsdiff BENCH_4.json BENCH_4.json

# Cross-snapshot trajectory gates: each committed baseline step must
# show no cube delta and no wall regression — BENCH_2 -> BENCH_3 (set-algebra classify /
# multi-word kernels / warm-start) and BENCH_3 -> BENCH_4 (estimate-
# polish scratch buffers, don't-look candidate memory, split fusion,
# cache hot-path trim). Sub-15ms measurements sit inside the container's
# timer noise and are skipped; the large rows carry the signal.
go run ./cmd/obsdiff -min-ns 15000000 BENCH_2.json BENCH_3.json
go run ./cmd/obsdiff -min-ns 15000000 BENCH_3.json BENCH_4.json
rm -f "$tables_tmp" "$ledger_tmp"

# Corpus-batch smoke: generate a small fixed-seed corpus, run it cold
# against a fresh store, then warm against the populated store. The two
# aggregate snapshots must be byte-identical (the cache may change wall
# time, never a measurement) and the warm pass must actually reuse the
# store: it appends nothing, so it must leave every shard byte-identical
# to the cold run's and the WAL empty.
batch_dir=$(mktemp -d /tmp/picola-batch.XXXXXX)
go run ./cmd/batch -gen -seed 7 -count 100 -max-symbols 14 "$batch_dir/corpus" >/dev/null
go run ./cmd/batch -store "$batch_dir/store" -json "$batch_dir/cold.json" "$batch_dir/corpus" >/dev/null
cp -R "$batch_dir/store" "$batch_dir/store.cold"
go run ./cmd/batch -store "$batch_dir/store" -json "$batch_dir/warm.json" "$batch_dir/corpus" >/dev/null
cmp "$batch_dir/cold.json" "$batch_dir/warm.json"
go run ./cmd/obsdiff "$batch_dir/cold.json" "$batch_dir/warm.json"
for shard in "$batch_dir"/store.cold/shard-*.ir; do
  cmp "$shard" "$batch_dir/store/$(basename "$shard")"
done
[ ! -s "$batch_dir/store/wal.irlog" ] || { echo "warm re-run left entries in the store WAL" >&2; exit 1; }
rm -rf "$batch_dir"

# Introspection-server smoke: run a sweep with -http on an ephemeral
# port, scrape /healthz and /metrics while it serves, and check that the
# Prometheus exposition carries the core counter family and the encode
# latency histogram's +Inf bucket.
obs_bin=$(mktemp /tmp/picola-tables.XXXXXX)
obs_log=$(mktemp /tmp/picola-http.XXXXXX.log)
obs_metrics=$(mktemp /tmp/picola-metrics.XXXXXX)
go build -o "$obs_bin" ./cmd/tables
"$obs_bin" -table 1 -check -http 127.0.0.1:0 >/dev/null 2>"$obs_log" &
obs_pid=$!
obs_addr=""
for i in $(seq 1 50); do
  obs_addr=$(sed -n 's,^tables: introspection server on http://,,p' "$obs_log")
  [ -n "$obs_addr" ] && break
  sleep 0.1
done
[ -n "$obs_addr" ] || { cat "$obs_log" >&2; exit 1; }
# (plain grep, not -q: -q exits at the first match and the broken pipe
# makes curl -f report a write error)
curl -fsS "http://$obs_addr/healthz" | grep '^ok$' >/dev/null
curl -fsS "http://$obs_addr/metrics" >"$obs_metrics"
grep '^picola_core_encodes ' "$obs_metrics" >/dev/null
grep '^picola_core_encode_ns_bucket{le="+Inf"}' "$obs_metrics" >/dev/null
curl -fsS "http://$obs_addr/metrics?format=json" | grep '"counters"' >/dev/null
curl -fsS "http://$obs_addr/progress" | grep '"total"' >/dev/null
wait "$obs_pid"
rm -f "$obs_bin" "$obs_log" "$obs_metrics"

# The semantic verification oracle (internal/verify) must clear the
# committed corpora plus a deterministic batch of random instances:
# every encoding re-proved valid from first principles, minimizations
# cross-checked against the exact cover, metamorphic invariants intact.
go run ./cmd/verify -random 8 -seed 1 testdata/figure1.cons testdata/infeasible.cons
# verify -trace smoke: the audited encodes report to the session's
# tracer, so the trace holds the encoder's spans, a restart span among
# them.
vtrace_dir=$(mktemp -d /tmp/picola-vtrace.XXXXXX)
go run ./cmd/verify -algo picola -trace "$vtrace_dir/trace.jsonl" testdata/figure1.cons >/dev/null
[ -s "$vtrace_dir/trace.jsonl" ] || { echo "verify -trace left an empty trace" >&2; exit 1; }
grep -q '"kind":"span","stage":"restart"' "$vtrace_dir/trace.jsonl" || {
  echo "verify -trace recorded no restart span" >&2
  exit 1
}
rm -rf "$vtrace_dir"
# Error-path smoke: a run cut short by its -timeout must still close its
# observability session (DESIGN.md §14) — picola exits 1 and leaves the
# metrics snapshot and the ledger record complete.
err_bin=$(mktemp /tmp/picola-cli.XXXXXX)
err_dir=$(mktemp -d /tmp/picola-errpath.XXXXXX)
go build -o "$err_bin" ./cmd/picola
rc=0
"$err_bin" -timeout 1ns -metrics "$err_dir/metrics.json" -ledger "$err_dir/ledger.json" \
  testdata/figure1.cons 2>/dev/null || rc=$?
[ "$rc" -eq 1 ] || { echo "picola -timeout 1ns exited $rc, want 1" >&2; exit 1; }
grep -q '"schema": "picola-ledger/v1"' "$err_dir/ledger.json"
grep -q '"counters"' "$err_dir/metrics.json"
rm -rf "$err_bin" "$err_dir"

# The parallel execution layer must be bit-deterministic at every worker
# count, and cancellation all-or-nothing (DESIGN.md §14): run the
# determinism and cancellation suites under the race detector at both
# ends of the GOMAXPROCS range (the env propagates to the cmd/tables
# subprocesses the suite spawns).
GOMAXPROCS=1 go test -race -count=1 -run 'Determinism|Cancel' .
GOMAXPROCS=4 go test -race -count=1 -run 'Determinism|Cancel' .

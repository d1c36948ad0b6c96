#!/bin/sh
# verify.sh — the repo's pre-merge gate: the static checks (go vet plus
# picolint, the determinism/tracing/error-handling analyzer suite in
# internal/analysis), the full test suite, and the race detector over
# every package.
set -eux

go vet ./...
go build ./...

# picolint must exit clean on the tree and must still catch each seeded
# fixture violation (one positive fixture per analyzer) — a lint suite
# that stops firing is worse than none.
go run ./cmd/picolint ./...
for a in detrange seedrand spanend dropperr tracenil poolput metricname \
         dettaint lockcheck leakcheck hotalloc; do
  if go run ./cmd/picolint "./internal/analysis/testdata/src/$a" >/dev/null 2>&1; then
    echo "picolint no longer flags the $a fixture" >&2
    exit 1
  fi
done

# Baseline-is-current gate: regenerating the baseline must reproduce the
# committed file byte for byte — entries only leave through a commit
# that also fixes (or justifies) the finding, and new findings must be
# fixed rather than silently accumulated.
base_tmp=$(mktemp /tmp/picola-baseline.XXXXXX)
go run ./cmd/picolint -baseline "$base_tmp" -write-baseline ./... 2>/dev/null
cmp picolint.baseline "$base_tmp" || {
  echo "picolint.baseline is out of date; run: go run ./cmd/picolint -write-baseline ./..." >&2
  exit 1
}
rm -f "$base_tmp"

go test ./...
go test -race ./...

# Allocation-regression gate: on a warmed arena, one exact constraint
# scoring must perform zero heap allocations, and on a warmed encoder one
# classify column scan likewise (the hot-path pooling contract;
# testing.AllocsPerRun-based, so a single stray make fails it). The
# store lifecycle gates bound cache import at about one allocation per
# inserted entry and a store append of known entries at a constant.
go test -run TestAllocs -count=1 ./internal/eval ./internal/core ./internal/evalstore

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

# Table III golden gate: EncodeAll plus the code-length sweep is the only
# committed experiment that runs the estimate polish at nv 8-10, so its
# output (no wall times) must match the committed table byte for byte.
go run ./cmd/tables -table 3 | cmp testdata/table3.txt -

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

# The parallel execution layer must be bit-deterministic at every worker
# count, and cancellation all-or-nothing (DESIGN.md §14): run the
# determinism and cancellation suites under the race detector at both
# ends of the GOMAXPROCS range (the env propagates to the cmd/tables
# subprocesses the suite spawns).
GOMAXPROCS=1 go test -race -count=1 -run 'Determinism|Cancel' .
GOMAXPROCS=4 go test -race -count=1 -run 'Determinism|Cancel' .

// Command batch is the corpus-scale successor to cmd/tables: it streams
// a directory or manifest of constraint instances (consfile or KISS)
// through the PICOLA encoder, fans instances out across -j workers
// within the process and across processes via -shard i/N, checkpoints
// every completed instance to a resumable journal, and aggregates the
// results into one picola-bench/v1 snapshot.
//
//	batch -gen -seed 1 -count 1000 -max-symbols 10 DIR
//	    generate a fixed-seed corpus (plus manifest.txt) under DIR
//	batch -checkpoint run.ckpt -store cache/ -json out.json DIR
//	    run the corpus; re-invoking resumes from the checkpoint every
//	    instance whose frame holds the problem the instance holds now
//	batch -merge -json all.json shard0.json shard1.json ...
//	    union per-shard snapshots into one corpus snapshot
//
// The snapshot is deterministic — rows sort by instance name and carry
// zero wall times — so a killed-and-resumed, resharded, or reparallel-
// ized run produces byte-identical bytes, and cmd/obsdiff gates cube
// deltas between any two runs of the same corpus. Timing goes to the
// machine-parseable stdout summary line (summed_wall_ns=...), summed
// from per-instance walls that the checkpoint journal preserves across
// resumes.
//
// -store DIR names a persistent evalstore directory: the minimization
// cache loads from it before the sweep and is appended back and
// compacted after, so a re-run of the same corpus (or an overlapping
// one) skips straight to its memoized minimizations. -limit N stops
// after N newly computed instances with exit status 3, leaving the
// checkpoint primed for the next invocation. -audit verifies every
// encoding against the semantic oracles. Observability: -trace,
// -metrics, -ledger, -http, -cpuprofile, -memprofile and -v as in
// cmd/tables; /progress reports the live corpus position.
package main

import (
	"flag"
	"fmt"
	"os"

	"picola/internal/cli"
)

func main() {
	var cfg config
	flag.BoolVar(&cfg.gen, "gen", false, "generate a corpus under the argument directory instead of running")
	flag.BoolVar(&cfg.merge, "merge", false, "merge per-shard -json snapshots given as arguments into -json")
	flag.Int64Var(&cfg.seed, "seed", 1, "corpus seed (-gen)")
	flag.IntVar(&cfg.count, "count", 1000, "corpus instance count (-gen)")
	flag.IntVar(&cfg.maxSymbols, "max-symbols", 10, "corpus maximum symbols per instance (-gen)")
	flag.IntVar(&cfg.density, "density", 0, "corpus constraints per symbol (-gen; 0 = sparse default)")
	shard := flag.String("shard", "0/1", "process shard `i/N`: run only instances hashing to shard i of N")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "resumable checkpoint journal `FILE`")
	flag.StringVar(&cfg.storeDir, "store", "", "persistent minimization-cache store `DIR`")
	flag.StringVar(&cfg.jsonOut, "json", "", "write the aggregate picola-bench/v1 snapshot to `FILE` (- for stdout)")
	flag.BoolVar(&cfg.audit, "audit", false, "verify every encoding against the semantic oracles")
	flag.IntVar(&cfg.limit, "limit", 0, "stop after `N` newly computed instances with exit status 3 (0 = no limit)")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 256<<20,
		"in-memory minimization cache budget (0 = the 64 MiB library default; corpus sweeps want the working set resident)")
	flag.Bool("v", false, "print a per-stage wall-clock summary to stderr")
	os.Exit(cli.Main("batch", flag.CommandLine, os.Args[1:], func(env *cli.Env) error {
		cfg.args = flag.Args()
		cfg.workers = env.Workers
		if _, err := fmt.Sscanf(*shard, "%d/%d", &cfg.shardIdx, &cfg.shardN); err != nil {
			return cli.Exit(exitUsage, fmt.Errorf("bad -shard %q, want i/N", *shard))
		}
		return cli.Exit(run(env.Ctx, cfg, os.Stdout, os.Stderr), nil)
	}))
}

#!/usr/bin/env python3
"""Build and run the PICOLA benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark in this directory against the engine
in the enclosing checkout, then replaces itself with the built binary,
passing every argument through. The Go build cache, temporary files,
the binary and everything the benchmark writes live under .bench_build/
at the repository root, so a run touches nothing outside the checkout.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    work = os.path.join(root, ".bench_build", "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOTMPDIR": os.path.join(work, "gotmp"),
        "TMPDIR": os.path.join(work, "gotmp"),
        "GOPATH": os.path.join(work, "gopath"),
        # The go command keeps its env file and telemetry counters under
        # the user config directory.
        "XDG_CONFIG_HOME": os.path.join(work, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    os.chdir(root)
    os.execve(binary, [binary, "--workdir", work] + sys.argv[1:], env)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-full --seed 1 --seconds 10 --trace 0

perfbench/ is a Go module of its own that builds the repository's packages
from source through a replace directive. This script builds it into
.bench_build/, keeping the Go build cache and every other file the Go
command writes inside that directory, then runs the binary from the
repository root with the same arguments. A traced run (--trace 1) also
writes its spans to .bench_build/trace/<workload>.spans.csv.

It exits non-zero without printing a result when it is not run from a
repository checkout or when the build fails. When the benchmark's verdict
gate fails, the result line says "correct": false, carries no metrics,
and the exit code is non-zero.
"""

import os
import shutil
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in (os.path.join(root, "go.mod"), os.path.join(bench, "go.mod")):
        if not os.path.isfile(need):
            sys.stderr.write("perfbench: %s not found; run from the repository root\n" % need)
            return 2

    out = os.path.join(root, ".bench_build")
    home = os.path.join(out, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "HOME": home,
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })

    go = shutil.which("go")
    if go is None:
        sys.stderr.write("perfbench: the go command is not on PATH\n")
        return 2
    binary = os.path.join(out, "perfbench")
    tmp = binary + ".tmp"
    build = subprocess.run([go, "build", "-o", tmp, "."], cwd=bench, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    os.replace(tmp, binary)

    args = [binary] + sys.argv[1:] + ["--trace-out", os.path.join(out, "trace")]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

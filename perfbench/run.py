#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload replay-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --layers .bench_build/perfbench-out/contention-10k-seed1.cpu.pprof

Every argument is passed to the benchmark (see perfbench/README.md). The Go
build cache, the binary and the run outputs all stay under the build
directory ($CARGO_TARGET_DIR when set, else .bench_build). If the build
fails, for example because the repository's Go module is missing, the
script exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None and os.environ.get("GOROOT"):
        go = os.path.join(os.environ["GOROOT"], "bin", "go")
    if go is None or not os.path.exists(go):
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 2
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        # Keep the toolchain's own config and telemetry files in the build
        # directory too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if not any(a == "--out" or a.startswith("--out=") for a in args):
        args += ["--out", os.path.join(build, "perfbench-out")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

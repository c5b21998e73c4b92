#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper|corpus|storm --seed N --seconds S --trace 0|1

Every build output (the Go build cache, the binary, temporary files)
stays under .bench_build/ in the repository root. The script exits with
the benchmark's status; a failed build exits non-zero without a result.
"""

import os
import shutil
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build")
    gotmp = os.path.join(out, "tmp")
    os.makedirs(gotmp, exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("run.py: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=gotmp,
        TMPDIR=gotmp,
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(out, "perfbench")
    build = subprocess.run([go, "build", "-o", exe, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload managed --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a Go module that uses the repository's module through a
local replace) into .bench_build/, keeping the Go build cache, module cache
and temporary files there too, then runs it with the given arguments. A
traced run (--trace 1) also writes its spans to .bench_build/spans-*.jsonl.
The exit code is the benchmark's; a failed build exits 1 and prints no
result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.abspath(out)
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=os.path.join(out, "tmp"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=840,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1

    args = sys.argv[1:]
    flags = dict(zip(args[::2], args[1::2]))  # --name value pairs
    if flags.get("--trace") == "1":
        name = "spans-%s-%s.jsonl" % (flags.get("--workload", "managed"), flags.get("--seed", "1"))
        args += ["--spans", os.path.join(out, name)]
    return subprocess.run([binary] + args, cwd=root, env=env, timeout=900).returncode


if __name__ == "__main__":
    sys.exit(main())

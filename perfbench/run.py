#!/usr/bin/env python3
"""Build memeserve, memepipeline and the perfbench program from source, then
run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 30 --trace 0

Every build output, cache and temporary file stays under .bench_build/ in the
working directory. The arguments are passed through to perfbench; its last line
of standard output is the JSON result.

perfbench and every process it starts run pinned to one CPU. On a shared VM a
request handed between processes on different CPUs waits for the hypervisor to
wake the idle one, and that wait, not the program, would set the latency.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for k in ("gocache", "gomodcache", "tmp", "xdg"):
        os.makedirs(os.path.join(BUILD, k), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "xdg"),  # keeps Go telemetry inside the checkout
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
    )
    return env


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "cmd", "memeserve"))):
        print("run.py: run from the repository root (no go.mod or cmd/memeserve here)", file=sys.stderr)
        return 2
    env = go_env()
    bin_dir = os.path.join(BUILD, "bin")
    os.makedirs(bin_dir, exist_ok=True)
    builds = [
        (ROOT, ["go", "build", "-o", bin_dir + os.sep, "./cmd/memeserve", "./cmd/memepipeline"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", os.path.join(bin_dir, "perfbench"), "."]),
    ]
    for cwd, cmd in builds:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    cpu = max(os.sched_getaffinity(0))
    r = subprocess.run(
        [os.path.join(bin_dir, "perfbench"), "--bin", bin_dir] + sys.argv[1:],
        env=env,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())

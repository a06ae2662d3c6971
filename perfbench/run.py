#!/usr/bin/env python3
"""Build and run the regemu benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a regemu source tree.  The benchmark is a dune
project of its own (perfbench/dune-project).  It is built in a workspace
under .bench_build/ that links the project file, the repo's lib/ and
the benchmark's src/ and test/, so a build of the repo itself never
compiles or tests it.  A run builds bench.exe, runs one workload, and
passes its output through; the last line is the JSON result.  The
metric names in that result are checked against BENCHMARK.json, so the
two cannot drift apart unnoticed.  --selftest runs the benchmark's own
tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WS = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(WS, "_build", "default", "src", "bench.exe")
# workspace entry -> its source, relative to the root of the tree
LINKS = {
    "dune-project": "perfbench/dune-project",
    "lib": "lib",
    "src": "perfbench/src",
    "test": "perfbench/test",
}
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def workspace():
    os.makedirs(WS, exist_ok=True)
    for name, src in LINKS.items():
        link = os.path.join(WS, name)
        target = os.path.relpath(os.path.join(ROOT, src), WS)
        if os.path.islink(link) and os.readlink(link) == target:
            continue
        if os.path.lexists(link):
            os.remove(link)
        os.symlink(target, link)


def dune(args, env):
    return subprocess.run(["dune"] + args + ["--root", WS], cwd=WS, env=env,
                          stdout=sys.stderr, stderr=sys.stderr).returncode


def main(argv):
    # the shared dune cache lives outside the tree; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    for need in LINKS.values():
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a regemu source tree: %s is missing under %s" % (need, ROOT))
    if argv == ["--selftest"]:
        workspace()
        return dune(["test"], env)
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    trace = parser.parse_known_args(argv)[0].trace
    workspace()
    if dune(["build", "./src/bench.exe"], env) != 0:
        fail("build failed")
    env["PERFBENCH_COMMIT"] = commit()
    try:
        run = subprocess.run([EXE] + argv, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(run.stdout)
        fail("no JSON result (exit code %d)" % run.returncode)
    if set(result.get("metrics", {})) != declared(trace):
        sys.stderr.write(run.stdout)
        fail("metric names differ from BENCHMARK.json")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

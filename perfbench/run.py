#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. The script builds
perfbench/bench.exe with dune into .bench_build/, runs the workload, and
prints the bench's human-readable report followed, as the last line, by
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports every end-to-end metric named in BENCHMARK.json.
--trace 1 runs the workload twice, untraced and then traced, and reports
every per-layer metric: the traced run's layer figures (0 for a layer
the workload never calls), its self-time table, and the tracing
overhead, which is the traced run's end-to-end figures against the
untraced run's. The traced run's Chrome trace is written to
.bench_build/perfbench/.

Extra options: --size toy (seconds-scale inputs, used by selfcheck.py).
Exit status is 0 only when a result line was printed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850.0  # a first build in a fresh checkout
RUN_DEADLINE_S = 170.0  # every run after the build ends within 180 s


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build(timeout):
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s missing: run from a full checkout of the repository" % need)
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "perfbench/bench.exe"]
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace"))
        die("build failed")


def source_rev():
    """The git revision when the checkout is a git work tree, else a
    digest of the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               timeout=10)
            if r.returncode == 0:
                return r.stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_bench(args, traced, rev, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--size", args.size, "--rev", rev]
    if traced:
        out_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--chrome", os.path.join(
            out_dir, "%s-seed%d.chrome.json" % (args.workload, args.seed))]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        die("out of time before the %s run" % ("traced" if traced else "untraced"))
    # the libraries' default pools match the benchmark's own
    env = dict(os.environ, CR_DOMAINS=str(min(2, os.cpu_count() or 1)))
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        die("bench.exe did not finish in time")
    out = r.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if r.returncode != 0 or not out:
        die("bench.exe exited with %d" % r.returncode)
    try:
        result = json.loads(out[-1])
    except ValueError:
        die("bench.exe printed no result line")
    return out[:-1], result


def overhead(untraced, traced, better):
    """Tracing overhead as a share of the untraced figure, positive when
    tracing made the metric worse."""
    worse = traced - untraced if better == "lower" else untraced - traced
    return worse / untraced


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    args = p.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r; known: %s" % (args.workload, ", ".join(names)))
    build(BUILD_TIMEOUT_S)
    deadline = time.monotonic() + RUN_DEADLINE_S
    rev = source_rev()

    lines, plain = run_bench(args, False, rev, deadline)
    runs = [plain]
    if args.trace:
        lines, traced = run_bench(args, True, rev, deadline)
        runs.append(traced)
    for line in lines:
        print(line)
    print("provenance: " + json.dumps(runs[-1]["provenance"], sort_keys=True))

    correct = all(r["correct"] for r in runs)
    metrics = {}
    if not args.trace:
        for m in spec["end_to_end"]:
            v = plain["e2e"].get(m["name"])
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0:
                die("end-to-end metric %s missing or not positive" % m["name"])
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        e2e_better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith("trace.overhead."):
                base = name[len("trace.overhead."):]
                v = overhead(plain["e2e"][base], traced["e2e"][base], e2e_better[base])
            else:
                # a layer this workload never calls spent nothing there
                v = traced["layer"].get(name, 0.0)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                die("per-layer metric %s is not a finite number" % name)
            metrics[name] = {"value": v, "unit": m["unit"]}
        unknown = sorted(set(traced["layer"]) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            die("bench.exe reported metrics BENCHMARK.json does not name: "
                + ", ".join(unknown))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

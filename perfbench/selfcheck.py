#!/usr/bin/env python3
"""Self-check of the benchmark at toy sizes (about a minute).

    python3 perfbench/selfcheck.py

Run from the root of a checkout. Checks that:
  - BENCHMARK.json names every metric exactly once, each with a unit and
    a direction, and end-to-end bounds of at most 0.25 with setup_s's
    the largest;
  - every workload runs untraced and traced at toy size, passes its own
    output checks, and prints exactly the metrics BENCHMARK.json names,
    with their units;
  - in every traced run the layer self times plus the residual equal the
    traced wall time, and every layer named in README.md is timed on
    some workload;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("graphgen", "metric", "nets", "core", "serve", "par", "obs",
          "scale", "proto")


def check(ok, msg):
    if not ok:
        print("FAIL: " + msg)
        sys.exit(1)
    print("ok: " + msg)


def run(cwd, workload, trace, timeout=170):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=timeout)
    return r.returncode, r.stdout.decode(errors="replace")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    names = [m["name"] for m in e2e + layer]
    check(len(names) == len(set(names)), "every metric is named exactly once")
    check(all(m["unit"] and m["better"] in ("higher", "lower")
              for m in e2e + layer), "every metric has a unit and a direction")
    bounds = {m["name"]: m["bound"] for m in e2e}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds["setup_s"] == max(bounds.values()),
          "end-to-end bounds are at most 0.25, setup_s's the largest")

    timed = set()
    for w in (x["name"] for x in spec["workloads"]):
        for trace, wanted in ((0, e2e), (1, layer)):
            code, out = run(ROOT, w, trace)
            check(code == 0, "%s --trace %d exits 0" % (w, trace))
            res = json.loads(out.strip().split("\n")[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s --trace %d result has exactly the four keys" % (w, trace))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  "%s --trace %d passes its output checks" % (w, trace))
            got = res["metrics"]
            check(sorted(got) == sorted(m["name"] for m in wanted)
                  and all(got[m["name"]]["unit"] == m["unit"] for m in wanted)
                  and all(math.isfinite(v["value"]) for v in got.values()),
                  "%s --trace %d prints every metric once with its unit"
                  % (w, trace))
            if trace == 0:
                check(all(v["value"] > 0 for v in got.values()),
                      "%s end-to-end metrics are positive" % w)
            else:
                v = {k: x["value"] for k, x in got.items()}
                selfs = sum(x for k, x in v.items()
                            if k.startswith("layer.") and k.endswith(".self_s"))
                total = selfs + v["layer.residual_s"]
                check(abs(total - v["layer.wall_s"]) <= 1e-6 * v["layer.wall_s"],
                      "%s layer self times + residual = wall (%.6f vs %.6f)"
                      % (w, total, v["layer.wall_s"]))
                timed |= {l for l in LAYERS if v["layer.%s.self_s" % l] > 0}
    check(timed == set(LAYERS), "every layer is timed on some workload")

    stripped = os.path.join(ROOT, ".bench_build", "selfcheck-stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
    shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(stripped, spec["workloads"][0]["name"], 0, timeout=180)
    shutil.rmtree(stripped, ignore_errors=True)
    check(code != 0 and '"correct"' not in out,
          "without the repository the benchmark fails without a result")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Condense google-benchmark JSON into the BENCH_micro.json artifact.

Reads one or more google-benchmark ``--benchmark_format=json`` files and
writes a small, stable summary the CI job uploads as an artifact so that
per-commit micro-kernel costs can be tracked over time:

    {
      "schema": "ramp-bench-micro/1",
      "commit": "<git sha>",
      "benchmarks": [
        {"op": "BM_FitEvaluation", "ns_per_iter": 123.4,
         "iterations": 1000000, "bytes_per_second": ..., \
"items_per_second": ...},
        ...
      ]
    }

Per benchmark the *minimum* cpu_time across inputs and repetitions is kept
(same noise policy as check_obs_overhead.py); throughput fields are taken
from that fastest repetition and omitted when the kernel does not report
them. Benchmarks are sorted by op name so the artifact diffs cleanly.

With --rounds, each input file is one round (one run of the bench binary):
each op keeps its per-round minimum as above, then the round holding the
median of those (the lower median for an even count). This is how the
committed baseline is blessed.

Usage:
  bench_to_json.py RESULTS.json... [-o OUT.json] [--rounds]

The default output is $RAMP_OUT_DIR/BENCH_micro.json (out/BENCH_micro.json
when RAMP_OUT_DIR is unset). The commit is resolved from `git rev-parse
HEAD`, falling back to $GITHUB_SHA, then "unknown".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def resolve_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return os.environ.get("GITHUB_SHA", "unknown")


def collect(paths: list[str]) -> list[dict]:
    best: dict[str, dict] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("run_name", bench.get("name", ""))
            op = name.split("/")[0]
            if not op:
                continue
            cpu = float(bench["cpu_time"])
            if op in best and best[op]["ns_per_iter"] <= cpu:
                continue
            entry = {
                "op": op,
                "ns_per_iter": cpu,
                "iterations": int(bench.get("iterations", 0)),
            }
            for key in ("bytes_per_second", "items_per_second"):
                if key in bench:
                    entry[key] = float(bench[key])
            best[op] = entry
    return [best[op] for op in sorted(best)]


def median_of_rounds(paths: list[str]) -> list[dict]:
    rounds = [{b["op"]: b for b in collect([path])} for path in paths]
    out = []
    for op in sorted(set().union(*rounds)):
        entries = [r[op] for r in rounds if op in r]
        mid = statistics.median_low(e["ns_per_iter"] for e in entries)
        out.append(next(e for e in entries if e["ns_per_iter"] == mid))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="+",
                        help="google-benchmark JSON file(s)")
    parser.add_argument("--rounds", action="store_true",
                        help="treat each input as one round and keep each "
                             "op's median round")
    parser.add_argument("-o", "--output",
                        help="output path (default: "
                             "$RAMP_OUT_DIR/BENCH_micro.json)")
    args = parser.parse_args()

    out_path = args.output
    if not out_path:
        out_dir = os.environ.get("RAMP_OUT_DIR", "out")
        out_path = os.path.join(out_dir, "BENCH_micro.json")

    benchmarks = (median_of_rounds(args.results) if args.rounds
                  else collect(args.results))
    if not benchmarks:
        raise SystemExit("error: no benchmark runs found in the input files")
    doc = {
        "schema": "ramp-bench-micro/1",
        "commit": resolve_commit(),
        "benchmarks": benchmarks,
    }

    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    print(f"wrote {len(benchmarks)} benchmark(s) to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

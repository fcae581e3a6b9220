#!/usr/bin/env python3
"""The repository benchmark. Run from the repository root:

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Builds `ramp` and the benchmark's C++ helper from source into .bench_build/
(incremental after the first run), runs one workload for --seconds,
checks every output against the committed references in perfbench/refs/,
and prints one JSON result line last. --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 runs the workload untraced and then
traced, reports the per-layer metrics, and writes the spans as Perfetto
JSON to .bench_build/traces/<workload>.json. See perfbench/NOTES.md."""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import fleet  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402

WORKLOADS = {"sweep_cold": sweep, "serve_mixed": serve, "fleet_dvfs": fleet}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        root = common.repo_root()
        ramp, native = common.build(root)
        module = WORKLOADS[args.workload]
        result = module.run(ramp, native, root, args.seed, args.seconds)
        if args.trace:
            result = module.traced(ramp, native, root, args.seed, args.seconds, result)
        common.emit(result, bool(args.trace))
    except (common.BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

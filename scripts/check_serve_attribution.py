#!/usr/bin/env python3
"""Validate the knee-attribution block bench_serve.py writes.

bench_serve.py finishes a run by driving the saturation knee rate against
a tracing-on server and writing a top-level ``attribution`` block into
BENCH_serve.json: per-phase nanosecond totals from the server's own
``ramp_net_phase_ns_total_*`` counters, the fractions they make of the
whole, and the traced-over-plain throughput ratio. This checker is the CI
contract for that block:

  * the block exists and covers every serving phase (read, parse,
    admission, queue, cache, compute, serialize, flush) — a phase counter
    that vanishes from the server silently breaks the attribution story;
  * phase_ns values are non-negative integers and at least one is > 0;
  * phase_fraction values lie in [0, 1] and sum to 1 (within rounding);
  * requests > 0 and rate_rps > 0 — the pass actually drove load;
  * traced_over_plain >= --min-traced-ratio: the tracing-on overhead
    budget. The default (0.95) is the contract — tracing may cost at
    most 5% of the knee, the serve-path sibling of the 5% budget
    scripts/check_obs_overhead.py holds for the physics pipeline. CI's
    smoke sweep passes an explicit lenient 0.5 (1 s knees are noisy);
    use the default on a quiet machine when blessing baselines. The
    plain-configuration knee itself is gated separately by
    check_bench_regression.py.

Usage:
  check_serve_attribution.py BENCH_serve.json [--min-traced-ratio 0.95]

Exit status: 0 when the block is well-formed, 1 on a violation, 2 on
usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys

PHASES = ("read", "parse", "admission", "queue", "cache", "compute",
          "serialize", "flush")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench", help="BENCH_serve.json from bench_serve.py")
    parser.add_argument("--min-traced-ratio", type=float, default=0.95,
                        help="minimum traced-over-plain throughput at the "
                             "knee (default: 0.95 — the 5%% tracing "
                             "overhead budget)")
    args = parser.parse_args()

    try:
        with open(args.bench, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {args.bench}: {e}", file=sys.stderr)
        return 2

    attr = doc.get("attribution")
    if not isinstance(attr, dict):
        print(f"FAIL: {args.bench} has no attribution block "
              f"(bench_serve.py too old, or the traced pass was skipped)")
        return 1

    failures: list[str] = []

    requests = attr.get("requests")
    if not isinstance(requests, int) or requests <= 0:
        failures.append(f"requests must be a positive integer, "
                        f"got {requests!r}")
    rate = attr.get("rate_rps")
    if not isinstance(rate, (int, float)) or rate <= 0:
        failures.append(f"rate_rps must be positive, got {rate!r}")

    phase_ns = attr.get("phase_ns")
    if not isinstance(phase_ns, dict):
        failures.append(f"phase_ns must be an object, got {phase_ns!r}")
        phase_ns = {}
    for phase in PHASES:
        if phase not in phase_ns:
            failures.append(f"phase_ns is missing phase {phase!r}")
    for phase, ns in phase_ns.items():
        if phase not in PHASES:
            failures.append(f"phase_ns has unknown phase {phase!r}")
        if not isinstance(ns, int) or ns < 0:
            failures.append(f"phase_ns[{phase!r}] must be a non-negative "
                            f"integer, got {ns!r}")
    if phase_ns and not any(isinstance(ns, int) and ns > 0
                            for ns in phase_ns.values()):
        failures.append("phase_ns booked zero nanoseconds in every phase")

    fractions = attr.get("phase_fraction")
    if not isinstance(fractions, dict):
        failures.append(f"phase_fraction must be an object, "
                        f"got {fractions!r}")
        fractions = {}
    if set(fractions) != set(phase_ns):
        failures.append("phase_fraction and phase_ns cover different "
                        "phases")
    total = 0.0
    for phase, frac in fractions.items():
        if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
            failures.append(f"phase_fraction[{phase!r}] must lie in "
                            f"[0, 1], got {frac!r}")
        else:
            total += float(frac)
    if fractions and abs(total - 1.0) > 1e-6:
        failures.append(f"phase fractions sum to {total:.9f}, want 1")

    ratio = attr.get("traced_over_plain")
    if not isinstance(ratio, (int, float)) or ratio <= 0:
        failures.append(f"traced_over_plain must be positive, got {ratio!r}")
    elif ratio < args.min_traced_ratio:
        failures.append(
            f"tracing collapsed knee throughput: traced_over_plain "
            f"{ratio:.3f} < {args.min_traced_ratio:.3f}")

    if failures:
        for f_msg in failures:
            print(f"FAIL: {f_msg}")
        return 1

    top = max(phase_ns, key=phase_ns.get)
    print(f"OK: attribution covers {len(phase_ns)} phases over "
          f"{requests} requests at {rate:.0f} rps; dominant phase "
          f"{top} ({fractions[top]:.1%}), traced/plain {ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

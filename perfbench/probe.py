"""The per-layer probe shared by the traced runs: times each layer's public
functions on a workload's own cells (trace length and seed), and reads the
stage-store counters the program exports."""

import os
import re

import common

PROBE_APPS = ("gcc", "mgrid")   # one SPECint and one SPECfp workload
PROBE_NODES = ("180", "65-1.0")
STORE_COUNTER = re.compile(
    r"^ramp_stage_(sim|power|thermal|fit)_(hits|misses)_total\s+(\d+)", re.M)


def defaults():
    """Every per-layer metric at 0: a layer the workload bypasses reads 0."""
    return {m["name"]: 0.0 for m in common.load_benchmark_spec()["per_layer"]}


def run(native, root, trace_len, seed, spans, reps=50):
    out = common.run_json(
        [native, "probe", "--trace-len", str(trace_len), "--seed", str(seed),
         "--apps", ",".join(PROBE_APPS), "--nodes", ",".join(PROBE_NODES),
         "--dir", os.path.join(common.work_dir(root, "probe"), "store"),
         "--reps", str(reps)], timeout_s=170)
    spans.extend(out["spans"], lane_offset=100)
    return out["metrics"]


def store_counts(text):
    counts = {}
    for stage, kind, value in STORE_COUNTER.findall(text):
        counts[f"pipeline.store.{stage}.{kind}"] = float(value)
    return counts


def store_counts_from_prometheus(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return store_counts(f.read())


def overhead(traced, untraced):
    """Relative cost of the traced run against the untraced one."""
    return (traced - untraced) / untraced


def merge(base, per_layer, attempted, failed):
    """The traced run's result: the untraced run's checks plus the traced
    run's own, and the per-layer metrics."""
    attempted += base["attempted"]
    failed += base["failed"]
    per_layer["bench.fail_frac"] = failed / attempted
    return {"correct": base["correct"] and failed == base["failed"],
            "attempted": attempted, "failed": failed, "per_layer": per_layer,
            "detail": base["detail"]}


def write_trace(spans, root, workload):
    path = os.path.join(common.work_dir(root, "traces"), f"{workload}.json")
    spans.write(path)
    return path

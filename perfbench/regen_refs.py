#!/usr/bin/env python3
"""Regenerates the committed references in perfbench/refs/ from the
program at the current checkout. Run from the repository root:

    python3 perfbench/regen_refs.py [sweep_cold serve_mixed fleet_dvfs]

Only regenerate on purpose: when a change is meant to alter results. The
references are what the benchmark checks every output against.

  sweep_cold.json   per trace seed 42..49: the stdout FIT table of
                    `ramp sweep --trace-len 200000` and a digest per CSV row
                    (computed at --jobs 4; the benchmark runs --jobs 2, so
                    the check also covers job-count determinism)
  serve_mixed.json  a digest of the `result` object for every key the
                    serve_mixed schedule can draw (hot, reuse and miss
                    universes), answered by a server with no caches
  fleet_dvfs.json   detailed-core IPC and qualified FIT of the cells
                    fleet_dvfs prepares, and the sampled-mode curve digest
                    for seeds 0..9"""

import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import fleet  # noqa: E402
import serve  # noqa: E402
import sweep  # noqa: E402

REFS = os.path.join(common.BENCH_DIR, "refs")


def write(name, obj):
    os.makedirs(REFS, exist_ok=True)
    with open(os.path.join(REFS, name), "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote refs/{name}", file=sys.stderr)


def app_names(ramp):
    child = common.Child([ramp, "list"])
    child.wait(60)
    names = []
    for line in child.out_lines:
        m = re.match(r"\|\s*([a-z0-9]+)\s*\|\s*Spec(?:FP|Int)", line)
        if m:
            names.append(m.group(1))
    if len(names) != 16:
        raise common.BenchError(f"`ramp list` named {len(names)} workloads, not 16")
    return names


def regen_sweep(ramp, root):
    sets = {}
    for i in range(sweep.INPUT_SETS):
        out_dir = common.fresh_dir(os.path.join(common.work_dir(root, "refs"), "sweep"))
        env = common.clean_env()
        env["RAMP_SEED"] = str(42 + i)
        child = common.Child([ramp, "sweep", "--jobs", "4", "--trace-len",
                              str(sweep.TRACE_LEN), "--out-dir", out_dir], env=env)
        if child.wait(600) != 0:
            raise common.BenchError("reference sweep failed: " + child.stderr_text())
        table = sweep.parse_table(child.out_lines)
        rows = sweep.csv_rows(os.path.join(out_dir, "ramp_sweep_cache.csv"))
        if len(table) != sweep.CELLS or rows is None or len(rows) != sweep.CELLS:
            raise common.BenchError("reference sweep printed an incomplete table")
        sets[str(i)] = {"ramp_seed": 42 + i, "table": table, "csv_rows": rows}
    write("sweep_cold.json", {"trace_len": sweep.TRACE_LEN, "sets": sets})


def regen_serve(ramp, native, root, apps):
    hot, reuse, miss = serve.universes(apps)
    keys = hot + reuse + miss
    out_dir = common.fresh_dir(os.path.join(common.work_dir(root, "refs"), "serve"))
    port_file = os.path.join(out_dir, "port")
    child = common.Child([ramp, "serve", "--listen", "127.0.0.1:0", "--port-file",
                          port_file, "--jobs", "4", "--trace-len",
                          str(serve.TRACE_LEN), "--out-dir", out_dir, "--no-persist"])
    try:
        while not os.path.exists(port_file):
            if child.proc.poll() is not None:
                raise common.BenchError("reference server did not start")
            time.sleep(0.001)
        with open(port_file) as f:
            port = int(f.read())
        rows = [(0, i % 4, serve.line_of(*k)) for i, k in enumerate(keys)]
        replies = serve.loadgen(native, port, rows, os.path.join(out_dir, "ref"),
                                closed=True)
        serve.shutdown(child, port)
    finally:
        child.kill()
    answers = {}
    for key, (_, _, _, reply) in zip(keys, replies):
        body = serve.result_body(reply)
        if body is None or not json.loads(reply).get("ok"):
            raise common.BenchError(f"reference server failed {key}: {reply}")
        answers[serve.key_of(*key)] = common.sha(body)
    write("serve_mixed.json", {"trace_len": serve.TRACE_LEN, "apps": apps,
                               "answers": answers})


def regen_fleet(native):
    cells = common.run_json([native, "fleet-ref", "--trace-len", str(fleet.TRACE_LEN),
                             "--node", fleet.NODE, "--cell-seed", str(fleet.CELL_SEED)],
                            timeout_s=1800)["cells"]
    digests = {}
    for seed in range(10):
        out = common.run_json(fleet.native_cmd(native, seed, 0, 1), timeout_s=600)
        digests[str(seed)] = out["curve_digest"]
    write("fleet_dvfs.json", {"trace_len": fleet.TRACE_LEN, "node": fleet.NODE,
                              "chips": fleet.CHIPS, "policy": fleet.POLICY,
                              "cells": cells, "curve_digests": digests})


def main():
    which = sys.argv[1:] or ["sweep_cold", "serve_mixed", "fleet_dvfs"]
    root = common.repo_root()
    ramp, native = common.build(root)
    if "sweep_cold" in which:
        regen_sweep(ramp, root)
    if "serve_mixed" in which:
        regen_serve(ramp, native, root, app_names(ramp))
    if "fleet_dvfs" in which:
        regen_fleet(native)
    return 0


if __name__ == "__main__":
    sys.exit(main())

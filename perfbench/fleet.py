"""fleet_dvfs: the in-process fleet workload. FleetSimulator with the
baseline scenario, policy dvfs, node 65-1.0 and cells at 1M instructions
in `auto` mode (so prepare() runs the sampled core), 2 workers.

Set-up is prepare() on a cold stage store; the timed phase repeats run()
over the same population. The prepared cells are judged by the sampled
core's contract (IPC within 2% of the committed detailed-core reference),
not by byte equality."""

import json
import os

import common
import probe

CHIPS = 65_536          # 16 blocks of 4096; a run lasts ~0.5 s
TRACE_LEN = 1_000_000
NODE = "65-1.0"
POLICY = "dvfs"
CELL_SEED = 42
SETUPS = 3
IPC_TOL = 0.02
REF_PATH = os.path.join(common.BENCH_DIR, "refs", "fleet_dvfs.json")


def native_cmd(native, seed, seconds, setups):
    return [native, "fleet", "--chips", str(CHIPS), "--seconds", str(seconds),
            "--setups", str(setups), "--jobs", str(common.JOBS),
            "--trace-len", str(TRACE_LEN), "--node", NODE, "--policy", POLICY,
            "--seed", str(seed), "--cell-seed", str(CELL_SEED)]


def judge_cells(cells, ref):
    """(cells outside the IPC contract, max IPC error %, max FIT error %)."""
    ref_by_app = {c["app"]: c for c in ref["cells"]}
    outside = 0
    ipc_err = fit_err = 0.0
    for c in cells:
        r = ref_by_app.get(c["app"])
        if r is None:
            outside += 2
            continue
        for k in ("ipc_180", "ipc_node"):
            err = abs(c[k] - r[k]) / r[k]
            ipc_err = max(ipc_err, 100 * err)
            outside += err > IPC_TOL
        fit_err = max(fit_err, 100 * abs(c["total_fit"] - r["total_fit"]) / r["total_fit"])
    outside += 2 * (len(ref_by_app) - len(cells))
    return outside, ipc_err, fit_err


def run(ramp, native, root, seed, seconds):
    with open(REF_PATH) as f:
        ref = json.load(f)
    out = common.run_json(native_cmd(native, seed, seconds, SETUPS), timeout_s=175)
    outside, ipc_err, fit_err = judge_cells(out["cells"], ref)
    runs_ms = [s * 1e3 for s in out["run_s"]]
    tail_p, tail_v, n = common.tail(runs_ms)
    wall = common.median(out["run_s"])
    e2e = {"setup_s": common.median(out["setup_s"]), "wall_s": wall,
           "throughput": CHIPS / wall, "p50_ms": common.median(runs_ms),
           "tail_ms": tail_v, "peak_rss_mb": out["peak_rss_mb"]}
    expected = ref["curve_digests"].get(str(seed))
    # A cell outside the sampled contract is an accuracy finding, reported
    # through cells_outside_contract, sim.sampled.ipc_err_pct and
    # fleet.fit_err_pct; a run whose curve differs from the first run's is
    # a failed operation (the curve must be deterministic).
    failed = out["digest_mismatches"]
    detail = {"workload": "fleet_dvfs", "seed": seed, "runs": len(runs_ms),
              "setups": len(out["setup_s"]), "tail_percentile": tail_p,
              "tail_samples": n, "survival": out["survival"],
              "curve_digest": out["curve_digest"],
              "curve_matches_reference": None if expected is None
              else expected == out["curve_digest"],
              "cells_outside_contract": outside, "ipc_err_pct": ipc_err,
              "fit_err_pct": fit_err,
              "prepare_sim_misses": out["prepare_sim_misses"]}
    return {"correct": failed == 0, "attempted": len(runs_ms), "failed": failed, "end_to_end": e2e, "detail": detail}


def traced(ramp, native, root, seed, seconds, base):
    """After an untraced run (`base`): one set-up and the timed phase with
    spans around prepare() and each run(), the same population under
    policy `none` (the DRM share of a chip), then a layer probe on fleet
    cells."""
    with open(REF_PATH) as f:
        ref = json.load(f)
    out = common.run_json(native_cmd(native, seed, seconds, 1) + ["--traced"],
                          timeout_s=175)
    _, ipc_err, fit_err = judge_cells(out["cells"], ref)
    spans = common.Spans()
    spans.extend(out["spans"])
    layer = probe.run(native, root, TRACE_LEN, CELL_SEED, spans, reps=20)
    per_layer = probe.defaults()
    per_layer.update(layer)
    per_layer.update(out["prepare_store"])
    run_s = common.median(out["run_s"])
    none_s = common.median(out["run_none_s"])
    prepare_s = out["setup_s"][0]
    n_cells = len(out["cells"]) * 2
    # prepare() is one call: its cells are attributed with the probe's
    # per-stage costs (sampled sim, power, thermal, fit) of a fleet cell.
    cell_s = (layer["sim.sampled.ns_per_instr"] * TRACE_LEN * 1e-9
              + (layer["power.us_per_cell"] + layer["thermal.us_per_cell"]
                 + layer["fit.us_per_cell"]) * 1e-6)
    traced_s = prepare_s + sum(out["run_s"])
    per_layer.update({
        "sim.instructions": out["prepare_sim_misses"] * TRACE_LEN,
        "sim.sampled.ipc_err_pct": ipc_err,
        "pipeline.sweep.cell_p50_ms": cell_s * 1e3,
        "pipeline.sweep.parallel_eff": out["run_cpu_s"] / (common.JOBS * sum(out["run_s"])),
        "fleet.prepare.cells": n_cells,
        "fleet.prepare.sim_misses": out["prepare_sim_misses"],
        "fleet.us_per_chip": run_s / CHIPS * 1e6,
        "drm.us_per_chip": (run_s - none_s) / CHIPS * 1e6,
        "fleet.fit_err_pct": fit_err,
        "bench.unattributed_frac": max(0.0, prepare_s - n_cells * cell_s) / traced_s,
        "bench.trace_overhead_frac": probe.overhead(run_s, base["end_to_end"]["wall_s"]),
    })
    probe.write_trace(spans, root, "fleet_dvfs")
    return probe.merge(base, per_layer, len(out["run_s"]), out["digest_mismatches"])

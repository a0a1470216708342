"""The cate-al benchmark: one command per workload, from the repository root.

    python3 bench/run.py --workload gp_search --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0
    python3 bench/run.py --self-test

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``gp_search``: two in-process GP cells with the hyperparameter search
  refitted every round (cmgp on ``causalbald``, nsgp on ``hahn_nonlinear``).
* ``gp_posterior``: two in-process GP cells that search once and then spend
  their time on posterior queries (cmgp and nsgp on ``hahn_nonlinear``).
* ``ensemble_matrix``: ``cate-al run --jobs 2`` over four ensemble cells,
  then ``cate-al summarize``.

An untraced run sets up ``SETUP_REPEATS`` times in fresh processes, then
runs passes over the workload's cells until ``--seconds`` have passed, and
prints the end-to-end metrics. A traced run (``--trace 1``) makes one
untraced pass, one traced pass and the fixed-size layer probes, and prints
the per-layer metrics. Every pass is checked and fingerprinted (acquired
indices and PEHE curves). The last line of standard output is the JSON
result; each run is also appended to ``.bench_out/runs.jsonl``, and
``bench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def provenance() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception as exc:  # the layout of show_config differs across versions
            return f"unknown ({type(exc).__name__})"

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cate_al")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def measure_setup(workload, seed: int, env: dict, work_dir: str, quick: bool):
    """Median wall seconds from process start to the first cell, over fresh
    processes, plus the medians of their import and data-generation parts."""
    from workloads import run_child

    walls, imports, generates = [], [], []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_child.py"), workload.name, str(seed),
               os.path.join(work_dir, f"setup-{i}")] + (["quick"] if quick else [])
        code, wall, out = run_child(cmd, env, timeout=60)
        if code != 0:
            raise RuntimeError(f"set-up process exited {code}")
        parts = json.loads(out.strip().splitlines()[-1])
        walls.append(wall)
        imports.append(parts["import_s"])
        generates.append(parts["generate_s"])
    return statistics.median(walls), statistics.median(imports), statistics.median(generates)


def design_check(name: str, layer: dict, cell_span_s: float) -> tuple[dict, str]:
    """Shares of a cell's time per block, and whether the workload stresses
    the layer it was chosen for."""
    v = {k: val for k, (val, _) in layer.items()}
    blocks = {
        "search": v["gp.search_s"],
        "fit": v["gp.fit_s"] + v["ensemble.fit_s"],
        "moment_bundle": v["gp.moment_bundle_s"] + v["ensemble.moment_bundle_s"],
        "score+latent_var": v["acquisition.score_s"] + v["beliefs.latent_var_s"],
        "pehe": v["evaluation.pehe_s"],
        "select": v["active_loop.select_s"],
        "loop_self": v["active_loop.self_s"],
    }
    shares = {k: b / cell_span_s for k, b in blocks.items()}
    top = max(shares, key=shares.get)
    if name == "gp_search":
        ok, claim = top == "search", "gp.search_s has the largest share"
    elif name == "gp_posterior":
        ok, claim = shares["search"] < 0.5, "gp.search_s has a minority share"
    else:
        ok, claim = top == "score+latent_var", "acquisition.score_s + beliefs.latent_var_s have the largest share"
    return shares, f"{claim}: {'holds' if ok else 'DOES NOT HOLD'}"


def run_workload(workload, seed: int, seconds: float, trace: bool, env: dict, work_dir: str,
                 quick: bool = False) -> dict:
    """Run one workload; returns every metric computed, with checks."""
    import tracer as tracing
    from probes import layer_probes, summarize_probe

    os.makedirs(work_dir, exist_ok=True)
    setup_s, import_s, generate_s = measure_setup(workload, seed, env, work_dir, quick)
    prepared = workload.prepare(seed, os.path.join(work_dir, "main"))

    passes = []
    t_start = time.perf_counter()
    while not passes or (not trace and time.perf_counter() - t_start < seconds):
        passes.append(workload.run_pass(prepared, env=env, pass_dir=os.path.join(work_dir, f"pass-{len(passes)}")))
    first = passes[0]
    errors = [e for p in passes for e in p.errors]
    if any(p.fingerprint != first.fingerprint for p in passes):
        errors.append("the fingerprint differs between passes of one seed")

    completed = [p for p in passes if p.cells > p.failed]
    cell_s = statistics.median(p.cell_s for p in completed) if completed else math.nan
    curves = first.pehe_curves
    metrics = {
        "cell_s": (cell_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0, "MB"),
        "sqrt_pehe_curve": (statistics.fmean(v for c in curves for v in c) if curves else math.nan, "outcome"),
        "sqrt_pehe_final": (statistics.fmean(c[-1] for c in curves) if curves else math.nan, "outcome"),
    }
    attempted = sum(p.cells for p in passes)
    failed = sum(p.failed for p in passes)
    info = {"passes": len(passes), "cells_per_pass": first.cells,
            "summarize_s": [p.summarize_s for p in passes if p.summarize_s is not None]}

    layer = {}
    if trace:
        traced, spans, missing = workload.run_traced(prepared, env, work_dir)
        if missing:
            print(f"trace: no boundary at {', '.join(missing)}", file=sys.stderr)
        attempted += traced.cells
        failed += traced.failed
        errors += traced.errors
        if traced.fingerprint != first.fingerprint:
            errors.append("tracing changed the fingerprint")
        errors += tracing.nesting_errors(spans)
        errors += tracing.self_time_sum_errors(spans, "active_loop.run")

        layer = tracing.layer_metrics(spans, traced.cells - traced.failed)
        runs = [s for s in spans if s["name"] == "active_loop.run"]
        cell_span_s = sum(s["end"] - s["start"] for s in runs) / max(len(runs), 1)
        info["layer_shares"], info["design_check"] = design_check(workload.name, layer, cell_span_s)
        overhead = traced.cell_s / cell_s - 1.0 if traced.cells > traced.failed else math.nan
        layer["trace.overhead_frac"] = (overhead, "frac")
        layer["dgp.generate_s"] = (generate_s, "s")
        layer["cate_al.import_s"] = (import_s, "s")
        scale = 0.05 if quick else 1.0
        layer.update(layer_probes(seed, scale))
        summarized, summary_errors = summarize_probe(seed, os.path.join(work_dir, "summarize"), scale)
        layer.update(summarized)
        errors += summary_errors
    return {
        "metrics": metrics, "layer": layer, "attempted": attempted, "failed": failed,
        "fingerprint": first.fingerprint, "errors": errors, "info": info,
    }


def reference_status(workload: str, seed: int, fingerprint: str) -> str:
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(workload, {})
    if str(seed) not in reference:
        return "no reference for this seed"
    return "match" if reference[str(seed)] == fingerprint else f"CHANGED (reference {reference[str(seed)]})"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, seed: int, result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the JSON metrics."""
    info = result["info"]
    print(f"workload {name} seed {seed}: {info['passes']} untraced pass(es) of {info['cells_per_pass']} cells; "
          f"{result['attempted']} cells attempted, {result['failed']} failed")
    samples = {
        "cell_s": f"median over {info['passes']} pass(es) of the mean over completed cells",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "peak of the benchmark and its children over the run",
        "sqrt_pehe_curve": "mean over completed cells x steps of the first pass",
        "sqrt_pehe_final": "mean over completed cells of the first pass",
    }
    for key, (value, unit) in result["metrics"].items():
        print(f"metric {key} = {_fmt(value)} {unit} ({samples[key]})")
    frac = result["failed"] / result["attempted"]
    print(f"metric cells_failed_frac = {_fmt(frac)} frac ({result['attempted']} cells attempted)")
    if info["summarize_s"]:
        print(f"info cate-al summarize wall = {_fmt(statistics.median(info['summarize_s']))} s")
    print(f"fingerprint {result['fingerprint']}: {reference_status(name, seed, result['fingerprint'])}")
    for key, (value, unit) in result["layer"].items():
        print(f"layer {key} = {_fmt(value)} {unit}")
    if trace:
        shares = ", ".join(f"{k} {v:.3f}" for k, v in info["layer_shares"].items())
        print(f"layer shares of the cell span: {shares}")
        print(f"design check {name}: {info['design_check']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = {**result["metrics"], **result["layer"]} if trace else result["metrics"]
    out = {}
    for m in wanted:
        if m["name"] not in source:
            result["errors"].append(f"metric {m['name']} was not measured")
            continue
        value, unit = source[m["name"]]
        out[m["name"]] = {"value": value, "unit": unit}
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}")
    return out


def self_test(env: dict) -> int:
    """Quick checks of the benchmark itself on shrunken workloads."""
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    work_root = os.path.join(OUT_ROOT, f"selftest-{os.getpid()}")
    try:
        for name, workload in WORKLOADS.items():
            result = run_workload(workload.quick(), 0, 0.0, True, env, os.path.join(work_root, name), quick=True)
            printed = {**result["metrics"], **result["layer"]}
            for m in spec["end_to_end"] + spec["per_layer"]:
                entry = printed.get(m["name"])
                if entry is None or not entry[1] or not isinstance(entry[0], (int, float)):
                    problems.append(f"{name}: metric {m['name']} is not printed with a value and a unit")
                elif m in spec["per_layer"] and entry[1] != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} has unit {entry[1]}, BENCHMARK.json says {m['unit']}")
            problems += [f"{name}: {e}" for e in result["errors"]]
            if result["failed"]:
                problems.append(f"{name}: {result['failed']} cells failed")
            print(f"self-test {name}: traced quick run checked")

        nan_workload = WORKLOADS["gp_search"].quick()
        prepared = nan_workload.prepare(0, os.path.join(work_root, "nan"))
        prepared[0][2].pool.outcomes[:] = float("nan")
        result = nan_workload.run_pass(prepared)
        if result.failed != 1 or result.cells != 2:
            problems.append(f"a NaN-outcome cell gave {result.failed} failed of {result.cells}, expected 1 of 2")
        print("self-test: a NaN-outcome cell is counted as failed")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="quick checks of the benchmark itself")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cate_al", "__init__.py")):
        print(f"error: no cate_al sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    env = child_env()
    if args.self_test:
        return self_test(env)

    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_one(WORKLOADS[name], args, env, spec)
    return 0


def run_one(workload, args, env: dict, spec: dict) -> None:
    work_dir = os.path.join(OUT_ROOT, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), env, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    metrics = report(workload.name, args.seed, result, spec, bool(args.trace))
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "provenance": prov, "fingerprint": result["fingerprint"], "errors": result["errors"],
        "attempted": result["attempted"], "failed": result["failed"], "info": result["info"],
        "metrics": {k: list(v) for k, v in {**result["metrics"], **result["layer"]}.items()},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    os.makedirs(OUT_ROOT, exist_ok=True)
    with open(os.path.join(OUT_ROOT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not result["errors"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())

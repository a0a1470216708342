"""The benchmark's workloads: which cells they run, how, and how the output
of each pass is checked and fingerprinted.

Every cell uses ``n_init=50``, ``n_b=20``, ``temperature=0`` and the
``LoopConfig`` search defaults. Data and every RNG stream come from the
workload seed through ``cate_al.dgp.rng_stream``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

from tracer import Tracer, read_spans

N_INIT = 50
N_B = 20

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def expected_entries(budget: int) -> int:
    """Warm start plus one entry per acquisition round."""
    return 1 + math.ceil((budget - N_INIT) / N_B)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class PassResult:
    """One pass over a workload's cells."""

    cells: int
    failed: int
    busy_s: float                      # untraced wall seconds spent on the completed cells
    pehe_curves: list[list[float]]     # pool root PEHE per completed cell and step
    fingerprint: str
    errors: list[str] = field(default_factory=list)
    summarize_s: float | None = None

    @property
    def cell_s(self) -> float:
        return self.busy_s / (self.cells - self.failed)


def check_curve(label: str, n_labeled: list[int], pehe: list[float], expected: int) -> list[str]:
    """The output checks every completed cell must pass."""
    errors = []
    if len(n_labeled) != expected:
        errors.append(f"{label}: {len(n_labeled)} entries, expected {expected}")
    if any(b <= a for a, b in zip(n_labeled, n_labeled[1:])):
        errors.append(f"{label}: n_labeled is not strictly increasing")
    if not all(math.isfinite(v) and v >= 0.0 for v in pehe):
        errors.append(f"{label}: a root PEHE is not finite and >= 0")
    return errors


# -- in-process cells ---------------------------------------------------------


@dataclass(frozen=True)
class InProcessWorkload:
    """Cells run through ``run_active_learning`` in the benchmark process."""

    name: str
    cells: tuple[tuple[str, str, str], ...]   # (dataset, estimator, method)
    pool_size: int
    test_size: int
    budget: int
    refit_hyperparams: bool

    def quick(self) -> "InProcessWorkload":
        return replace(self, pool_size=120, test_size=120, budget=110)

    def prepare(self, seed: int, out_dir: str):
        """Generate each cell's data; returns what ``run_pass`` needs."""
        from cate_al import AcquisitionMethod, LoopConfig, SplitSpec, make_benchmark
        from cate_al.dgp import rng_stream

        prepared = []
        data = {}
        for dataset, estimator, method in self.cells:
            if dataset not in data:
                data_seed = int(rng_stream(seed, self.name, dataset, "data").integers(2**31))
                spec = SplitSpec(pool_size=self.pool_size, val_size=0, test_size=self.test_size, seed=seed)
                data[dataset] = make_benchmark(dataset, False, spec, seed=data_seed)
            config = LoopConfig(
                n_init=N_INIT, n_b=N_B, n_budget=self.budget, temperature=0.0,
                refit_hyperparams=self.refit_hyperparams, estimator=estimator,
                method=AcquisitionMethod(method), seed=seed,
                warm_start_seed=int(rng_stream(seed, self.name, dataset, "warm").integers(2**31)),
            )
            key = f"{dataset}|{estimator}|{method}|{seed}"
            prepared.append((key, config, data[dataset]))
        return prepared

    def run_pass(self, prepared, tracer=None, **_) -> PassResult:
        from cate_al import active_loop
        from cate_al.dgp import rng_stream

        expected = expected_entries(self.budget)
        busy, curves, errors, trajectory = 0.0, [], [], []
        failed = 0
        for key, config, bench in prepared:
            rng = rng_stream(config.seed, self.name, config.estimator, config.method.name, "loop")
            if tracer is not None:
                tracer.cell = key
            reason = ""
            t0 = time.perf_counter()
            try:
                record = active_loop.run_active_learning(config, bench.pool, bench.test, rng)
            except Exception as exc:  # a raising cell is a failed cell, never the end of the run
                record, reason = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if record is None or record.failed:
                failed += 1
                print(f"cell {key}: FAILED ({reason or record.failure_reason})", file=sys.stderr)
                trajectory.append([key, "failed"])
                continue
            busy += elapsed
            n_labeled = [e.n_labeled for e in record.entries]
            pool = [e.sqrt_pehe_pool for e in record.entries]
            test = [e.sqrt_pehe_test for e in record.entries]
            errors += check_curve(key, n_labeled, pool + test, expected)
            curves.append(pool)
            trajectory.append([key, [[e.n_labeled, list(e.acquired), f"{e.sqrt_pehe_pool:.12g}",
                                      f"{e.sqrt_pehe_test:.12g}"] for e in record.entries]])
        return PassResult(
            cells=len(prepared), failed=failed, busy_s=busy, pehe_curves=curves,
            fingerprint=_digest(trajectory), errors=errors,
        )

    def run_traced(self, prepared, env, work_dir):
        """One pass with this process's layer boundaries traced."""
        tracer = Tracer()
        tracer.install()
        try:
            result = self.run_pass(prepared, tracer=tracer)
        finally:
            tracer.uninstall()
        return result, tracer.finish(), tracer.missing


# -- the command-line matrix ----------------------------------------------------


def run_child(cmd, env, timeout: float) -> tuple[int, float, str]:
    """Run a child in its own session; on timeout kill its whole group."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout} s"
    wall = time.perf_counter() - t0
    if err.strip():
        sys.stderr.write(err if err.endswith("\n") else err + "\n")
    return proc.returncode, wall, out


@dataclass(frozen=True)
class CliMatrixWorkload:
    """``cate-al run --jobs N`` as a subprocess, then ``cate-al summarize``."""

    name: str
    dataset: str
    estimator: str
    methods: tuple[str, ...]
    pool_size: int
    val_size: int
    test_size: int
    budget: int
    jobs: int

    def quick(self) -> "CliMatrixWorkload":
        return replace(self, pool_size=200, val_size=0, test_size=200, budget=110)

    def config_text(self, seed: int) -> str:
        return (
            f"[dataset]\nname = {self.dataset}\npool_size = {self.pool_size}\n"
            f"val_size = {self.val_size}\ntest_size = {self.test_size}\n\n"
            f"[loop]\nn_init = {N_INIT}\nbatch_size = {N_B}\nbudget = {self.budget}\ntemperature = 0.0\n\n"
            f"[run]\nestimators = {self.estimator}\nmethods = {', '.join(self.methods)}\n"
            f"seeds = {seed}\njobs = {self.jobs}\nmaster_seed = 0\nout_dir = results\n"
        )

    def prepare(self, seed: int, out_dir: str) -> str:
        """Write and validate the config and generate the cell's data, as the
        command line does before its first cell."""
        from cate_al.cli import parse_config
        from cate_al.dgp import SplitSpec, make_benchmark

        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "matrix.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text(seed))
        config = parse_config(path)
        spec = SplitSpec(pool_size=config.pool_size, val_size=config.val_size,
                         test_size=config.test_size, seed=seed)
        make_benchmark(config.dataset, False, spec, seed=seed)
        return path

    def run_pass(self, prepared, env=None, pass_dir=None, trace_dir=None, **_) -> PassResult:
        config_path = prepared
        env = dict(env)
        if trace_dir is not None:
            env["BENCH_TRACE_DIR"] = trace_dir
        shim = os.path.join(BENCH_DIR, "cli_shim.py")
        cells = len(self.methods)
        code, wall, _ = run_child(
            [sys.executable, shim, "run", config_path, "--jobs", str(self.jobs), "--out", pass_dir],
            env, timeout=150,
        )
        errors = []
        statuses = {}
        manifest = os.path.join(pass_dir, "manifest.json")
        if os.path.exists(manifest):
            with open(manifest, encoding="utf-8") as fh:
                statuses = json.load(fh).get("cells", {})
        done = sorted(k for k, v in statuses.items() if v == "done")
        if code != 0:
            print(f"cate-al run exited {code}; {len(done)} of {cells} cells done", file=sys.stderr)

        rows = []
        results = os.path.join(pass_dir, "results.csv")
        if os.path.exists(results):
            with open(results, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        expected = expected_entries(self.budget)
        by_cell: dict[str, list[dict]] = {}
        for r in rows:
            by_cell.setdefault(r["method"], []).append(r)
        curves = []
        for method in sorted(by_cell):
            cell_rows = by_cell[method]
            if any(r["status"] != "ok" for r in cell_rows):
                continue
            cell_rows.sort(key=lambda r: int(r["step"]))
            pool = [float(r["sqrt_pehe_pool"]) for r in cell_rows]
            test = [float(r["sqrt_pehe_test"]) for r in cell_rows]
            errors += check_curve(method, [int(r["n_labeled"]) for r in cell_rows], pool + test, expected)
            curves.append(pool)
        if len(done) == cells and len(rows) != cells * expected:
            errors.append(f"results.csv has {len(rows)} rows, expected {cells * expected}")

        summarize_s = None
        if os.path.exists(results):
            scode, summarize_s, _ = run_child([sys.executable, shim, "summarize", results], env, timeout=60)
            errors += self._check_summary(scode, os.path.join(pass_dir, "summary.csv"), by_cell, expected)

        columns = ("estimator", "method", "seed", "step", "n_labeled", "sqrt_pehe_pool", "sqrt_pehe_test", "status")
        table = sorted([r[c] for c in columns] for r in rows)
        return PassResult(
            cells=cells, failed=cells - len(done), busy_s=wall, pehe_curves=curves,
            fingerprint=_digest(table), errors=errors, summarize_s=summarize_s,
        )

    def run_traced(self, prepared, env, work_dir):
        """One pass with the command line's layer boundaries traced, in its
        main process and in every pool worker."""
        sink = os.path.join(work_dir, "trace")
        os.makedirs(sink, exist_ok=True)
        result = self.run_pass(prepared, env=env, pass_dir=os.path.join(work_dir, "pass-traced"), trace_dir=sink)
        return result, read_spans(sink), []

    def _check_summary(self, code, path, by_cell, expected) -> list[str]:
        if code != 0 or not os.path.exists(path):
            return [f"cate-al summarize exited {code}"]
        with open(path, newline="", encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        errors = []
        for method in self.methods:
            if method == "random" or method not in by_cell:
                continue
            n = sum(1 for r in summary if r["method"] == method and r["metric"].startswith("rel_impr_"))
            if n != 4 * expected:
                errors.append(f"summary.csv has {n} rel_impr_* rows for {method}, expected {4 * expected}")
        return errors


WORKLOADS = {
    w.name: w
    for w in (
        InProcessWorkload(
            name="gp_search",
            cells=(("causalbald", "cmgp", "causal_epig_tau"), ("hahn_nonlinear", "nsgp", "causal_epig_tau")),
            pool_size=500, test_size=500, budget=250, refit_hyperparams=True,
        ),
        InProcessWorkload(
            name="gp_posterior",
            cells=(("hahn_nonlinear", "cmgp", "causal_epig_mu"), ("hahn_nonlinear", "nsgp", "causal_epig_mu")),
            pool_size=1000, test_size=1000, budget=450, refit_hyperparams=False,
        ),
        CliMatrixWorkload(
            name="ensemble_matrix", dataset="hahn_nonlinear", estimator="ensemble",
            methods=("random", "mu_bald", "causal_epig_tau", "sundin"),
            pool_size=2000, val_size=200, test_size=2000, budget=850, jobs=2,
        ),
    )
}

"""Root-PEHE metrics and cross-seed summaries.

Ground truth is read here and nowhere else in the pipeline: the acquisition
loop hands datasets to :func:`model_sqrt_pehe` and never inspects
counterfactual fields itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


@dataclass
class StepEntry:
    """One recorded round of an active-learning run."""

    step: int
    n_labeled: int
    sqrt_pehe_pool: float
    sqrt_pehe_test: float
    acq_seconds: float
    acquired: tuple[int, ...] = ()


@dataclass
class RunRecord:
    """Per-step trajectory of a single (method, estimator, dataset, seed) run."""

    method: str
    estimator: str
    dataset: str
    variant: str
    seed: int
    entries: list[StepEntry] = field(default_factory=list)
    failed: bool = False
    failure_reason: str = ""

    def validate(self) -> None:
        counts = [e.n_labeled for e in self.entries]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise InputError("n_labeled must be strictly increasing across entries")
        pehes = [v for e in self.entries for v in (e.sqrt_pehe_pool, e.sqrt_pehe_test)]
        # a NaN is neither < 0 nor >= 0, so the check asks what a PEHE must be
        if not all(math.isfinite(v) and v >= 0 for v in pehes):
            raise InputError("PEHE values must be finite and nonnegative")


def sqrt_pehe(tau_hat, tau_true) -> float:
    """Root mean squared error between estimated and true contrasts."""
    tau_hat = np.asarray(tau_hat, dtype=float).reshape(-1)
    tau_true = np.asarray(tau_true, dtype=float).reshape(-1)
    if tau_hat.size == 0:
        raise InputError("cannot evaluate an empty target set")
    if tau_hat.size != tau_true.size:
        raise InputError(f"length mismatch: {tau_hat.size} estimates vs {tau_true.size} truths")
    return float(np.sqrt(np.mean((tau_hat - tau_true) ** 2)))


def model_sqrt_pehe(model, dataset, held=None) -> float:
    """Root PEHE of a fitted model's contrast estimates over a dataset.

    ``held``, the dataset's kept contrast rows (a :class:`cate_al.gp.ContrastRows`
    of its covariates, in a GP cell whose prior stays fixed), gives the
    estimates from those rows; without it they come from ``model.tau_mean``.
    A GP's ``tau_mean`` reads rows of its own by the same formula, so both
    give the same bits.
    This is the only sanctioned reader of ground-truth effects during a run.
    """
    tau_hat = model.tau_mean(dataset.covariates) if held is None else held.tau_mean(model)
    return sqrt_pehe(tau_hat, dataset.tau_true)


def relative_improvement(method_curve, random_curve) -> np.ndarray:
    """(random - method) / random per step; NaN where random is exactly 0."""
    method_curve = np.asarray(method_curve, dtype=float).reshape(-1)
    random_curve = np.asarray(random_curve, dtype=float).reshape(-1)
    if method_curve.size != random_curve.size:
        raise InputError("curves must be aligned on the same step grid")
    out = np.full(method_curve.size, np.nan)
    ok = random_curve != 0.0
    out[ok] = (random_curve[ok] - method_curve[ok]) / random_curve[ok]
    return out


_PEHES = {"sqrt_pehe_pool": "pool", "sqrt_pehe_test": "test"}  # metric -> improvement label


def summarize_runs(records):
    """Every summary line of a set of runs, from one grouping of them by cell.

    Yields ``(dataset, variant, estimator, method, step, n_labeled, metric,
    mean, sd, count)``, with ``None`` where a field does not apply. Per cell
    and step: the mean and sd of both root PEHEs, the mean acquisition
    seconds, and the mean-curve and seed-paired relative improvements over
    the same estimator's random cell; then one ``failed_runs`` line per cell
    with failed runs, which every other line excludes. Each reduction runs
    over one contiguous array in seed order, so record order does not matter.
    Raises if the surviving runs of a cell disagree on their step grid.
    """
    groups: dict[tuple, list[RunRecord]] = {}
    failures: dict[tuple, int] = {}
    for rec in records:
        cell = (rec.dataset, rec.variant, rec.estimator, rec.method)
        if rec.failed:
            failures[cell] = failures.get(cell, 0) + 1
        else:
            rec.validate()
            groups.setdefault(cell, []).append(rec)

    # cell -> (seeds, step grid, metric -> steps x seeds values)
    table = {}
    for cell, recs in groups.items():
        recs.sort(key=lambda r: r.seed)
        grids = {tuple((e.step, e.n_labeled) for e in r.entries) for r in recs}
        if len(grids) != 1:
            raise InputError(f"inconsistent step grids for {'/'.join(cell)}")
        grid = grids.pop()
        values = {attr: np.array([[getattr(r.entries[k], attr) for r in recs] for k in range(len(grid))])
                  for attr in (*_PEHES, "acq_seconds")}
        table[cell] = ([r.seed for r in recs], grid, values)

    for cell in sorted(table):
        seeds, grid, values = table[cell]
        rand_seeds, rand_grid, rand_values = table.get(cell[:3] + ("random",), ((), (), {}))
        rand_row = {step: k for k, (step, _) in enumerate(rand_grid)}
        paired = {s: i for i, s in enumerate(rand_seeds)}
        mine = np.array([i for i, s in enumerate(seeds) if s in paired], dtype=np.intp)
        theirs = np.array([paired[s] for s in seeds if s in paired], dtype=np.intp)
        count = len(seeds)
        for k, (step, n_labeled) in enumerate(grid):
            head = (*cell, step, n_labeled)
            means = {attr: float(v[k].mean()) for attr, v in values.items()}
            for attr in _PEHES:
                sd = float(values[attr][k].std(ddof=1)) if count > 1 else 0.0
                yield (*head, attr, means[attr], sd, count)
            yield (*head, "acq_seconds", means["acq_seconds"], None, count)
            r = rand_row.get(step)
            for attr, label in _PEHES.items():
                value = None if r is None else relative_improvement(
                    [means[attr]], [rand_values[attr][r].mean()])[0]
                yield (*head, f"rel_impr_{label}_meancurve", value, None, count)
            for attr, label in _PEHES.items():
                impr = np.empty(0)
                if r is not None:
                    base = rand_values[attr][r, theirs]
                    impr = relative_improvement(values[attr][k, mine], base)[base != 0.0]
                mean = float(np.mean(impr)) if impr.size else None
                yield (*head, f"rel_impr_{label}_perseed", mean, None, impr.size)

    for cell, n_failed in sorted(failures.items()):
        yield (*cell, None, None, "failed_runs", n_failed, None, None)

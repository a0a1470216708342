"""Root-PEHE metrics and cross-seed aggregation.

Ground truth is read here and nowhere else in the pipeline: the acquisition
loop hands datasets to :func:`model_sqrt_pehe` and never inspects
counterfactual fields itself.
"""

from __future__ import annotations

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
        if any(e.sqrt_pehe_pool < 0 or e.sqrt_pehe_test < 0 for e in self.entries):
            raise InputError("PEHE values must be nonnegative")


def sqrt_pehe(tau_hat, tau_true) -> float:
    """Root mean squared error between estimated and true contrasts."""
    tau_hat = np.asarray(tau_hat, dtype=float).reshape(-1)
    tau_true = np.asarray(tau_true, dtype=float).reshape(-1)
    if tau_hat.size == 0:
        raise InputError("cannot evaluate an empty target set")
    if tau_hat.size != tau_true.size:
        raise InputError(f"length mismatch: {tau_hat.size} estimates vs {tau_true.size} truths")
    return float(np.sqrt(np.mean((tau_hat - tau_true) ** 2)))


def model_sqrt_pehe(model, dataset) -> float:
    """Root PEHE of a fitted model's contrast estimates over a dataset.

    This is the only sanctioned reader of ground-truth effects during a run.
    """
    tau_hat = model.tau_mean(dataset.covariates)
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


@dataclass
class SummaryRow:
    """Aggregate of one (method, estimator, dataset, variant, step) cell."""

    dataset: str
    variant: str
    estimator: str
    method: str
    step: int
    n_labeled: int
    mean_pool: float
    sd_pool: float
    mean_test: float
    sd_test: float
    mean_seconds: float
    count: int


def aggregate_runs(records) -> list[SummaryRow]:
    """Cross-seed mean and sd per step; failed runs are excluded and counted.

    Raises if surviving runs of the same cell disagree on their step grid.
    Returns rows sorted by (dataset, variant, estimator, method, step).
    """
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        if rec.failed:
            continue
        rec.validate()
        groups.setdefault((rec.dataset, rec.variant, rec.estimator, rec.method), []).append(rec)

    rows = []
    for (dataset, variant, estimator, method), recs in sorted(groups.items()):
        recs.sort(key=lambda r: r.seed)  # permutation-insensitive reductions
        grids = {tuple((e.step, e.n_labeled) for e in r.entries) for r in recs}
        if len(grids) != 1:
            raise InputError(
                f"inconsistent step grids for {dataset}/{variant}/{estimator}/{method}"
            )
        grid = grids.pop()
        for k, (step, n_labeled) in enumerate(grid):
            pool = np.array([r.entries[k].sqrt_pehe_pool for r in recs])
            test = np.array([r.entries[k].sqrt_pehe_test for r in recs])
            secs = np.array([r.entries[k].acq_seconds for r in recs])
            count = len(recs)
            rows.append(
                SummaryRow(
                    dataset=dataset, variant=variant, estimator=estimator, method=method,
                    step=step, n_labeled=n_labeled,
                    mean_pool=float(pool.mean()),
                    sd_pool=float(pool.std(ddof=1)) if count > 1 else 0.0,
                    mean_test=float(test.mean()),
                    sd_test=float(test.std(ddof=1)) if count > 1 else 0.0,
                    mean_seconds=float(secs.mean()),
                    count=count,
                )
            )
    return rows


def count_failures(records) -> dict[tuple, int]:
    """Failed-run tally per (dataset, variant, estimator, method)."""
    out: dict[tuple, int] = {}
    for rec in records:
        if rec.failed:
            key = (rec.dataset, rec.variant, rec.estimator, rec.method)
            out[key] = out.get(key, 0) + 1
    return out

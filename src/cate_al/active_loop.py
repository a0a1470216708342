"""Budgeted batch active-learning loop: warm-start, score, select, query, refit.

The loop sees pool data only through covariates, treatments, and a
:class:`LabelOracle` that reveals factual outcomes for acquired indices.
Ground-truth effects are consumed exclusively by the evaluation module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import evaluation
from .acquisition import AcquisitionMethod, ScoringContext, fit_propensity, score_pool
from .blas import one_blas_thread
from .ensemble import fit_ensemble
from .errors import InputError, NumericalError, as_arms
from .gp import ContrastRows, SearchConfig, fit_gp, optimize_hyperparams

ESTIMATOR_NAMES = ("cmgp", "nsgp", "ensemble")

TARGET_MODES = ("pool", "test")

# every GP search of the loop; the cmgp search keeps a short- and a long-range component
SEARCH_CONFIG = SearchConfig(n_components=2)


@dataclass(frozen=True)
class LoopConfig:
    """Settings of one active-learning run."""

    n_init: int = 50
    n_b: int = 20
    n_budget: int = 250
    temperature: float = 0.0
    refit_hyperparams: bool = True
    estimator: str = "cmgp"
    method: AcquisitionMethod = field(default_factory=lambda: AcquisitionMethod("random"))
    target_mode: str = "pool"
    seed: int = 0
    warm_start_seed: int | None = None

    def __post_init__(self):
        if self.n_init < 1 or self.n_b < 1:
            raise InputError("n_init and n_b must be >= 1")
        if self.n_budget < self.n_init:
            raise InputError("budget must be >= the warm-start size")
        if not self.temperature >= 0:  # NaN too
            raise InputError("temperature must be >= 0")
        if self.estimator not in ESTIMATOR_NAMES:
            raise InputError(f"unknown estimator {self.estimator!r}; expected one of {ESTIMATOR_NAMES}")
        if self.target_mode not in TARGET_MODES:
            raise InputError(f"target_mode must be one of {TARGET_MODES}")

    def check_pool_size(self, n_pool: int) -> None:
        """The warm start is drawn from the pool, so it cannot exceed it."""
        if self.n_init > n_pool:
            raise InputError(f"warm-start size {self.n_init} exceeds pool size {n_pool}")


class LabelOracle:
    """Reveals factual outcomes for queried pool indices, and nothing else."""

    def __init__(self, outcomes: np.ndarray):
        self._outcomes = np.asarray(outcomes, dtype=float).copy()
        self.revealed: dict[int, float] = {}

    def reveal(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=int)
        values = self._outcomes[indices]
        for i, v in zip(indices.tolist(), values.tolist()):
            self.revealed[i] = v
        return values


def select_batch(scores, n_b: int, temperature: float, rng) -> list[int]:
    """Pick n_b pool positions: deterministic top-n_b at temperature 0 (ties
    to the lowest index), otherwise sequential softmax sampling without
    replacement with renormalization after each draw."""
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if not np.all(np.isfinite(scores)):
        raise InputError("scores must be finite")
    if n_b > scores.size:
        raise InputError(f"batch size {n_b} exceeds {scores.size} candidates")
    rng = np.random.default_rng(rng)
    if temperature == 0.0:
        order = np.lexsort((np.arange(scores.size), -scores))
        return [int(i) for i in order[:n_b]]
    logits = (scores - scores.max()) / temperature
    weights = np.exp(logits)
    alive = np.ones(scores.size, dtype=bool)
    picked = []
    for _ in range(n_b):
        w = np.where(alive, weights, 0.0)
        total = w.sum()
        if total <= 0:
            w = alive.astype(float)
            total = w.sum()
        idx = int(rng.choice(scores.size, p=w / total))
        picked.append(idx)
        alive[idx] = False
    return picked


def _keeps_prior(config: LoopConfig) -> bool:
    """Whether each round extends the last round's state by the batch it
    acquired: a GP whose hyperparameters stay fixed keeps its prior, so its
    next posterior is this one conditioned on the batch. Such a cell keeps
    its pool bundle, extends its fit's factor and keeps each evaluation
    set's contrast rows."""
    return config.estimator != "ensemble" and not config.refit_hyperparams


def _fit_estimator(config: LoopConfig, x, t, y, fit_seed: int, last):
    """Refit the configured estimator. ``last`` is the last round's model
    (None at the warm start): a GP search starts from its ``params``, or a
    fixed-hyperparameter cell reuses them, and the fit extends ``last`` when
    it has the same ``params`` object."""
    if config.estimator == "ensemble":
        return fit_ensemble(x, t, y, rng=fit_seed)
    params = None if last is None else last.params
    if params is None or config.refit_hyperparams:
        params = optimize_hyperparams(x, t, y, config.estimator, SEARCH_CONFIG, warm_params=params)
    return fit_gp(x, t, y, params, last)


@one_blas_thread()
def run_active_learning(config: LoopConfig, pool_data, test_data, rng=None) -> evaluation.RunRecord:
    """Execute one budgeted run and record the per-round trajectory.

    A model-fit, evaluation (a non-finite root PEHE) or scoring failure
    aborts the run: the partial record comes back with the failure flag set
    rather than silently skipping rounds.
    The run holds the BLAS at one thread (see :mod:`cate_al.blas`).
    """
    rng = np.random.default_rng(config.seed if rng is None else rng)
    record = evaluation.RunRecord(
        method=config.method.name, estimator=config.estimator,
        dataset=getattr(pool_data, "name", ""), variant="", seed=config.seed,
    )

    pool_x = np.asarray(pool_data.covariates, dtype=float)
    pool_t = as_arms(pool_data.treatments)
    oracle = LabelOracle(pool_data.outcomes)
    n_pool = pool_t.size
    config.check_pool_size(n_pool)

    warm_rng = (
        np.random.default_rng(config.warm_start_seed)
        if config.warm_start_seed is not None
        else rng
    )
    # the loop's only state: the uniform warm start sorted, then each batch
    # in selection order
    labeled = sorted(warm_rng.choice(n_pool, size=config.n_init, replace=False).tolist())
    # ensemble fit seeds come from the warm-start stream so paired runs that
    # share a warm start also share the step-0 model exactly
    fit_rng = np.random.default_rng(
        config.warm_start_seed if config.warm_start_seed is not None else config.seed
    )

    # a GP cell with fixed hyperparameters keeps the pool-by-pool moment
    # bundle of a method that reads one (pool targets, no cap), and the next
    # round conditions it on the batch acquired, by the factor block its fit
    # appended for the batch, instead of building afresh; every other cell's
    # scorer builds its own. Such a cell's fits extend the last round's, and
    # it keeps the pool's and the test set's contrast rows for PEHE, each
    # round adding the rows of the batch; they go with the cell, after the
    # final round's PEHE
    keeps_prior = _keeps_prior(config)
    keeps_bundle = (keeps_prior and config.method.reads_target_bundle
                    and config.method.target_cap is None and config.target_mode == "pool")
    kept = None  # (bundle, batch, params, jitter_used) of the last round
    held_pool, held_test = (
        [ContrastRows(data.covariates, min(config.n_budget, n_pool)) for data in (pool_data, test_data)]
        if keeps_prior else (None, None)
    )

    propensity = model = None
    step, acq_seconds, chosen = 0, 0.0, list(labeled)
    while True:
        stage = f"round {step}" if step else "warm-start"
        try:
            model = _fit_estimator(
                config, pool_x[labeled], pool_t[labeled], oracle.reveal(labeled),
                int(fit_rng.integers(2**31)), model,
            )
        except (NumericalError, InputError) as exc:
            record.failed = True
            record.failure_reason = f"{stage} fit failed: {exc}"
            return record
        final = len(labeled) >= min(config.n_budget, n_pool)
        if kept is not None and (final or model.params is not kept[2] or model.jitter_used != kept[3]):
            # the posterior is not the kept one conditioned on the batch
            # (another prior or jitter), or no round follows: drop the
            # bundle before PEHE and before any fresh build
            kept = None
        try:
            pehe_pool = evaluation.model_sqrt_pehe(model, pool_data, held_pool)
            pehe_test = evaluation.model_sqrt_pehe(model, test_data, held_test)
            if not np.isfinite(pehe_pool + pehe_test):
                raise NumericalError(f"root PEHE is not finite (pool {pehe_pool}, test {pehe_test})")
        except (NumericalError, InputError) as exc:
            record.failed = True
            record.failure_reason = f"{stage} evaluation failed: {exc}"
            return record
        record.entries.append(
            evaluation.StepEntry(
                step=step, n_labeled=len(labeled), sqrt_pehe_pool=pehe_pool, sqrt_pehe_test=pehe_test,
                acq_seconds=acq_seconds, acquired=tuple(chosen),
            )
        )
        if final:
            break

        step += 1
        unlabeled = np.ones(n_pool, dtype=bool)
        unlabeled[labeled] = False
        pool = np.flatnonzero(unlabeled)
        n_take = min(config.n_b, config.n_budget - len(labeled), pool.size)
        cand_x, cand_t = pool_x[pool], pool_t[pool]
        targets = (
            np.asarray(test_data.covariates, dtype=float)
            if config.target_mode == "test"
            else cand_x
        )
        try:
            if config.method.needs_propensity and propensity is None:
                propensity = fit_propensity(pool_x, pool_t)
            t0 = time.perf_counter()
            bundle = None
            if keeps_bundle:
                if kept is None:
                    bundle = model.moment_bundle(cand_x, cand_t, cand_x)
                else:
                    bundle, batch = kept[:2]
                    kept = None
                    n = model.train_t.size - len(batch)  # the last model's training points
                    bundle = bundle.condition(batch, model.L[n:, n:])
            scores = score_pool(config.method, model, cand_x, cand_t, ScoringContext(
                targets=targets,
                labeled_x=pool_x[labeled],
                labeled_t=pool_t[labeled],
                rng=rng,
                propensity=propensity,
                bundle=bundle,
            ))
            positions = select_batch(scores, n_take, config.temperature, rng)
            acq_seconds = time.perf_counter() - t0
        except (NumericalError, InputError) as exc:
            record.failed = True
            record.failure_reason = f"round {step} scoring failed: {exc}"
            return record

        if bundle is not None:
            kept, bundle = (bundle, positions, model.params, model.jitter_used), None
        chosen = pool[positions].tolist()
        labeled.extend(chosen)

    record.validate()
    return record

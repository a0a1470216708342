"""Budgeted batch active-learning loop: warm-start, score, select, query, refit.

The loop sees pool data only through covariates, treatments, and a
:class:`LabelOracle` that reveals factual outcomes for acquired indices.
Ground-truth effects are consumed exclusively by the evaluation module.
"""

from __future__ import annotations

import contextlib
import ctypes
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

from . import evaluation
from .acquisition import AcquisitionMethod, ScoringContext, fit_propensity, score_pool
from .ensemble import fit_ensemble
from .errors import InputError, NumericalError
from .gp import SearchConfig, fit_gp, optimize_hyperparams

ESTIMATOR_NAMES = ("cmgp", "nsgp", "ensemble")

TARGET_MODES = ("pool", "test")

CMGP_COMPONENTS = 2  # the cmgp search keeps a short- and a long-range component

# the (prefix, suffix) forms of OpenBLAS's thread getter and setter names, by
# build; the first form a library exports is used
_OPENBLAS_SYMBOL_FORMS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", ""))


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
    search_evals: int = 50
    search_restarts: int = 3

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
        self.search_config()  # search settings every GP fit would reject fail here

    def search_config(self) -> SearchConfig:
        return SearchConfig(n_restarts=self.search_restarts, n_evals=self.search_evals, n_components=CMGP_COMPONENTS)


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


@dataclass
class ActiveState:
    """Labeled / pool bookkeeping across acquisition rounds."""

    labeled: list[int]
    labeled_y: list[float]
    pool: list[int]

    def validate(self) -> None:
        if set(self.labeled) & set(self.pool):
            raise InputError("labeled and pool index sets overlap")
        if len(self.labeled) != len(self.labeled_y):
            raise InputError("labeled outcomes out of sync with labeled indices")


def warm_start(pool_indices, n_init: int, oracle: LabelOracle, rng) -> ActiveState:
    """Move n_init uniform-without-replacement indices to the labeled set."""
    pool_indices = list(map(int, pool_indices))
    if n_init > len(pool_indices):
        raise InputError(f"warm-start size {n_init} exceeds pool size {len(pool_indices)}")
    chosen = np.random.default_rng(rng).choice(len(pool_indices), size=n_init, replace=False)
    chosen = sorted(int(pool_indices[i]) for i in chosen)
    taken = set(chosen)
    remaining = [i for i in pool_indices if i not in taken]
    ys = oracle.reveal(chosen)
    state = ActiveState(labeled=list(chosen), labeled_y=[float(v) for v in ys], pool=remaining)
    state.validate()
    return state


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


def _fit_estimator(config: LoopConfig, x, t, y, params, fit_seed: int):
    """Refit the configured estimator; returns (model, params carried forward)."""
    if config.estimator == "ensemble":
        return fit_ensemble(x, t, y, rng=fit_seed), None
    if params is None or config.refit_hyperparams:
        params = optimize_hyperparams(x, t, y, config.estimator, config.search_config(), warm_params=params)
    return fit_gp(x, t, y, params), params


def _openblas_thread_controls() -> list[tuple[str, Callable[[], int], Callable[[int], None]]]:
    """(label, thread getter, thread setter) of the OpenBLAS that each of
    numpy's and scipy's LAPACK extensions links; empty for other BLAS builds
    (MKL, Accelerate)."""
    controls = []
    for module in (_umath_linalg, _flapack):
        lib = ctypes.CDLL(module.__file__)
        for prefix, suffix in _OPENBLAS_SYMBOL_FORMS:
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((f"{prefix}{suffix} via {module.__name__}", get, set_))
            break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then restore each count.

    numpy's and scipy's OpenBLAS keep separate thread pools; on matrices of a
    few thousand rows at most, each pool's spinning workers only slow the
    other's calls, and a thread count changes the last bits of a Cholesky or
    a matmul. A cell therefore computes the same rows on any core count, and
    parallelism comes from running cells side by side.
    """
    controls = _openblas_thread_controls()
    saved = [get() for _, get, _ in controls]
    try:
        for _, _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, _, set_), count in zip(controls, saved):
            set_(count)


@_one_blas_thread()
def run_active_learning(config: LoopConfig, pool_data, test_data, rng=None) -> evaluation.RunRecord:
    """Execute one budgeted run and record the per-round trajectory.

    A model-fit or scoring failure aborts the run: the partial record comes
    back with the failure flag set rather than silently skipping rounds.
    The run holds the BLAS at one thread (see ``_one_blas_thread``).
    """
    rng = np.random.default_rng(config.seed if rng is None else rng)
    record = evaluation.RunRecord(
        method=config.method.name, estimator=config.estimator,
        dataset=getattr(pool_data, "name", ""), variant="", seed=config.seed,
    )

    pool_x = np.asarray(pool_data.covariates, dtype=float)
    pool_t = np.asarray(pool_data.treatments, dtype=int)
    oracle = LabelOracle(pool_data.outcomes)
    n_pool = pool_t.size

    warm_rng = (
        np.random.default_rng(config.warm_start_seed)
        if config.warm_start_seed is not None
        else rng
    )
    state = warm_start(range(n_pool), config.n_init, oracle, warm_rng)
    # ensemble fit seeds come from the warm-start stream so paired runs that
    # share a warm start also share the step-0 model exactly
    fit_rng = np.random.default_rng(
        config.warm_start_seed if config.warm_start_seed is not None else config.seed
    )

    propensity = None
    params = None
    step, acq_seconds, chosen = 0, 0.0, list(state.labeled)
    while True:
        try:
            model, params = _fit_estimator(
                config, pool_x[state.labeled], pool_t[state.labeled], np.array(state.labeled_y),
                params, fit_seed=int(fit_rng.integers(2**31)),
            )
        except (NumericalError, InputError) as exc:
            stage = f"round {step}" if step else "warm-start"
            record.failed = True
            record.failure_reason = f"{stage} fit failed: {exc}"
            return record
        record.entries.append(
            evaluation.StepEntry(
                step=step, n_labeled=len(state.labeled),
                sqrt_pehe_pool=evaluation.model_sqrt_pehe(model, pool_data),
                sqrt_pehe_test=evaluation.model_sqrt_pehe(model, test_data),
                acq_seconds=acq_seconds, acquired=tuple(chosen),
            )
        )
        if len(state.labeled) >= config.n_budget or not state.pool:
            break

        step += 1
        n_take = min(config.n_b, config.n_budget - len(state.labeled), len(state.pool))
        targets = (
            np.asarray(test_data.covariates, dtype=float)
            if config.target_mode == "test"
            else pool_x[state.pool]
        )
        try:
            if config.method.needs_propensity and propensity is None:
                propensity = fit_propensity(pool_x, pool_t)
            ctx = ScoringContext(
                targets=targets,
                labeled_x=pool_x[state.labeled],
                labeled_t=pool_t[state.labeled],
                rng=rng,
                propensity=propensity,
            )
            t0 = time.perf_counter()
            scores = score_pool(config.method, model, pool_x[state.pool], pool_t[state.pool], ctx)
            positions = select_batch(scores, n_take, config.temperature, rng)
            acq_seconds = time.perf_counter() - t0
        except (NumericalError, InputError) as exc:
            record.failed = True
            record.failure_reason = f"round {step} scoring failed: {exc}"
            return record

        chosen = [state.pool[p] for p in positions]
        ys = oracle.reveal(chosen)
        state.labeled.extend(chosen)
        state.labeled_y.extend(float(v) for v in ys)
        keep = set(positions)
        state.pool = [ix for p, ix in enumerate(state.pool) if p not in keep]
        state.validate()

    record.validate()
    return record

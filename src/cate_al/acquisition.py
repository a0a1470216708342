"""Utility functions scoring pool candidates for outcome acquisition.

Every method maps a fitted :class:`~cate_al.beliefs.CateModel` and a pool of
(covariate, treatment) candidates to one utility score per candidate. The
information-theoretic methods reduce to closed-form Gaussian mutual
information between the candidate's noisy outcome and predictive quantities
at a target set: the per-target contrast, the per-target potential-outcome
pair, their global joint vectors, factual outcomes, or latent-function
variances for the parameter-style baselines.

Scoring is pure given an immutable model; the loop writes scores by pool
index so parallel evaluation order never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import ndtr

from .beliefs import CateModel, VARIANCE_FLOOR
from .errors import InputError, NumericalError

DET_FLOOR = 1e-300
PROPENSITY_RIDGE = 1e-3    # L2 penalty of the logistic propensity fit
PROPENSITY_MAX_ITER = 100  # its damped-Newton steps
PROPENSITY_TOL = 1e-8      # gradient norm that ends them


@dataclass(frozen=True)
class AcquisitionMethod:
    """Named acquisition method with its method-specific parameters."""

    name: str
    target_cap: int | None = None   # optional cap on |X_tar| used in scoring
    sundin_samples: int = 100       # posterior draws per candidate
    eig_grid_size: int = 100        # reference-grid size for causal_eig
    epig_sample_size: int = 100     # sampled (x*, t*) pairs for factual EPIG

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise InputError(f"unknown acquisition method {self.name!r}; expected one of {METHOD_NAMES}")
        if self.target_cap is not None and self.target_cap < 1:
            raise InputError("target_cap must be >= 1 when set")
        if self.sundin_samples < 2:
            raise InputError("sundin_samples must be >= 2")
        if self.eig_grid_size < 1:
            raise InputError("eig_grid_size must be >= 1")
        if self.epig_sample_size < 1:
            raise InputError("epig_sample_size must be >= 1")

    @property
    def needs_propensity(self) -> bool:
        return self.name == "mu_pi_bald"


# -- Gaussian mutual information ---------------------------------------------


def _mi_scalar_vec(var_a: np.ndarray, var_b: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """MI of jointly Gaussian scalar pairs, 1/2 log(va vb / (va vb - cov^2)),
    elementwise over broadcast arrays.

    A pair scores 0 when either variance sits at the certainty floor or the
    covariance is 0; raises :class:`NumericalError` when any |cov| exceeds
    the Cauchy-Schwarz bound beyond rounding slack.
    """
    va, vb, c = np.broadcast_arrays(var_a, var_b, cov)
    bound = np.sqrt(np.maximum(va * vb, 0.0)) * (1.0 + 1e-6)
    if np.any(np.abs(c) > bound):
        worst = float(np.max(np.abs(c) - bound))
        raise NumericalError(f"covariance exceeds the variance bound by up to {worst}")
    prod = np.maximum(va * vb, DET_FLOOR)
    det = np.maximum(prod - c * c, DET_FLOOR)
    out = 0.5 * np.log(prod / det)
    out = np.where((va <= VARIANCE_FLOOR) | (vb <= VARIANCE_FLOOR) | (c == 0.0), 0.0, out)
    return np.maximum(out, 0.0)


# -- propensity ----------------------------------------------------------------


@dataclass
class PropensityModel:
    """Ridge-regularized logistic regression over [1, x]."""

    weights: np.ndarray


def fit_propensity(x, t) -> PropensityModel:
    """Damped-Newton logistic fit of treatment on covariates."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float).reshape(-1)
    if x.shape[0] != t.size:
        raise InputError("covariates and treatments disagree in length")
    if np.any((t != 0.0) & (t != 1.0)):
        raise InputError("treatments must be 0 or 1")
    z = np.hstack([np.ones((x.shape[0], 1)), x])
    w = np.zeros(z.shape[1])

    def nll(wv):
        logits = z @ wv
        return float(np.sum(np.logaddexp(0.0, logits) - t * logits) + 0.5 * PROPENSITY_RIDGE * wv @ wv)

    cur = nll(w)
    for _ in range(PROPENSITY_MAX_ITER):
        p = 1.0 / (1.0 + np.exp(-(z @ w)))
        grad = z.T @ (p - t) + PROPENSITY_RIDGE * w
        if np.linalg.norm(grad) < PROPENSITY_TOL:
            return PropensityModel(weights=w)
        h = z.T @ (z * (p * (1.0 - p))[:, None]) + PROPENSITY_RIDGE * np.eye(z.shape[1])
        try:
            step = np.linalg.solve(h, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("propensity Hessian is singular") from exc
        damp = 1.0
        for _ in range(30):
            trial = w - damp * step
            val = nll(trial)
            if val <= cur:
                w, cur = trial, val
                break
            damp *= 0.5
        else:
            break
    p = 1.0 / (1.0 + np.exp(-(z @ w)))
    grad = z.T @ (p - t) + PROPENSITY_RIDGE * w
    if np.linalg.norm(grad) >= max(PROPENSITY_TOL, 1e-5 * (1.0 + abs(cur))):
        raise NumericalError(f"propensity fit did not converge: |grad| = {np.linalg.norm(grad):.3g}")
    return PropensityModel(weights=w)


def predict_pi(model: PropensityModel, x) -> np.ndarray:
    """Predicted treatment probability, clamped to [0.01, 0.99]."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.hstack([np.ones((x.shape[0], 1)), x])
    p = 1.0 / (1.0 + np.exp(-(z @ model.weights)))
    return np.clip(p, 0.01, 0.99)


# -- pool scoring ---------------------------------------------------------------
#
# Every scorer maps (method, model, pool_x, pool_t, ctx) to one score per pool
# candidate, by pool index. A single candidate is scored as a pool of one.


@dataclass
class ScoringContext:
    """Round-level inputs shared by every candidate score."""

    targets: np.ndarray
    labeled_x: np.ndarray
    labeled_t: np.ndarray
    rng: np.random.Generator
    propensity: PropensityModel | None = None

    def capped_targets(self, cap: int | None) -> np.ndarray:
        if cap is None or self.targets.shape[0] <= cap:
            return self.targets
        idx = self.rng.choice(self.targets.shape[0], size=cap, replace=False)
        return self.targets[np.sort(idx)]


def _target_bundle(method: AcquisitionMethod, model: CateModel, pool_x, pool_t, ctx: ScoringContext):
    targets = ctx.capped_targets(method.target_cap)
    if targets.shape[0] == 0:
        raise InputError("target set must be non-empty")
    return targets, model.moment_bundle(pool_x, pool_t, targets)


def _score_random(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """I.i.d. Uniform(0, 1) utility scores."""
    return ctx.rng.uniform(size=pool_t.size)


def _score_epig_tau(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Mean over targets of MI between the candidate's outcome and the contrast."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    return np.mean(_mi_scalar_vec(b.y_var[:, None], b.tau_var[None, :], b.cy_tau), axis=1)


# candidate rows of the pairwise MI are evaluated a block of about this many
# entries at a time, in two buffers reused across blocks
_MI_BLOCK = 16384


def _mu_joint_mi_means(bundle) -> np.ndarray:
    """(n_c,) mean over targets of the closed-form MI between y and the
    per-target (f0, f1) pair. Each row's mean is the same pairwise sum in a
    block as in the whole matrix, so the blocks do not change a bit."""
    eps = 1e-12 * np.maximum(np.maximum(bundle.f0_var, bundle.f1_var), 1.0)
    v0 = bundle.f0_var + eps
    v1 = bundle.f1_var + eps
    c01 = bundle.f01_cov
    det2 = np.maximum(v0 * v1 - c01**2, DET_FLOOR)
    degenerate = (bundle.f0_var <= VARIANCE_FLOOR) & (bundle.f1_var <= VARIANCE_FLOOR)
    n_c, m = bundle.cy0.shape
    rows = max(1, _MI_BLOCK // m)
    q_buf = np.empty((min(rows, n_c), m))
    d_buf = np.empty_like(q_buf)
    means = np.empty(n_c)
    for start in range(0, n_c, rows):
        cy0, cy1 = bundle.cy0[start : start + rows], bundle.cy1[start : start + rows]
        vy = bundle.y_var[start : start + rows, None]
        q, d = q_buf[: vy.shape[0]], d_buf[: vy.shape[0]]
        # q = cy0^2 v1 - 2 cy0 cy1 c01 + cy1^2 v0
        np.square(cy0, out=q)
        np.multiply(q, v1, out=q)
        np.multiply(cy0, 2.0, out=d)
        np.multiply(d, cy1, out=d)
        np.multiply(d, c01, out=d)
        np.subtract(q, d, out=q)
        np.square(cy1, out=d)
        np.multiply(d, v0, out=d)
        np.add(q, d, out=q)
        # MI = -1/2 log(1 - q / (det2 Var[y])), the ratio clipped below 1
        np.multiply(det2, vy, out=d)
        np.maximum(d, DET_FLOOR, out=d)
        np.divide(q, d, out=q)
        np.clip(q, 0.0, 1.0 - 1e-15, out=q)
        np.negative(q, out=q)
        np.log1p(q, out=q)
        np.multiply(q, -0.5, out=q)
        q[:, degenerate] = 0.0
        q[vy[:, 0] <= VARIANCE_FLOOR] = 0.0
        np.maximum(q, 0.0, out=q)
        means[start : start + rows] = np.mean(q, axis=1)
    return means


def _score_epig_mu(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Mean over targets of MI between the candidate's outcome and both
    potential-outcome surfaces jointly."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    return _mu_joint_mi_means(b)


def _score_epig_mu_additive(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Additive variant: per-target MI with f0 plus MI with f1, averaged."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    mi0 = _mi_scalar_vec(b.y_var[:, None], b.f0_var[None, :], b.cy0)
    mi1 = _mi_scalar_vec(b.y_var[:, None], b.f1_var[None, :], b.cy1)
    return np.mean(mi0 + mi1, axis=1)


def _global_quad_mi(y_var: np.ndarray, q: np.ndarray, joint_cov: np.ndarray) -> np.ndarray:
    """MI(y; full target vector) per candidate from one factorization of the
    target-target covariance: -1/2 log(1 - q^T S^-1 q / Var[y])."""
    scale = max(float(np.mean(np.diag(joint_cov))), VARIANCE_FLOOR)
    if scale <= VARIANCE_FLOOR:
        return np.zeros(y_var.shape[0])
    L = None
    for jitter in (1e-12, 1e-10, 1e-8, 1e-6):
        try:
            L = cholesky(joint_cov + jitter * scale * np.eye(joint_cov.shape[0]), lower=True)
            break
        except np.linalg.LinAlgError:
            continue
    if L is None:
        raise NumericalError("target-target covariance failed to factorize at maximum jitter")
    w = solve_triangular(L, q.T, lower=True)
    quad = np.sum(w * w, axis=0)
    ratio = np.clip(quad / np.maximum(y_var, VARIANCE_FLOOR), 0.0, 1.0 - 1e-15)
    out = -0.5 * np.log1p(-ratio)
    return np.where(y_var <= VARIANCE_FLOOR, 0.0, np.maximum(out, 0.0))


def _per_candidate_global(y_var: np.ndarray, q: np.ndarray, joint_cov: np.ndarray) -> np.ndarray:
    # the global formulation conditions each candidate on the full joint
    # target vector: one factorization of the target-target covariance per
    # candidate, cubic in the target count
    return np.array([_global_quad_mi(y_var[i : i + 1], q[i : i + 1], joint_cov)[0] for i in range(y_var.size)])


def _score_epig_tau_global(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """MI between the candidate's outcome and the whole contrast vector."""
    targets, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    return _per_candidate_global(b.y_var, b.cy_tau, model.tau_joint_cov(targets))


def _score_epig_mu_global(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """MI between the candidate's outcome and the whole interleaved
    potential-outcome vector."""
    targets, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    q = np.empty((pool_t.size, 2 * targets.shape[0]))
    q[:, 0::2] = b.cy0
    q[:, 1::2] = b.cy1
    return _per_candidate_global(b.y_var, q, model.po_joint_cov(targets))


def _score_epig_factual(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Mean MI between the candidate's outcome and the factual outcomes of a
    uniform sample of pool candidates."""
    n = pool_t.size
    pick = ctx.rng.choice(n, size=min(method.epig_sample_size, n), replace=False)
    xs, ts = pool_x[pick], pool_t[pick]
    cross = model.latent_cov(pool_x, pool_t, xs, ts)
    y_var = model.latent_var(pool_x, pool_t) + model.noise_variance
    star_var = model.latent_var(xs, ts) + model.noise_variance
    return np.mean(_mi_scalar_vec(y_var[:, None], star_var[None, :], cross), axis=1)


def _score_mu_bald(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Latent-function information of the candidate's own arm:
    1/2 log(1 + Var[f_t(x)] / noise)."""
    return 0.5 * np.log1p(model.latent_var(pool_x, pool_t) / model.noise_variance)


def _score_tau_bald(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Contrast-information analogue; the contrast of two noisy observations
    carries twice the noise variance."""
    v_tau = model.tau_sd(pool_x) ** 2
    return 0.5 * np.log1p(v_tau / (2.0 * model.noise_variance))


def _score_mu_pi_bald(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """mu-BALD weighted by counterfactual scarcity: the propensity of the arm
    the candidate was not assigned to."""
    if ctx.propensity is None:
        raise InputError("mu_pi_bald requires a fitted propensity model in the context")
    pi = predict_pi(ctx.propensity, pool_x)
    return _score_mu_bald(method, model, pool_x, pool_t, ctx) * np.where(pool_t == 1, 1.0 - pi, pi)


def _score_mu_rho_bald(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """mu-BALD weighted by the contrast spread, normalized by the pool maximum."""
    base = _score_mu_bald(method, model, pool_x, pool_t, ctx)
    sd = model.tau_sd(pool_x)
    top = sd.max()
    return base * (sd / top if top > 0 else np.zeros_like(sd))


def bernoulli_entropy(p) -> np.ndarray:
    """Entropy of Bernoulli(p) in nats with the 0 log 0 := 0 convention."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0, p * np.log(p), 0.0) - np.where(q > 0, q * np.log(q), 0.0)
    return h


def sign_ambiguity_score(tau_draws: np.ndarray) -> np.ndarray:
    """Sign-ambiguity information from an (n, k) array of contrast draws, k
    at each of n covariates (a 1-D array is one covariate): one score per row.

    gamma_k = Phi(-|tau_k| / sd(tau)); score is the Jensen gap
    H(Bern(mean gamma)) - mean H(Bern(gamma_k)), zero when the draws agree.
    """
    draws = np.atleast_2d(np.asarray(tau_draws, dtype=float))
    if draws.shape[1] < 2:
        raise InputError("need at least 2 contrast draws")
    sd = draws.std(axis=1, keepdims=True)
    gamma = ndtr(-np.abs(draws) / np.where(sd > 0.0, sd, 1.0))
    gap = bernoulli_entropy(gamma.mean(axis=1)) - bernoulli_entropy(gamma).mean(axis=1)
    return np.where(sd[:, 0] > 0.0, np.maximum(gap, 0.0), 0.0)


def _score_sundin(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Sign-ambiguity utility from draws of each candidate's contrast posterior."""
    return sign_ambiguity_score(model.tau_draws(pool_x, method.sundin_samples, ctx.rng))


def _score_coreset(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Per-candidate minimum posterior-metric distance to the labeled set of
    the candidate's own arm; candidates in an unlabeled arm get the pool
    maximum plus one.

    The squared distance is Var[f_t(x)] + Var[f_t(x')] - 2 Cov[f_t(x), f_t(x')].
    """
    lx = ctx.labeled_x
    lx = np.atleast_2d(np.asarray(lx, dtype=float)) if np.size(lx) else np.zeros((0, pool_x.shape[1]))
    lt = np.asarray(ctx.labeled_t, dtype=int).reshape(-1)

    scores = np.full(pool_t.size, np.nan)
    for arm in (0, 1):
        cand = np.flatnonzero(pool_t == arm)
        if cand.size == 0:
            continue
        anchors = np.flatnonzero(lt == arm)
        if anchors.size == 0:
            continue
        arm_t = np.full(cand.size, arm)
        anchor_t = np.full(anchors.size, arm)
        var_c = model.latent_var(pool_x[cand], arm_t)
        var_a = model.latent_var(lx[anchors], anchor_t)
        cross = model.latent_cov(pool_x[cand], arm_t, lx[anchors], anchor_t)
        d2 = var_c[:, None] + var_a[None, :] - 2.0 * cross
        scores[cand] = np.sqrt(np.maximum(d2, 0.0)).min(axis=1)

    known = np.isfinite(scores)
    sentinel = (scores[known].max() if known.any() else 0.0) + 1.0
    return np.where(known, scores, sentinel)


def _score_causal_eig(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """MI between the candidate's outcome and the contrast on a reference grid
    (the first pool covariates; a nonparametric stand-in for effect
    parameters)."""
    grid = pool_x[: min(method.eig_grid_size, pool_t.size)]
    bundle = model.moment_bundle(pool_x, pool_t, grid)
    return _global_quad_mi(bundle.y_var, bundle.cy_tau, model.tau_joint_cov(grid))


_SCORERS = {
    "random": _score_random,
    "causal_epig_tau": _score_epig_tau,
    "causal_epig_mu": _score_epig_mu,
    "causal_epig_mu_additive": _score_epig_mu_additive,
    "causal_epig_tau_global": _score_epig_tau_global,
    "causal_epig_mu_global": _score_epig_mu_global,
    "epig_factual": _score_epig_factual,
    "mu_bald": _score_mu_bald,
    "tau_bald": _score_tau_bald,
    "mu_pi_bald": _score_mu_pi_bald,
    "mu_rho_bald": _score_mu_rho_bald,
    "sundin": _score_sundin,
    "coreset_qhte": _score_coreset,
    "causal_eig": _score_causal_eig,
}

METHOD_NAMES = tuple(_SCORERS)


def score_pool(method: AcquisitionMethod, model: CateModel, pool_x, pool_t, ctx: ScoringContext) -> np.ndarray:
    """Utility scores for every pool candidate, by pool index; the one entry
    point of every acquisition method."""
    pool_x = np.atleast_2d(np.asarray(pool_x, dtype=float))
    pool_t = np.asarray(pool_t, dtype=int).reshape(-1)
    return _SCORERS[method.name](method, model, pool_x, pool_t, ctx)

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

from dataclasses import dataclass, fields, replace
from itertools import accumulate

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import ndtr

from .beliefs import VARIANCE_FLOOR, CateModel, MomentBundle, correlation_rows
from .blas import one_blas_thread
from .errors import InputError, NumericalError, as_arms, as_labeled
from .kernels import rows_per_block

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
        for f in fields(self)[1:]:  # the parameters, after the name
            if f.name not in METHOD_KEYS[self.name] and getattr(self, f.name) != f.default:
                raise InputError(f"method {self.name!r} does not read {f.name!r}")

    @property
    def needs_propensity(self) -> bool:
        return self.name == "mu_pi_bald"

    @property
    def reads_target_bundle(self) -> bool:
        """Whether the method scores from the candidate-by-target moment
        bundle: the five ``causal_epig_*`` methods, the ones whose targets a
        ``target_cap`` can cap."""
        return "target_cap" in METHOD_KEYS[self.name]


# -- Gaussian mutual information ---------------------------------------------
#
# The mean-over-targets scorers reduce an (n_c, m) candidate-by-target MI
# matrix to its row means, a block of rows at a time: the kernels' blocks of
# about 16k entries (rows_per_block), in buffers reused across blocks. Each
# scorer reads the bundle's rows of that block only, so scoring holds
# O(block) memory beyond what the bundle itself holds, and each row's mean
# is the same pairwise sum over a C-contiguous row as a whole matrix's.
#
# Each scorer averages the MI with groups of target quantities, uncorrelated
# within a group, so a group's MI is -1/2 log(1 - the sum of its rho^2): the
# contrast, each surface for additive-mu, the factual outcome, and for joint
# mu f0 with u = f1 - beta f0, the part of f1 uncorrelated with f0. One
# kernel scores a block from correlation rows where the variances and logs
# show that no covariance can exceed its Cauchy-Schwarz bound; any other
# block takes the covariance formula, once per quantity by the chain rule,
# which checks the bound entry by entry and floors what it must.


def _mi_row_means(n_c: int, m: int, n_buffers: int, block) -> np.ndarray:
    """(n_c,) row means of an (n_c, m) MI matrix evaluated by row blocks.

    ``block(rows, bufs, sums)`` writes into ``sums`` the row sums of -2 MI,
    the log(1 - R^2) of each pair, of the candidate slice ``rows``, each
    summed by ``np.add.reduce`` over a C-contiguous row, with ``bufs`` as
    (r, m) work space. All the sums are divided by m once: ``np.mean``'s own
    sum and divide. The means are then scaled by -1/2 once, with a zero as
    +0.0; a power-of-two scale commutes with rounding, so that is the mean
    of the MI entries.
    """
    rows = rows_per_block(m)
    buffers = np.empty((n_buffers, min(rows, n_c), m))
    means = np.empty(n_c)
    for start in range(0, n_c, rows):
        block(slice(start, start + rows), buffers[:, : min(rows, n_c - start)], means[start : start + rows])
    np.divide(means, m, out=means)
    np.multiply(means, -0.5, out=means)
    return np.add(means, 0.0, out=means)


def _scalar_mi_means(va: np.ndarray, groups) -> np.ndarray:
    """(n_c,) means over the m targets of the summed MI between each
    candidate's outcome, of variance ``va`` (n_c,), and each group of target
    quantities, uncorrelated within a group, each quantity a
    (vb, cov_rows, corr_rows): its (m,) variances and the servers of its
    covariance and correlation rows, ``*_rows(rows, out)`` for the candidate
    slice ``rows``.

    A block settles when every product of a candidate's and a target's
    variance is positive, finite and at or above ``DET_FLOOR`` and every
    group's log is finite, which its row sums show: where a sum of rho^2
    rounds to at most 1, 1 minus it is 0 or at least 2^-53. Then no
    covariance exceeds its bound with the 1e-6 slack and no determinant
    takes the floor, and the block is a square per quantity, a sum per
    group, 1 minus it and a log, a pair at ``VARIANCE_FLOOR`` scored 0 once
    its rho^2 is seen below 1. Any other block (a variance that is not
    positive or is NaN, a product under the floor, a correlation at 1 or
    NaN) goes to :func:`_scalar_mi_exact` once per quantity, against the
    candidate's variance given the group's quantities before it: ``va``
    less their c^2 / vb, but for a vb at the floor. So a group of one is
    bitwise the covariance formula's, and a raise stays a raise. The first
    quantity with a covariance over its bound in any block raises
    :class:`NumericalError` with its worst excess over all blocks, as the
    formula over the whole matrices would.
    """
    quantities = [q for group in groups for q in group]
    spans = [slice(stop - len(group), stop) for group, stop in zip(groups, accumulate(map(len, groups)))]
    n_c, m, n_q = va.size, quantities[0][0].size, len(quantities)
    worst = [-np.inf] * n_q
    # the candidates whose products with every target variance fit: as
    # rounding is monotone, their products with the extremes show it. The
    # blocks are _mi_row_means' blocks of rows_per_block(m) rows
    fits = va > 0.0
    with np.errstate(over="ignore"):
        for vb, _, _ in quantities:
            # initial: the factual scorer of an empty pool samples no targets
            lo_b, hi_b = np.min(vb, initial=np.inf), np.max(vb, initial=-np.inf)
            fits &= (lo_b > 0.0) & (va * lo_b >= DET_FLOOR) & (va * hi_b < np.inf)
    step = rows_per_block(m)
    block_fits = np.logical_and.reduceat(fits, np.arange(0, n_c, step)).tolist()
    certain = va <= VARIANCE_FLOOR
    any_certain = certain.any()
    certain_targets = [np.flatnonzero(vb <= VARIANCE_FLOOR) for vb, _, _ in quantities]

    def settled(rows, outs, sums) -> bool:
        for out, (_, _, corr_rows), cols in zip(outs, quantities, certain_targets):
            np.square(corr_rows(rows, out), out=out)
            if cols.size:
                if not out[:, cols].max() < 1.0:  # False on a NaN
                    return False
                out[:, cols] = 0.0
        logs = []
        for span in spans:
            total = _summed(outs[span])  # the group's sum of rho^2
            logs.append(np.log(np.subtract(1.0, total, out=total), out=total))
        if not np.add.reduce(_summed(logs), axis=1, out=sums).min() > -np.inf:  # False on a NaN
            return False
        if any_certain:
            sums[certain[rows]] = 0.0
        return True

    def block(rows, bufs, sums):
        outs = bufs[:n_q]
        if block_fits[rows.start // step] and settled(rows, outs, sums):
            return
        work, prod, c, given = bufs[n_q:]
        for span in spans:
            va_given = va[rows, None]
            for i in range(span.start, span.stop):
                vb, cov_rows, _ = quantities[i]
                cov = cov_rows(rows, out=c)
                worst[i] = max(worst[i], _scalar_mi_exact(outs[i], work, prod, va_given, vb, cov))
                np.multiply(outs[i], -2.0, out=outs[i])
                if i + 1 < span.stop:
                    np.square(cov, out=work)
                    np.divide(work, vb, out=work)
                    work[:, vb <= VARIANCE_FLOOR] = 0.0
                    va_given = np.subtract(va_given, work, out=given)
        np.add.reduce(_summed(outs), axis=1, out=sums)

    with np.errstate(divide="ignore", invalid="ignore"):
        means = _mi_row_means(n_c, m, n_q + 4, block)
    for w in worst:
        if w > -np.inf:
            raise NumericalError(f"covariance exceeds the variance bound by up to {w}")
    return means


def _summed(outs) -> np.ndarray:
    """The sum of the (r, m) blocks ``outs``, added up in ``outs[0]``."""
    for out in outs[1:]:
        np.add(outs[0], out, out=outs[0])
    return outs[0]


def _scaled_rows(cov_rows, va: np.ndarray, vb: np.ndarray):
    """A server of correlation rows that scales the covariance rows
    ``cov_rows`` by the candidate variances ``va`` and target variances ``vb``."""
    return lambda rows, out: correlation_rows(cov_rows(rows, out=out), va[rows], vb, out)


def _scalar_mi_exact(out, work, prod, va: np.ndarray, vb: np.ndarray, c: np.ndarray) -> float:
    """Writes into ``out`` the MI of jointly Gaussian scalar pairs with
    variances ``va``, (r, 1) or (r, m), and ``vb`` (m,) and covariances
    ``c`` (r, m), 1/2 log(va vb / (va vb - c^2)); a pair scores 0 when
    either variance sits at the certainty floor. ``work`` and ``prod`` are
    (r, m) work space. Returns the worst excess of |c| over the bound
    sqrt(va vb) (1 + 1e-6) among the entries that exceed it, leaving
    ``out`` unset, when any does, else -inf; a NaN entry exceeds nothing.

    With prod = max(va vb, floor) and det = max(prod - c^2, floor), det never
    exceeds prod, so the log is never negative, and c = 0 gives det = prod,
    so it scores exactly 0.
    """
    np.multiply(va, vb, out=prod)
    np.maximum(prod, 0.0, out=work)
    np.sqrt(work, out=work)
    np.multiply(work, 1.0 + 1e-6, out=work)  # the bound, with rounding slack
    np.absolute(c, out=out)
    over = np.greater(out, work)
    if over.any():
        return float(np.subtract(out, work, out=out)[over].max())
    np.maximum(prod, DET_FLOOR, out=out)
    np.multiply(c, c, out=work)
    np.subtract(out, work, out=work)
    np.maximum(work, DET_FLOOR, out=work)
    np.divide(out, work, out=out)
    np.log(out, out=out)
    np.multiply(out, 0.5, out=out)
    out[:, vb <= VARIANCE_FLOOR] = 0.0
    np.copyto(out, 0.0, where=va <= VARIANCE_FLOOR)
    return -np.inf


# -- propensity ----------------------------------------------------------------


@dataclass
class PropensityModel:
    """Ridge-regularized logistic regression over [1, x]."""

    weights: np.ndarray


def fit_propensity(x, t) -> PropensityModel:
    """Damped-Newton logistic fit of treatment on covariates."""
    x, t = as_labeled(x, t)
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
    """Round-level inputs shared by every candidate score.

    ``bundle``, when given, is the model's moment bundle of the pool against
    the targets, which the methods that read one (``reads_target_bundle``)
    then take in place of building their own; its shape must be the pool
    size by the target count.
    """

    targets: np.ndarray
    labeled_x: np.ndarray
    labeled_t: np.ndarray
    rng: np.random.Generator
    propensity: PropensityModel | None = None
    bundle: MomentBundle | None = None

    def capped_targets(self, cap: int | None) -> np.ndarray:
        if cap is None or self.targets.shape[0] <= cap:
            return self.targets
        idx = self.rng.choice(self.targets.shape[0], size=cap, replace=False)
        return self.targets[np.sort(idx)]


def _target_bundle(method: AcquisitionMethod, model: CateModel, pool_x, pool_t, ctx: ScoringContext):
    targets = ctx.capped_targets(method.target_cap)
    if targets.shape[0] == 0:
        raise InputError("target set must be non-empty")
    if ctx.bundle is None:
        return targets, model.moment_bundle(pool_x, pool_t, targets)
    if ctx.bundle.shape != (pool_t.size, targets.shape[0]):
        raise InputError(f"the bundle's shape {ctx.bundle.shape} is not the {pool_t.size} candidates "
                         f"by the {targets.shape[0]} targets")
    return targets, ctx.bundle


def _score_random(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """I.i.d. Uniform(0, 1) utility scores."""
    return ctx.rng.uniform(size=pool_t.size)


def _score_epig_tau(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Mean over targets of MI between the candidate's outcome and the contrast."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    return _scalar_mi_means(b.y_var, [[(b.tau_var, b.cy_tau_rows, b.corr_tau_rows)]])


def _score_epig_mu(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Mean over targets of MI between the candidate's outcome and both
    potential-outcome surfaces jointly: the MI with f0 and with
    u = f1 - beta f0, beta = Cov[f0, f1] / Var f0 (0 for a certain f0), the
    part of f1 uncorrelated with f0, in one log."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    n_c, m = b.shape
    beta = np.divide(b.f01_cov, b.f0_var, out=np.zeros(m), where=b.f0_var > VARIANCE_FLOOR)
    u_var = b.f1_var - beta * b.f01_cov
    # a certain u, as f1 = a f0 leaves, scores 0: its rounding residue is never read
    certain_u = np.flatnonzero(u_var <= VARIANCE_FLOOR)
    cy1 = np.empty((min(rows_per_block(m), n_c), m))

    def cy_u_rows(rows, out):
        np.multiply(b.cy0_rows(rows, out=out), beta, out=out)
        np.subtract(b.cy1_rows(rows, out=cy1[: out.shape[0]]), out, out=out)
        out[:, certain_u] = 0.0
        return out

    return _scalar_mi_means(b.y_var, [[(vb, rows, _scaled_rows(rows, b.y_var, vb))
                                       for vb, rows in ((b.f0_var, b.cy0_rows), (u_var, cy_u_rows))]])


def _score_epig_mu_additive(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Additive variant: per-target MI with f0 plus MI with f1, averaged."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    return _scalar_mi_means(b.y_var, [[(vb, rows, _scaled_rows(rows, b.y_var, vb))]
                                      for vb, rows in ((b.f0_var, b.cy0_rows), (b.f1_var, b.cy1_rows))])


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

    def cross_rows(rows, out):
        return cross[rows]

    return _scalar_mi_means(y_var, [[(star_var, cross_rows, _scaled_rows(cross_rows, y_var, star_var))]])


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
    lx, lt = ctx.labeled_x, ctx.labeled_t
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

# the AcquisitionMethod parameters each method reads
METHOD_KEYS = {name: () for name in METHOD_NAMES} | {
    "causal_epig_tau": ("target_cap",),
    "causal_epig_mu": ("target_cap",),
    "causal_epig_mu_additive": ("target_cap",),
    "causal_epig_tau_global": ("target_cap",),
    "causal_epig_mu_global": ("target_cap",),
    "sundin": ("sundin_samples",),
    "causal_eig": ("eig_grid_size",),
    "epig_factual": ("epig_sample_size",),
}


@one_blas_thread()
def score_pool(method: AcquisitionMethod, model: CateModel, pool_x, pool_t, ctx: ScoringContext) -> np.ndarray:
    """Utility scores for every pool candidate, by pool index; the one entry
    point of every acquisition method. Scoring holds the BLAS at one thread,
    as a cell does (see :mod:`cate_al.blas`), so a direct call gives the
    same scores on any core count."""
    pool_x, pool_t = as_labeled(pool_x, pool_t)
    return _SCORERS[method.name](method, model, pool_x, pool_t, _checked_context(ctx, pool_x.shape[1]))


def _checked_context(ctx: ScoringContext, width: int) -> ScoringContext:
    """``ctx`` with its targets and labeled covariates checked to be finite
    2-d arrays of the pool's width, uncopied, and its labeled treatments
    through :func:`as_arms`, as many as the labeled covariates."""
    arrays = {}
    for name in ("targets", "labeled_x"):
        a = np.asarray(getattr(ctx, name))
        if a.ndim != 2 or a.shape[1] != width:
            raise InputError(f"{name} must be 2-d with the pool's {width} columns, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError(f"{name} must be finite")
        arrays[name] = a
    labeled_t = as_arms(ctx.labeled_t)
    if labeled_t.size != arrays["labeled_x"].shape[0]:
        raise InputError(f"{labeled_t.size} labeled treatments for {arrays['labeled_x'].shape[0]} labeled covariates")
    return replace(ctx, labeled_t=labeled_t, **arrays)

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

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import ndtr

from .beliefs import CateModel, MomentBundle, VARIANCE_FLOOR
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
# matrix to its row means. One kernel evaluates that matrix a block of rows
# at a time, the kernels' blocks of about 16k entries (rows_per_block), in
# buffers reused across blocks, and each scorer reads the bundle's
# covariance rows of that block only, so scoring holds O(block) memory
# beyond what the bundle itself holds. Every entry goes through the
# whole-matrix operations in the same order, and each row's mean is the same
# pairwise sum over a C-contiguous row, so the blocks do not change a bit.
#
# A scalar Gaussian MI is -1/2 log(1 - rho^2) in the pair's correlation rho.
# A bundle of member predictions hands the contrast scorer its deviations
# standardized once per round, so each block of that scorer is one product
# of the factors, a square, 1 - rho^2 and a log, with the Cauchy-Schwarz
# bound screened once on the factor norms. Its scores equal the covariance
# formula's up to rounding; the other scorers, and the contrast scorer on a
# bundle that holds its matrices, evaluate the covariance formula itself.


def _mi_row_means(n_c: int, m: int, n_buffers: int, block) -> np.ndarray:
    """(n_c,) row means of an (n_c, m) MI matrix evaluated by row blocks.

    ``block(rows, bufs)`` writes the MI of the candidate slice ``rows`` into
    ``bufs[0]``, with ``bufs[1:]`` as work space, all C-contiguous (r, m), and
    returns the block's worst excess of each covariance it reads over the
    Cauchy-Schwarz bound (-inf where none exceeds it). The first covariance
    with an excess in any block raises :class:`NumericalError` with its
    worst excess over all blocks.

    Each row is summed by ``np.add.reduce`` into its mean's slot, and all
    the sums are divided by m once: ``np.mean``'s own sum and divide.
    """
    rows = rows_per_block(m)
    buffers = np.empty((n_buffers, min(rows, n_c), m))
    means = np.empty(n_c)
    worst = None
    for start in range(0, n_c, rows):
        bufs = buffers[:, : min(rows, n_c - start)]
        excess = block(slice(start, start + rows), bufs)
        worst = excess if worst is None else [max(a, b) for a, b in zip(worst, excess)]
        np.add.reduce(bufs[0], axis=1, out=means[start : start + rows])
    for w in worst or ():
        if w > -np.inf:
            raise NumericalError(f"covariance exceeds the variance bound by up to {w}")
    return np.divide(means, m, out=means)


def _negated_half(means: np.ndarray) -> np.ndarray:
    """-1/2 ``means`` in place, with a zero as +0.0. A scorer whose entries
    are logs of ratios at most 1 sums the logs and scales the means once:
    a power-of-two scale commutes with rounding, so that is the mean of the
    scaled entries."""
    np.multiply(means, -0.5, out=means)
    return np.add(means, 0.0, out=means)


def _scalar_mi_block(out, work, prod, va: np.ndarray, vb: np.ndarray, c: np.ndarray) -> float:
    """Writes into ``out`` the MI of jointly Gaussian scalar pairs with
    variances ``va`` (r, 1) and ``vb`` (m,) and covariances ``c`` (r, m),
    1/2 log(va vb / (va vb - c^2)); a pair scores 0 when either variance
    sits at the certainty floor. ``work`` and ``prod`` are (r, m) work
    space. Returns the worst excess of |c| over the bound
    sqrt(va vb) (1 + 1e-6), leaving ``out`` unset, when any entry exceeds
    it, else -inf.

    A screen settles an ordinary block in the passes the formula needs. If
    every variance is >= 0 and fl(min va * min vb) >= DET_FLOOR, then, as
    rounding is monotone, every product va vb is its own floor. The
    determinant p - c^2 is then formed, and if none is negative no entry
    exceeds the bound: |c| > fl(fl(sqrt p) (1 + 1e-6)) implies fl(c^2) > p,
    so p - fl(c^2) < 0. The block finishes as :func:`_scalar_mi_exact`
    would, with the same operations in the same order, and with no square
    root, bound or |c|, nor the determinant's floor where the smallest
    determinant already clears it. Any other block (a variance that is
    negative or NaN, a product under the floor, a negative or NaN
    determinant) goes through :func:`_scalar_mi_exact`, so its bits, raise
    and worst excess are unchanged.
    """
    lo_a, lo_b = va.min(), vb.min()
    if lo_a >= 0.0 and lo_b >= 0.0 and lo_a * lo_b >= DET_FLOOR:
        np.multiply(va, vb, out=out)
        np.multiply(c, c, out=work)
        np.subtract(out, work, out=work)
        lo_det = work.min()
        if lo_det >= 0.0:
            if lo_det < DET_FLOOR:
                np.maximum(work, DET_FLOOR, out=work)
            np.divide(out, work, out=out)
            np.log(out, out=out)
            np.multiply(out, 0.5, out=out)
            if min(lo_a, lo_b) <= VARIANCE_FLOOR:
                out[:, vb <= VARIANCE_FLOOR] = 0.0
                out[va[:, 0] <= VARIANCE_FLOOR] = 0.0
            return -np.inf
    return _scalar_mi_exact(out, work, prod, va, vb, c)


def _scalar_mi_exact(out, work, prod, va: np.ndarray, vb: np.ndarray, c: np.ndarray) -> float:
    """:func:`_scalar_mi_block` for any block: the bound checked entry by
    entry, then the floored formula.

    With prod = max(va vb, floor) and det = max(prod - c^2, floor), det never
    exceeds prod, so the log is never negative, and c = 0 gives det = prod,
    so it scores exactly 0.
    """
    np.multiply(va, vb, out=prod)
    np.maximum(prod, 0.0, out=work)
    np.sqrt(work, out=work)
    np.multiply(work, 1.0 + 1e-6, out=work)  # the bound, with rounding slack
    np.absolute(c, out=out)
    if np.greater(out, work).any():
        return float(np.max(np.subtract(out, work, out=out)))
    np.maximum(prod, DET_FLOOR, out=out)
    np.multiply(c, c, out=work)
    np.subtract(out, work, out=work)
    np.maximum(work, DET_FLOOR, out=work)
    np.divide(out, work, out=out)
    np.log(out, out=out)
    np.multiply(out, 0.5, out=out)
    out[:, vb <= VARIANCE_FLOOR] = 0.0
    out[va[:, 0] <= VARIANCE_FLOOR] = 0.0
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
    dev = b.standardized_tau()
    if dev is not None:
        return _correlation_mi_means(b, dev)

    def block(rows, bufs):
        out, work, prod, c = bufs
        c = b.cy_tau_rows(rows, out=c)
        return (_scalar_mi_block(out, work, prod, b.y_var[rows, None], b.tau_var, c),)

    return _mi_row_means(*b.shape, 4, block)


def _correlation_mi_means(b: MomentBundle, dev) -> np.ndarray:
    """Row means of the scalar MI -1/2 log(1 - rho^2) between each candidate's
    outcome and each target's contrast, from the correlations rho that the
    standardized deviations ``dev`` of the bundle ``b`` give by row block.

    A screen settles an ordinary round on the factor norms. By
    Cauchy-Schwarz |rho_cj| <= |a_c| |b_j|, and the computed inner products
    and norms are within a rounding slack of theirs (Higham 2002, section
    3.1), so if max |a_c| max |b_j| (1 + slack) < 1, no computed |rho|
    reaches 1: no entry exceeds the bound, 1 - rho^2 needs no floor, and a
    block is one product, a square, 1 - rho^2 and a log. Any other round (a
    norm at or above 1, or a NaN) checks every entry against the covariance
    formula's bound |rho| <= 1 + 1e-6, reports the worst excess in
    covariance units, (|rho| - 1 - 1e-6) sqrt(Var y_c Var tau_j), and floors
    1 - rho^2 at DET_FLOOR as that formula floors its determinant. A column
    zeroed at the variance floor scores 0, and a NaN passes through.
    """
    slack = 4.0 * (dev.cand.shape[0] + 2) * np.finfo(float).eps
    top = (np.max(np.linalg.norm(dev.cand, axis=0), initial=0.0)
           * np.max(np.linalg.norm(dev.target, axis=0), initial=0.0))
    if top * (1.0 + slack) < 1.0:
        def block(rows, bufs):
            out = bufs[0]
            np.square(dev.rows(rows, out=out), out=out)
            np.subtract(1.0, out, out=out)
            np.log(out, out=out)
            return ()

        return _negated_half(_mi_row_means(*b.shape, 1, block))

    bound = 1.0 + 1e-6  # the covariance formula's, with its rounding slack

    def checked(rows, bufs):
        out, work = bufs
        rho = dev.rows(rows, out=out)
        np.absolute(rho, out=work)
        over = work > bound
        if over.any():
            excess = (work - bound) * np.sqrt(b.y_var[rows, None] * b.tau_var)
            return (float(excess[over].max()),)
        np.square(rho, out=out)
        np.subtract(1.0, out, out=out)
        np.maximum(out, DET_FLOOR, out=out)
        np.log(out, out=out)
        return (-np.inf,)

    return _negated_half(_mi_row_means(*b.shape, 2, checked))


def _score_epig_mu(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Mean over targets of MI between the candidate's outcome and both
    potential-outcome surfaces jointly."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)
    eps = 1e-12 * np.maximum(np.maximum(b.f0_var, b.f1_var), 1.0)
    v0 = b.f0_var + eps
    v1 = b.f1_var + eps
    c01 = b.f01_cov
    det2 = np.maximum(v0 * v1 - c01**2, DET_FLOOR)
    # 2 c01 and -det2 once per call: doubling and negating are exact, so
    # (cy0 cy1) (2 c01) = ((2 cy0) cy1) c01 and -det2 Var[y] = -(det2 Var[y])
    c01_twice, det2_neg = 2.0 * c01, -det2
    degenerate = (b.f0_var <= VARIANCE_FLOOR) & (b.f1_var <= VARIANCE_FLOOR)
    certain = b.y_var <= VARIANCE_FLOOR
    masked = degenerate.any() or certain.any()
    # as rounding is monotone, no product det2 Var[y] falls under the floor
    # when the product of the smallest ones does not
    lo_y = np.min(b.y_var, initial=np.inf)
    floored = not (lo_y >= 0.0 and det2.min() * lo_y >= DET_FLOOR)

    def block(rows, bufs):
        q, d, cy0, cy1 = bufs
        cy0, cy1, vy = b.cy0_rows(rows, out=cy0), b.cy1_rows(rows, out=cy1), b.y_var[rows, None]
        # q = cy0^2 v1 - 2 cy0 cy1 c01 + cy1^2 v0
        np.square(cy0, out=q)
        np.multiply(q, v1, out=q)
        np.multiply(cy0, cy1, out=d)
        np.multiply(d, c01_twice, out=d)
        np.subtract(q, d, out=q)
        np.square(cy1, out=d)
        np.multiply(d, v0, out=d)
        np.add(q, d, out=q)
        # log(1 - q / (det2 Var[y])), the ratio clipped below 1, with its
        # sign in the divisor; the means are scaled by -1/2 once
        np.multiply(det2_neg, vy, out=d)
        if floored:
            np.minimum(d, -DET_FLOOR, out=d)
        np.divide(q, d, out=q)
        np.clip(q, -(1.0 - 1e-15), 0.0, out=q)
        np.log1p(q, out=q)
        if masked:
            q[:, degenerate] = 0.0
            q[certain[rows]] = 0.0
        return ()

    return _negated_half(_mi_row_means(*b.shape, 4, block))


def _score_epig_mu_additive(method, model, pool_x, pool_t, ctx) -> np.ndarray:
    """Additive variant: per-target MI with f0 plus MI with f1, averaged."""
    _, b = _target_bundle(method, model, pool_x, pool_t, ctx)

    def block(rows, bufs):
        mi0, mi1, work, prod, c = bufs
        vy = b.y_var[rows, None]
        excess = (_scalar_mi_block(mi0, work, prod, vy, b.f0_var, b.cy0_rows(rows, out=c)),
                  _scalar_mi_block(mi1, work, prod, vy, b.f1_var, b.cy1_rows(rows, out=c)))
        np.add(mi0, mi1, out=mi0)
        return excess

    return _mi_row_means(*b.shape, 5, block)


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

    def block(rows, bufs):
        out, work, prod = bufs
        return (_scalar_mi_block(out, work, prod, y_var[rows, None], star_var, cross[rows]),)

    return _mi_row_means(*cross.shape, 3, block)


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

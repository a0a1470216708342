"""Independent oracles for the closed-form scorers and the model queries.

The acquisition scorers compute Gaussian mutual information in closed form
from a :class:`~cate_al.beliefs.MomentBundle`. The oracles here take the long
way round: a :class:`JointGaussianBelief` over a labeled set of quantities
(the candidate's noisy outcome first, then per-target potential-outcome means
and their contrast), assembled from a model's public queries, and MI between
label blocks from determinants or from Monte-Carlo draws. Sample-based
beliefs come from :func:`empirical_gaussian_fit` of posterior draws.
:func:`_mi_scalar_vec` is the whole-matrix scalar-MI formula that the
blocked mean-over-targets scorers must equal bit for bit.
:func:`three_gram_nsgp_gram` and :func:`lml_from_fit` are the long-way
builds that the per-arm Gram and the log marginal likelihood must equal bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky

from cate_al.acquisition import DET_FLOOR
from cate_al.beliefs import VARIANCE_FLOOR
from cate_al.ensemble import EnsembleLinearModel
from cate_al.errors import InputError, NumericalError, as_arms
from cate_al.gp import fit_gp
from cate_al.kernels import kernel_gram, overlap_gram


def quantity_labels(n_targets: int) -> tuple[str, ...]:
    """Canonical label ordering: y first, then f0/f1/tau blocks per target."""
    labels = ["y"]
    for j in range(n_targets):
        labels += [f"f0@{j}", f"f1@{j}", f"tau@{j}"]
    return tuple(labels)


@dataclass
class JointGaussianBelief:
    """Gaussian belief over a named set of predictive quantities."""

    labels: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        k = len(self.labels)
        if self.mean.shape != (k,) or cov.shape != (k, k):
            raise InputError(
                f"belief dimensions disagree: {k} labels, mean {self.mean.shape}, cov {cov.shape}"
            )
        if len(set(self.labels)) != k:
            raise InputError("belief labels must be unique")
        scale = max(1.0, float(np.abs(cov).max())) if cov.size else 1.0
        if np.abs(cov - cov.T).max(initial=0.0) > 1e-8 * scale:
            raise InputError("belief covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        diag = np.diag(cov).copy()
        if np.any(diag < -1e-8 * scale):
            raise InputError("belief covariance has a negative diagonal entry")
        np.fill_diagonal(cov, np.maximum(diag, 0.0))
        self.cov = cov

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown quantity label {label!r}") from None

    def indices(self, labels) -> np.ndarray:
        return np.array([self.index(l) for l in labels], dtype=int)


@dataclass
class SamplePosterior:
    """Matrix of posterior draws (rows) over labeled quantities (columns)."""

    draws: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        self.labels = tuple(self.labels)
        draws = np.atleast_2d(np.asarray(self.draws, dtype=float))
        if draws.shape[0] < 2:
            raise InputError(f"need at least 2 posterior draws, got {draws.shape[0]}")
        if draws.shape[1] != len(self.labels):
            raise InputError(
                f"draws have {draws.shape[1]} columns but {len(self.labels)} labels were given"
            )
        if not np.all(np.isfinite(draws)):
            raise InputError("posterior draws contain non-finite entries")
        self.draws = draws


def empirical_gaussian_fit(samples: SamplePosterior) -> JointGaussianBelief:
    """Fit a multivariate Gaussian to posterior draws.

    Mean is the column mean; covariance is the unbiased sample covariance
    (divisor ``n - 1``), symmetric by construction.
    """
    draws = samples.draws
    mean = draws.mean(axis=0)
    centered = draws - mean
    cov = centered.T @ centered / (draws.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    return JointGaussianBelief(labels=samples.labels, mean=mean, cov=cov)


# -- GP building blocks --------------------------------------------------------


def three_gram_nsgp_gram(xa, ta, xb, tb, kcfg0, kcfg1, rho) -> np.ndarray:
    """The per-arm kernel's Gram the long way: k0, k1 and the rho-scaled
    overlap over every pair, then each entry taken from the one its two
    arms select."""
    ta, tb = as_arms(ta), as_arms(tb)
    k0 = kernel_gram(xa, xb, kcfg0)
    k1 = kernel_gram(xa, xb, kcfg1)
    cross = rho * overlap_gram(xa, xb, kcfg0, kcfg1)
    m0a = (ta == 0)[:, None]
    m0b = (tb == 0)[None, :]
    return np.where(m0a & m0b, k0, np.where(~m0a & ~m0b, k1, cross))


def lml_from_fit(x, t, y, params) -> float:
    """log p(y | X, theta) from ``fit_gp``'s model: its centred outcomes,
    its factor and its weights."""
    model = fit_gp(x, t, y, params)
    yc = model.train_y - model.y_mean
    return float(
        -0.5 * yc @ model.alpha - np.sum(np.log(np.diag(model.L))) - 0.5 * yc.size * np.log(2.0 * np.pi)
    )


# -- model queries -------------------------------------------------------------


def latent_mean(model, xq, tq) -> np.ndarray:
    """Posterior mean of f_t(x) of a fitted GP at the (x, t) points."""
    k = model.params.gram(model.train_x, model.train_t, xq, tq)
    return model.y_mean + k.T @ model.alpha


def outcome_mean(model, xq, tq) -> np.ndarray:
    """Posterior mean of f_t(x) at the (x, t) points: :func:`latent_mean`
    for a GP, the mean of the members' predictions for the ensemble."""
    if isinstance(model, EnsembleLinearModel):
        return model.member_f(xq, tq).mean(axis=0)
    return latent_mean(model, xq, tq)


def predictive_belief(model, candidate, target_x: np.ndarray) -> JointGaussianBelief:
    """Joint belief over (y at candidate, f0/f1/tau at each target).

    Assembled from the model's moment bundle and potential-outcome
    covariance; the means are the model's outcome means
    (:func:`outcome_mean`) at the candidate and with every target put in
    arm 0, then in arm 1.
    """
    cx, ct = candidate
    cx = np.atleast_1d(np.asarray(cx, dtype=float))[None, :]
    ct = np.array([int(ct)])
    target_x = np.atleast_2d(np.asarray(target_x, dtype=float))
    m = target_x.shape[0]

    bundle = model.moment_bundle(cx, ct, target_x)
    po = model.po_joint_cov(target_x)

    k = 1 + 3 * m
    cov = np.zeros((k, k))
    mean = np.zeros(k)
    mean[0] = outcome_mean(model, cx, ct)[0]
    cov[0, 0] = bundle.y_var[0]

    f0 = 1 + 3 * np.arange(m)
    f1 = f0 + 1
    tau = f0 + 2
    mu0 = outcome_mean(model, target_x, np.zeros(m, dtype=int))
    mu1 = outcome_mean(model, target_x, np.ones(m, dtype=int))
    mean[f0] = mu0
    mean[f1] = mu1
    mean[tau] = mu1 - mu0

    cov[0, f0] = cov[f0, 0] = bundle.cy0[0]
    cov[0, f1] = cov[f1, 0] = bundle.cy1[0]
    cov[0, tau] = cov[tau, 0] = bundle.cy1[0] - bundle.cy0[0]

    po_idx = np.empty(2 * m, dtype=int)
    po_idx[0::2] = f0
    po_idx[1::2] = f1
    cov[np.ix_(po_idx, po_idx)] = po

    # contrast rows are linear images of the per-target (f0, f1) pairs
    c0 = po[np.ix_(np.arange(0, 2 * m, 2), np.arange(0, 2 * m, 2))]
    c1 = po[np.ix_(np.arange(1, 2 * m, 2), np.arange(1, 2 * m, 2))]
    c01 = po[np.ix_(np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2))]
    cov[np.ix_(tau, tau)] = c1 + c0 - c01 - c01.T
    cov_tau_f0 = c01.T - c0
    cov_tau_f1 = c1 - c01
    cov[np.ix_(tau, f0)] = cov_tau_f0
    cov[np.ix_(f0, tau)] = cov_tau_f0.T
    cov[np.ix_(tau, f1)] = cov_tau_f1
    cov[np.ix_(f1, tau)] = cov_tau_f1.T

    return JointGaussianBelief(labels=quantity_labels(m), mean=mean, cov=cov)


# -- Gaussian mutual information -----------------------------------------------


def gaussian_mi_scalar(var_a: float, var_b: float, cov_ab: float) -> float:
    """MI of two jointly Gaussian scalars: 1/2 log(va vb / (va vb - cov^2)).

    Returns 0 when either variance sits at the certainty floor or the
    covariance is 0; raises :class:`NumericalError` when |cov| exceeds the
    Cauchy-Schwarz bound beyond rounding slack.
    """
    va, vb, c = float(var_a), float(var_b), float(cov_ab)
    if va < 0 or vb < 0:
        raise InputError("variances must be nonnegative")
    if abs(c) > np.sqrt(max(va * vb, 0.0)) * (1.0 + 1e-6):
        raise NumericalError(f"covariance {c} exceeds the variance bound sqrt({va} * {vb})")
    if va <= VARIANCE_FLOOR or vb <= VARIANCE_FLOOR or c == 0.0:
        return 0.0
    prod = max(va * vb, DET_FLOOR)
    det = max(prod - c * c, DET_FLOOR)
    return max(0.5 * float(np.log(prod / det)), 0.0)


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


def gaussian_mi_block(belief: JointGaussianBelief, block_a, block_b) -> float:
    """MI between two disjoint label blocks: 1/2 log(|Saa| |Sbb| / |S|).

    All three determinants come from one jitter-shifted copy of the joint
    block, so rank deficiencies (for example duplicated quantities) perturb
    the joint and its marginals identically and cancel in the ratio. Blocks
    whose variances all sit at the certainty floor carry no information and
    score 0.
    """
    block_a = list(block_a)
    block_b = list(block_b)
    if not block_a or not block_b:
        raise InputError("both blocks must be non-empty")
    if set(block_a) & set(block_b):
        raise InputError(f"blocks overlap: {sorted(set(block_a) & set(block_b))}")
    ia = belief.indices(block_a)
    ib = belief.indices(block_b)
    diag = np.diag(belief.cov)
    if np.all(diag[ia] <= VARIANCE_FLOOR) or np.all(diag[ib] <= VARIANCE_FLOOR):
        return 0.0
    # canonical (belief-order) union keeps MI(a;b) == MI(b;a) bitwise
    union = np.array(sorted(set(ia) | set(ib)), dtype=int)
    joint = belief.cov[np.ix_(union, union)]
    pos = {g: i for i, g in enumerate(union)}
    pa = np.array([pos[i] for i in ia])
    pb = np.array([pos[i] for i in ib])

    # exact factorization when clearly positive definite; otherwise a firm
    # relative jitter large enough that the spurious determinant
    # contributions of degenerate directions cancel above rounding noise
    scale = max(float(np.mean(np.diag(joint))), VARIANCE_FLOOR)
    for jitter in (0.0, 1e-8, 1e-6):
        shifted = joint if jitter == 0.0 else joint + jitter * scale * np.eye(joint.shape[0])
        try:
            lj = cholesky(shifted, lower=True)
            la = cholesky(shifted[np.ix_(pa, pa)], lower=True)
            lb = cholesky(shifted[np.ix_(pb, pb)], lower=True)
        except np.linalg.LinAlgError:
            continue
        if jitter == 0.0 and np.diag(lj).min() ** 2 < 1e-10 * scale:
            continue  # near-singular; redo with explicit regularization
        ld = lambda f: 2.0 * float(np.sum(np.log(np.diag(f))))
        return max(0.5 * (ld(la) + ld(lb) - ld(lj)), 0.0)
    raise NumericalError(f"belief block of size {joint.shape[0]} is not factorizable even with jitter")


def mc_mi_oracle(belief: JointGaussianBelief, block_a, block_b, n_samples: int, rng) -> float:
    """Monte-Carlo MI estimate H(a) + H(b) - H(a, b) from sampled covariances.

    Draws from the belief, accumulates second moments in chunks, and
    evaluates the Gaussian entropies with sample log-determinants.
    """
    rng = np.random.default_rng(rng)
    block_a = list(block_a)
    block_b = list(block_b)
    if set(block_a) & set(block_b):
        raise InputError("blocks overlap")
    ia = belief.indices(block_a)
    ib = belief.indices(block_b)
    union = np.array(sorted(set(ia) | set(ib)), dtype=int)
    pos = {g: i for i, g in enumerate(union)}
    pa = np.array([pos[i] for i in ia])
    pb = np.array([pos[i] for i in ib])

    cov = belief.cov[np.ix_(union, union)]
    k = cov.shape[0]
    scale = max(float(np.mean(np.diag(cov))), VARIANCE_FLOOR)
    L = cholesky(cov + 1e-12 * scale * np.eye(k), lower=True)

    n = int(n_samples)
    total = np.zeros(k)
    outer = np.zeros((k, k))
    chunk = 1_000_000
    done = 0
    while done < n:
        take = min(chunk, n - done)
        z = rng.standard_normal((take, k)) @ L.T
        total += z.sum(axis=0)
        outer += z.T @ z
        done += take
    mean = total / n
    sample_cov = (outer - n * np.outer(mean, mean)) / (n - 1)

    def ld(idx):
        sign, val = np.linalg.slogdet(sample_cov[np.ix_(idx, idx)])
        if sign <= 0:
            raise NumericalError("sample covariance is not positive definite")
        return val

    return 0.5 * (ld(pa) + ld(pb) - ld(np.arange(k)))

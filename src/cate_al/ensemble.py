"""Bootstrap ensemble of linear outcome models with a separable effect head.

Each member is a ridge regression on a bootstrap resample of the design
``[1, x, t, t * x]``, so the fitted surface decomposes into a baseline head
``mu(x)`` and an effect head ``tau(x)`` with ``f(x, t) = mu(x) + t * tau(x)``.
The spread across members stands in for posterior draws: every predictive
moment is the sample mean or sample covariance (divisor members - 1) of the
members' predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import VARIANCE_FLOOR, CateModel, MomentBundle
from .errors import InputError, NumericalError, as_arms, as_labeled


def _design(x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _column_cov(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Sample covariance (divisor rows - 1) between the columns of a and b,
    rows being members; without b, ac.T @ ac keeps numpy's symmetric kernel."""
    ac = a - a.mean(axis=0)
    if b is None:
        return ac.T @ ac / (a.shape[0] - 1)
    return ac.T @ (b - b.mean(axis=0)) / (a.shape[0] - 1)


def _member_f(mu_weights, tau_weights, x, t) -> np.ndarray:
    """(n_members, n) outcome-surface predictions f_t(x) = mu(x) + t tau(x)."""
    t = as_arms(t)
    design = _design(x).T
    return mu_weights @ design + t * (tau_weights @ design)


def _member_products(left, right, rows, out):
    """``left[:, rows].T @ right`` for (members, n_c) ``left`` and
    (members, m) ``right``, possibly written into ``out``. With two or more
    columns in ``right`` these are bitwise the rows of the whole product, a
    one-row block included; with one, BLAS takes its matrix-vector path for
    both and only the whole set of rows is."""
    n_c = left.shape[1]
    start, stop, _ = rows.indices(n_c)
    if stop - start == 1 and n_c > 1:
        # BLAS evaluates a one-row product as a matrix-vector product,
        # which rounds differently from the rows of the whole matrix's
        # product: take the row from a product with a neighbour
        low = min(start, n_c - 2)
        return _member_products(left, right, slice(low, low + 2), None)[start - low : start - low + 1]
    return np.matmul(left[:, rows].T, right, out=out)


def _standardized(dev: np.ndarray, var: np.ndarray) -> np.ndarray:
    """The centred member predictions ``dev`` (members, n) scaled by
    1/sqrt((members - 1) var) per column, so that two scaled columns' inner
    product is their correlation: zero where ``var`` is at or below
    ``VARIANCE_FLOOR``, NaN where it is NaN."""
    at_floor = var <= VARIANCE_FLOOR
    scale = 1.0 / np.sqrt((dev.shape[0] - 1) * np.where(at_floor, 1.0, var))
    scale[at_floor] = 0.0
    return dev * scale


@dataclass(frozen=True)
class StandardizedDeviations:
    """Candidate and contrast deviations standardized so that each inner
    product of a candidate column with a target column is the correlation
    Corr[y_c, tau(x*_j)]: ``cand`` is the centred candidate outcome surfaces
    over sqrt((members - 1) Var[y_c]), ``target`` the centred contrast over
    sqrt((members - 1) Var[tau_j]), and a column is zero where its variance
    is at or below ``VARIANCE_FLOOR``. By Cauchy-Schwarz each correlation
    is at most the product of the two columns' norms; in the ensemble's own
    bundle a target's norm is 1 and a candidate's is
    sqrt(Var f / (Var f + noise)) < 1."""

    cand: np.ndarray    # (members, n_c)
    target: np.ndarray  # (members, m)

    def rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The correlations of the candidates ``rows``: bitwise the rows of
        ``cand.T @ target``, possibly written into ``out``."""
        return _member_products(self.cand, self.target, rows, out)


@dataclass
class MemberMomentBundle(MomentBundle):
    """Moment bundle that computes its covariance rows from the centred
    member predictions, one (r, members) x (members, m) product per block:
    no candidate-by-target matrix exists until a whole one is read. With two
    or more targets, a block's f0 and f1 rows are bitwise the rows of
    ``_column_cov``'s whole matrices; with one, only the whole set of rows,
    the scorers' one block there, is. The contrast's rows come from the
    effect deviations directly, not as a difference of the two, and the
    contrast scorer reads those deviations standardized
    (``standardized_tau``), so that a block's products are correlations."""

    cand_dev: np.ndarray  # (members, n_c) centred candidate outcome surfaces
    f0_dev: np.ndarray    # (members, m) centred f0 at the targets
    f1_dev: np.ndarray    # (members, m) centred f1 at the targets
    tau_dev: np.ndarray   # (members, m) centred contrast at the targets

    def _rows(self, target_dev, rows, out):
        out = _member_products(self.cand_dev, target_dev, rows, out)
        return np.divide(out, self.cand_dev.shape[0] - 1, out=out)

    def cy0_rows(self, rows, out=None):
        return self._rows(self.f0_dev, rows, out)

    def cy1_rows(self, rows, out=None):
        return self._rows(self.f1_dev, rows, out)

    def cy_tau_rows(self, rows, out=None):
        return self._rows(self.tau_dev, rows, out)

    def standardized_tau(self) -> StandardizedDeviations:
        return StandardizedDeviations(_standardized(self.cand_dev, self.y_var),
                                      _standardized(self.tau_dev, self.tau_var))

    @property
    def cy0(self) -> np.ndarray:
        return self.cy0_rows(slice(None))

    @property
    def cy1(self) -> np.ndarray:
        return self.cy1_rows(slice(None))


class EnsembleLinearModel(CateModel):
    """Fitted bootstrap ensemble; immutable, predictions are pure."""

    def __init__(self, mu_weights, tau_weights, noise_var):
        # weights: (n_members, d + 1) with the intercept first, kept as
        # read-only copies
        self.mu_weights = np.array(mu_weights, dtype=float)
        self.tau_weights = np.array(tau_weights, dtype=float)
        for w in (self.mu_weights, self.tau_weights):
            w.flags.writeable = False
        self._noise_var = float(noise_var)

    @property
    def n_members(self) -> int:
        return self.mu_weights.shape[0]

    @property
    def noise_variance(self) -> float:
        return self._noise_var

    # -- member predictions ----------------------------------------------

    def member_mu(self, x) -> np.ndarray:
        """(n_members, n) baseline-head predictions."""
        return self.mu_weights @ _design(x).T

    def member_tau(self, x) -> np.ndarray:
        """(n_members, n) effect-head predictions."""
        return self.tau_weights @ _design(x).T

    def member_f(self, x, t) -> np.ndarray:
        return _member_f(self.mu_weights, self.tau_weights, x, t)

    # -- CateModel surface -------------------------------------------------

    def tau_mean(self, x) -> np.ndarray:
        return self.member_tau(x).mean(axis=0)

    def tau_sd(self, x) -> np.ndarray:
        return self.member_tau(x).std(axis=0, ddof=1)

    def tau_draws(self, x, k, rng: np.random.Generator) -> np.ndarray:
        pick = rng.integers(0, self.n_members, size=(np.atleast_2d(x).shape[0], int(k)))
        return np.take_along_axis(self.member_tau(x).T, pick, axis=1)

    def moment_bundle(self, cand_x, cand_t, target_x) -> MemberMomentBundle:
        fc = self.member_f(cand_x, cand_t)            # (n_members, n_c)
        mu = self.member_mu(target_x)                 # (n_members, m)
        tau = self.member_tau(target_x)
        f0, f1 = mu, mu + tau
        f0c = f0 - f0.mean(axis=0)
        f1c = f1 - f1.mean(axis=0)
        return MemberMomentBundle(
            y_var=fc.var(axis=0, ddof=1) + self._noise_var,
            f0_var=f0.var(axis=0, ddof=1),
            f1_var=f1.var(axis=0, ddof=1),
            f01_cov=np.sum(f0c * f1c, axis=0) / (self.n_members - 1),
            tau_var=tau.var(axis=0, ddof=1),
            cand_dev=fc - fc.mean(axis=0),
            f0_dev=f0c,
            f1_dev=f1c,
            tau_dev=tau - tau.mean(axis=0),
        )

    def tau_joint_cov(self, target_x) -> np.ndarray:
        cov = _column_cov(self.member_tau(target_x))
        return 0.5 * (cov + cov.T)

    def po_joint_cov(self, target_x) -> np.ndarray:
        mu = self.member_mu(target_x)
        tau = self.member_tau(target_x)
        m = mu.shape[1]
        stacked = np.empty((self.n_members, 2 * m))
        stacked[:, 0::2] = mu
        stacked[:, 1::2] = mu + tau
        cov = _column_cov(stacked)
        return 0.5 * (cov + cov.T)

    def latent_cov(self, xa, ta, xb, tb) -> np.ndarray:
        return _column_cov(self.member_f(xa, ta), self.member_f(xb, tb))

    def latent_var(self, x, t) -> np.ndarray:
        return self.member_f(x, t).var(axis=0, ddof=1)


def fit_ensemble(x, t, y, n_members: int = 32, ridge: float = 1e-4, rng=None) -> EnsembleLinearModel:
    """Fit the bootstrap ensemble; deterministic given the rng seed.

    Members whose bootstrap resample contains a single treatment arm have
    their effect head shrunk to zero (the contrast is unidentified there).
    """
    x, t, y = as_labeled(x, t, y)
    if int(n_members) < 2:
        raise InputError(f"need at least 2 ensemble members, got {n_members}")
    if ridge <= 0:
        raise InputError("ridge penalty must be > 0")
    if y.size < 2:
        raise InputError("need at least 2 labeled points")
    rng = np.random.default_rng(rng)

    n, d = x.shape
    base = np.hstack([np.ones((n, 1)), x])
    width = d + 1
    mu_w = np.empty((int(n_members), width))
    tau_w = np.empty((int(n_members), width))
    zb = np.empty((n, 2 * width))
    for j in range(int(n_members)):
        idx = rng.integers(0, n, size=n)
        tb = t[idx]
        np.take(base, idx, axis=0, out=zb[:, :width])
        np.multiply(tb[:, None], zb[:, :width], out=zb[:, width:])
        penalty = np.full(2 * width, ridge)
        if tb.min() == tb.max():
            penalty[width:] = 1e8  # single-arm resample: pin the effect head at 0
        lhs = zb.T @ zb + np.diag(penalty)
        try:
            w = np.linalg.solve(lhs, zb.T @ y[idx])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"ensemble member {j}: normal equations are singular") from exc
        mu_w[j] = w[:width]
        tau_w[j] = w[width:]

    resid = y - _member_f(mu_w, tau_w, x, t).mean(axis=0)
    return EnsembleLinearModel(mu_w, tau_w, noise_var=float(np.mean(resid**2)))

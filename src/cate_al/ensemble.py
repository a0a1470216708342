"""Bootstrap ensemble of linear outcome models with a separable effect head.

Each member is a ridge regression on a bootstrap resample of the design
``[1, x, t, t * x]``, so the fitted surface decomposes into a baseline head
``mu(x)`` and an effect head ``tau(x)`` with ``f(x, t) = mu(x) + t * tau(x)``.
The spread across members stands in for posterior draws: every predictive
moment is the sample mean or sample covariance (divisor members - 1) of the
members' predictions.
"""

from __future__ import annotations

import numpy as np

from .beliefs import CateModel, MomentBundle
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

    def moment_bundle(self, cand_x, cand_t, target_x) -> MomentBundle:
        fc = self.member_f(cand_x, cand_t)            # (m_members, n_c)
        mu = self.member_mu(target_x)                 # (m_members, m)
        tau = self.member_tau(target_x)
        f0, f1 = mu, mu + tau
        f0c = f0 - f0.mean(axis=0)
        f1c = f1 - f1.mean(axis=0)
        return MomentBundle(
            y_mean=fc.mean(axis=0),
            y_var=fc.var(axis=0, ddof=1) + self._noise_var,
            f0_var=f0.var(axis=0, ddof=1),
            f1_var=f1.var(axis=0, ddof=1),
            f01_cov=np.sum(f0c * f1c, axis=0) / (self.n_members - 1),
            tau_var=tau.var(axis=0, ddof=1),
            cy0=_column_cov(fc, f0),
            cy1=_column_cov(fc, f1),
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
    for j in range(int(n_members)):
        idx = rng.integers(0, n, size=n)
        zb = np.hstack([base[idx], t[idx, None] * base[idx]])
        penalty = np.full(2 * width, ridge)
        if len(np.unique(t[idx])) < 2:
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

"""Joint-Gaussian predictive interface shared by all CATE estimators.

Every estimator, exact or sample-based, answers predictive queries through the
same surface: a :class:`JointGaussianBelief` over a labeled set of quantities
(the candidate's noisy outcome first, then per-target potential-outcome means
and their contrast), plus vectorized moment bundles used by the acquisition
scorers. Sample-based models reach this surface through the sample moments
of their posterior draws, the moments :func:`empirical_gaussian_fit` fits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Predictive variances below this floor are treated as exactly certain.
VARIANCE_FLOOR = 1e-12


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


@dataclass
class MomentBundle:
    """Vectorized predictive moments for a candidate set against a target set.

    Shapes: candidate axis n_c, target axis m. ``y_var`` includes observation
    noise; latent f moments do not.
    """

    y_mean: np.ndarray   # (n_c,)
    y_var: np.ndarray    # (n_c,)
    f0_var: np.ndarray   # (m,)
    f1_var: np.ndarray   # (m,)
    f01_cov: np.ndarray  # (m,)
    tau_var: np.ndarray  # (m,)
    cy0: np.ndarray      # (n_c, m) Cov[y_c, f0(x*_j)]
    cy1: np.ndarray      # (n_c, m) Cov[y_c, f1(x*_j)]

    @property
    def cy_tau(self) -> np.ndarray:
        return self.cy1 - self.cy0


class CateModel(ABC):
    """Fitted CATE estimator exposing joint-Gaussian predictive queries.

    Fitted models are immutable; every query below is pure and safe to call
    concurrently.
    """

    @property
    @abstractmethod
    def noise_variance(self) -> float:
        """Observation-noise variance attached to outcome predictions."""

    @abstractmethod
    def tau_mean(self, x: np.ndarray) -> np.ndarray:
        """Posterior mean of the treatment-effect contrast at covariates x."""

    @abstractmethod
    def tau_sd(self, x: np.ndarray) -> np.ndarray:
        """Posterior standard deviation of the contrast at covariates x."""

    @abstractmethod
    def tau_draws(self, x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """(n, k) draws from the marginal contrast posterior, k per row of x,
        taken from rng row by row: n one-row calls draw what one call draws."""

    @abstractmethod
    def moment_bundle(self, cand_x: np.ndarray, cand_t: np.ndarray, target_x: np.ndarray) -> MomentBundle:
        """Pairwise predictive moments between candidates and targets."""

    @abstractmethod
    def tau_joint_cov(self, target_x: np.ndarray) -> np.ndarray:
        """(m, m) posterior covariance of the contrast over the target set."""

    @abstractmethod
    def po_joint_cov(self, target_x: np.ndarray) -> np.ndarray:
        """(2m, 2m) posterior covariance of per-target (f0, f1) pairs, interleaved."""

    @abstractmethod
    def latent_cov(self, xa: np.ndarray, ta: np.ndarray, xb: np.ndarray, tb: np.ndarray) -> np.ndarray:
        """Posterior Cov[f_{ta}(xa), f_{tb}(xb)] between two (x, t) point sets."""

    @abstractmethod
    def latent_var(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Posterior Var[f_t(x)] per point: the diagonal of ``latent_cov``."""

    def predictive_belief(self, candidate, target_x: np.ndarray) -> JointGaussianBelief:
        """Joint belief over (y at candidate, f0/f1/tau at each target).

        Default implementation assembles the belief from the latent posterior
        covariance queries; models with cheaper exact paths may override.
        """
        cx, ct = candidate
        cx = np.atleast_1d(np.asarray(cx, dtype=float))[None, :]
        ct = np.array([int(ct)])
        target_x = np.atleast_2d(np.asarray(target_x, dtype=float))
        m = target_x.shape[0]

        bundle = self.moment_bundle(cx, ct, target_x)
        po = self.po_joint_cov(target_x)

        k = 1 + 3 * m
        cov = np.zeros((k, k))
        mean = np.zeros(k)
        mean[0] = bundle.y_mean[0]
        cov[0, 0] = bundle.y_var[0]

        f0 = 1 + 3 * np.arange(m)
        f1 = f0 + 1
        tau = f0 + 2
        mu0, mu1 = self._target_means(target_x)
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

    @abstractmethod
    def _target_means(self, target_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means (mu0, mu1) of the two potential-outcome surfaces."""

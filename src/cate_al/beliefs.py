"""Gaussian predictive interface shared by all CATE estimators.

Every estimator, exact or sample-based, answers the same queries: posterior
moments of the contrast and of the two potential-outcome surfaces, their
joint covariances over a target set, and vectorized moment bundles between
candidates and targets, which the acquisition scorers turn into closed-form
Gaussian mutual information. The GPs compute these moments exactly; the
ensemble takes the sample moments of its members' predictions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

# Predictive variances below this floor are treated as exactly certain.
VARIANCE_FLOOR = 1e-12


@dataclass
class MomentBundle(ABC):
    """Vectorized predictive moments for a candidate set against a target set.

    Shapes: candidate axis n_c, target axis m. ``y_var`` includes observation
    noise; latent f moments do not.

    The (n_c, m) candidate-by-target covariances Cov[y_c, f0(x*_j)],
    Cov[y_c, f1(x*_j)] and Cov[y_c, tau(x*_j)] are served by row block:
    ``cy0_rows(rows, out)``, ``cy1_rows`` and ``cy_tau_rows`` return those
    of the candidate slice ``rows``, possibly written into ``out``, a
    C-contiguous (r, m) buffer. The mean-over-targets scorers read them block
    by block, so a bundle that computes its rows on demand (the ensemble's)
    holds no candidate-by-target matrix while they score, and one that holds
    its two matrices (the GPs') serves slices of them. ``cy0`` and ``cy1``
    (a field or a property of each subclass) and ``cy_tau`` read all rows
    at once.
    """

    y_mean: np.ndarray   # (n_c,)
    y_var: np.ndarray    # (n_c,)
    f0_var: np.ndarray   # (m,)
    f1_var: np.ndarray   # (m,)
    f01_cov: np.ndarray  # (m,)
    tau_var: np.ndarray  # (m,)

    @property
    def shape(self) -> tuple[int, int]:
        """(n_c, m) of the candidate-by-target covariances."""
        return self.y_var.size, self.f0_var.size

    @abstractmethod
    def cy0_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """Cov[y_c, f0(x*_j)] of the candidates ``rows``."""

    @abstractmethod
    def cy1_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """Cov[y_c, f1(x*_j)] of the candidates ``rows``."""

    @abstractmethod
    def cy_tau_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """Cov[y_c, tau(x*_j)] of the candidates ``rows``."""

    @property
    def cy_tau(self) -> np.ndarray:
        return self.cy_tau_rows(slice(None))


@dataclass
class HeldMomentBundle(MomentBundle):
    """Moment bundle holding its two covariance matrices whole; a row block
    is a slice of them, and the contrast's is the difference of the slices."""

    cy0: np.ndarray      # (n_c, m) Cov[y_c, f0(x*_j)]
    cy1: np.ndarray      # (n_c, m) Cov[y_c, f1(x*_j)]

    def cy0_rows(self, rows, out=None):
        return self.cy0[rows]

    def cy1_rows(self, rows, out=None):
        return self.cy1[rows]

    def cy_tau_rows(self, rows, out=None):
        return np.subtract(self.cy1[rows], self.cy0[rows], out=out)


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

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

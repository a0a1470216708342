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
from scipy.linalg import solve_triangular

from .errors import InputError, as_arms
from .kernels import rows_per_block

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

    def condition(self, batch, arms, low: np.ndarray) -> "HeldMomentBundle":
        """This bundle of the posterior conditioned on noisy outcomes at the
        candidates ``batch``, over the other candidates in their order.

        Pool mode only: the candidates are the targets, in the same order,
        so ``cy0`` and ``cy1`` are square and hold every covariance the
        update reads. ``arms`` are the candidates' arms and ``low`` the
        lower Cholesky factor of S = Cov[y_B, y_B] for the batch B in batch
        order, with the noise and jitter the conditioned fit factorizes: the
        block that fit appends to its factor (GPML 2006, section A.3). With
        C = Cov[y_c, y_B], which is ``cy_{t_b}[c, b]``, and W_a = ``cy_a[B, :]``,
        each matrix becomes ``cy_a[keep, keep] - C S^-1 W_a``, and the variances
        are downdated with the same S^-1 and clamped where a fresh bundle
        clamps them. By Gaussian conditioning (GPML 2006, section 2.2 and
        A.2) that is the fresh bundle of the conditioned posterior, up to
        rounding.

        The update works in place: each matrix is compacted into the front
        of its own buffer a row block at a time and the buffer shrunk, so no
        square temporary exists. So this bundle becomes the result, which is
        returned; its matrices must own their buffers, and no view of them
        taken before the call may be read after it.
        """
        n = self.y_var.size
        if self.cy0.shape != (n, n) or self.cy1.shape != (n, n):
            raise InputError(f"only a pool-mode bundle, whose candidates are its targets, conditions; got {self.shape}")
        arms = as_arms(arms)
        batch = np.asarray(batch)
        if arms.size != n:
            raise InputError(f"{arms.size} arms for {n} candidates")
        if (batch.ndim != 1 or batch.size == 0 or batch.dtype.kind not in "iu"
                or batch.min() < 0 or batch.max() >= n or np.unique(batch).size != batch.size):
            raise InputError(f"the batch must be distinct candidate positions below {n}")
        if np.shape(low) != (batch.size, batch.size):
            raise InputError(f"the batch of {batch.size} needs a {batch.size}x{batch.size} factor, got {np.shape(low)}")
        others = np.ones(n, dtype=bool)
        others[batch] = False
        keep = np.flatnonzero(others)

        cross = np.where(arms[batch] == 1, self.cy1[np.ix_(keep, batch)], self.cy0[np.ix_(keep, batch)])  # C
        g = solve_triangular(low, cross.T, lower=True)
        h0 = solve_triangular(low, self.cy0[batch][:, keep], lower=True)
        h1 = solve_triangular(low, self.cy1[batch][:, keep], lower=True)

        # the noise each y_var carries above its clamped latent variance,
        # the diagonal of its own arm's matrix
        latent = np.where(arms == 1, np.diagonal(self.cy1), np.diagonal(self.cy0))
        noise = self.y_var - np.maximum(latent, 0.0)
        self.y_var = np.maximum(self.y_var[keep] - np.sum(g * g, axis=0), noise[keep])
        self.f0_var = np.maximum(self.f0_var[keep] - np.sum(h0 * h0, axis=0), 0.0)
        self.f1_var = np.maximum(self.f1_var[keep] - np.sum(h1 * h1, axis=0), 0.0)
        self.f01_cov = self.f01_cov[keep] - np.sum(h0 * h1, axis=0)
        self.tau_var = np.maximum(self.f0_var + self.f1_var - 2.0 * self.f01_cov, 0.0)
        _condition_in_place(self.cy0, keep, g.T, h0)
        _condition_in_place(self.cy1, keep, g.T, h1)
        return self


def _condition_in_place(buf: np.ndarray, keep: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Overwrites the C-contiguous square ``buf`` with
    ``buf[keep][:, keep] - left @ right``, written into the front of its own
    buffer a row block at a time, then shrinks the buffer to that (k, k).

    Each block is gathered before it is written, and it lands before the
    first old row a later block reads: with n the old width, new row i ends
    at (i + 1) k, before old row keep[i + 1] starts at keep[i + 1] n.
    """
    k = keep.size
    flat = buf.reshape(-1)
    step = rows_per_block(k)
    for start in range(0, k, step):
        rows = slice(start, start + step)
        block = np.take(np.take(buf, keep[rows], axis=0), keep, axis=1)
        block -= left[rows] @ right
        flat[start * k : start * k + block.size] = block.reshape(-1)
    del flat  # the resize may move the buffer: no view of it may outlive it
    buf.resize((k, k), refcheck=False)


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

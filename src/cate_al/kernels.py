"""Covariance kernels for the treatment-effect GP estimators.

Two single-output stationary families (RBF and Matern-5/2 with per-dimension
lengthscales) and two joint kernels over (covariate, treatment) pairs:

* a coregionalized kernel, ``B[t, t'] * k(x, x')``, where ``B`` is a 2x2 PSD
  task-covariance matrix shared by both arms, and
* a per-arm kernel that gives each treatment arm its own stationary kernel
  and couples the arms through a cross-covariance built from the overlap of
  the two arm kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, as_arms

KERNEL_FAMILIES = ("rbf", "matern52")

_SQRT5 = np.sqrt(5.0)


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters of one stationary kernel.

    Parameters
    ----------
    family : str
        "rbf" or "matern52".
    lengthscales : array_like, shape (d,)
        Positive per-dimension lengthscales; the config keeps a read-only copy.
    signal_variance : float
        Positive prior variance k(x, x).
    noise_variance : float
        Positive observation-noise variance attached to this kernel's GP.
    """

    family: str = "rbf"
    lengthscales: np.ndarray = field(default_factory=lambda: np.ones(1))
    signal_variance: float = 1.0
    noise_variance: float = 0.1
    # gp.JITTER_START; a constant on this class only because bench/probes.py reads cmgp.kernel.jitter
    jitter: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}")
        ls = np.array(self.lengthscales, dtype=float, ndmin=1)
        if ls.ndim != 1 or ls.size == 0:
            raise InputError("lengthscales must be a non-empty 1-d array")
        if not np.all(np.isfinite(ls)) or np.any(ls <= 0):
            raise InputError("lengthscales must be finite and > 0")
        ls.flags.writeable = False
        object.__setattr__(self, "lengthscales", ls)
        for name in ("signal_variance", "noise_variance"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise InputError(f"{name} must be finite and > 0, got {v}")
            object.__setattr__(self, name, v)

    @classmethod
    def trusted(cls, family: str, lengthscales: np.ndarray, signal_variance: float,
                noise_variance: float) -> "KernelConfig":
        """Build from values the caller guarantees valid, as a search decoding
        clipped log parameters does: a known family, a non-empty 1-d array of
        finite lengthscales > 0 and finite variances > 0. Keeps one read-only
        copy of the lengthscales; checks nothing."""
        ls = np.array(lengthscales, dtype=float)
        ls.flags.writeable = False
        config = object.__new__(cls)
        # a frozen dataclass keeps its fields in its __dict__
        config.__dict__.update(family=family, lengthscales=ls, signal_variance=float(signal_variance),
                               noise_variance=float(noise_variance))
        return config

    @property
    def input_dim(self) -> int:
        return self.lengthscales.size


@dataclass(frozen=True)
class CoregionalizationConfig:
    """2x2 symmetric PSD task covariance coupling the two treatment arms;
    the config keeps a read-only matrix of its own."""

    task_covariance: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self):
        b = np.asarray(self.task_covariance, dtype=float)
        if b.shape != (2, 2):
            raise InputError(f"task_covariance must be 2x2, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise InputError("task_covariance must be finite")
        if abs(b[0, 1] - b[1, 0]) > 1e-10 * max(1.0, np.abs(b).max()):
            raise InputError("task_covariance must be symmetric")
        b = 0.5 * (b + b.T)
        if np.linalg.eigvalsh(b).min() < -1e-10 * max(1.0, np.abs(b).max()):
            raise InputError("task_covariance must be positive semi-definite")
        b.flags.writeable = False
        object.__setattr__(self, "task_covariance", b)

    @classmethod
    def from_cholesky(cls, l11: float, l21: float, l22: float) -> "CoregionalizationConfig":
        """Build B = L L^T from lower-triangular entries; PSD by construction
        and, at 2x2, exactly symmetric, so only finiteness is checked."""
        low = np.array([[l11, 0.0], [l21, l22]], dtype=float)
        b = low @ low.T
        if not all(map(math.isfinite, b.ravel().tolist())):  # at 2x2, cheaper than np.isfinite
            raise InputError("task_covariance must be finite")
        b.flags.writeable = False
        config = object.__new__(cls)
        object.__setattr__(config, "task_covariance", b)
        return config


# Kernels are evaluated over the fresh r2 array in place, a block of rows of
# about this many entries at a time, so every pass of the expression stays in
# cache and no whole-matrix temporary is allocated. The GP's training Gram and
# moment bundle are assembled in blocks of the same size.
_BLOCK = 16384


def rows_per_block(width: int) -> int:
    """Rows of a ``width``-column matrix in one block of about ``_BLOCK`` entries."""
    return max(1, _BLOCK // max(width, 1))


def _rbf_from_r2(r2: np.ndarray, signal_variance: float) -> np.ndarray:
    """signal_variance * exp(-0.5 r2), written over r2."""
    rows = rows_per_block(r2.shape[1])
    for start in range(0, r2.shape[0], rows):
        blk = r2[start : start + rows]
        np.multiply(blk, -0.5, out=blk)
        np.exp(blk, out=blk)
        np.multiply(blk, signal_variance, out=blk)
    return r2


def _matern52_from_r2(r2: np.ndarray, signal_variance: float) -> np.ndarray:
    """signal_variance * (1 + a + 5/3 r2) * exp(-a) with a = sqrt(5) r and
    r = sqrt(r2), written over r2 (GPML eq. 4.17).

    r2 always comes from ``cdist``'s sqeuclidean, a sum of squares, so it is
    never negative and its square root needs no clamp. Seven passes give the
    bits of the expression: -a in one multiply by -sqrt(5) (a negation is
    exact), exp(-a) from it, and 1 + a as 1 - (-a). A signal variance of
    exactly 1.0, the search's and the overlap kernel's, skips its multiply."""
    rows = rows_per_block(r2.shape[1])
    a_buf = np.empty((min(rows, r2.shape[0]), r2.shape[1]))
    e_buf = np.empty_like(a_buf)
    for start in range(0, r2.shape[0], rows):
        blk = r2[start : start + rows]
        a, e = a_buf[: blk.shape[0]], e_buf[: blk.shape[0]]
        np.sqrt(blk, out=a)
        np.multiply(a, -_SQRT5, out=a)  # -a
        np.exp(a, out=e)
        np.subtract(1.0, a, out=a)      # 1 + a
        np.multiply(blk, 5.0 / 3.0, out=blk)
        np.add(a, blk, out=blk)
        if signal_variance != 1.0:
            np.multiply(blk, signal_variance, out=blk)
        np.multiply(blk, e, out=blk)
    return r2


_FROM_R2 = {"rbf": _rbf_from_r2, "matern52": _matern52_from_r2}


def scaled_gram(sa: np.ndarray, sb: np.ndarray, family: str, signal_variance: float) -> np.ndarray:
    """Gram of the stationary kernel ``family`` between 2-d point sets that
    are already divided by its lengthscales; every base Gram is built here,
    so a caller that reuses a scaled point set divides it once."""
    return _FROM_R2[family](cdist(sa, sb, "sqeuclidean"), signal_variance)


def kernel_points(xa, xb, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two point sets as 2-d float arrays, checked to have ``dim`` columns."""
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape[1] != dim or xb.shape[1] != dim:
        raise InputError(f"points have dimensions {xa.shape[1]}/{xb.shape[1]}, kernel expects {dim}")
    return xa, xb


def kernel_gram(xa: np.ndarray, xb: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """Gram matrix of the configured stationary kernel between two point sets."""
    xa, xb = kernel_points(xa, xb, cfg.input_dim)
    return scaled_gram(xa / cfg.lengthscales, xb / cfg.lengthscales, cfg.family, cfg.signal_variance)


# -- coregionalized two-arm kernel -------------------------------------------


def cmgp_gram(
    xa: np.ndarray,
    ta: np.ndarray,
    xb: np.ndarray,
    tb: np.ndarray,
    kcfg: KernelConfig,
    ccfg: CoregionalizationConfig,
) -> np.ndarray:
    """Gram of the coregionalized kernel B[t, t'] * k(x, x')."""
    ta = as_arms(ta)
    tb = as_arms(tb)
    gram = kernel_gram(xa, xb, kcfg)
    for arm, row in enumerate(ccfg.task_covariance):
        np.multiply(gram, row[tb], out=gram, where=(ta == arm)[:, None])
    return gram


# -- per-arm kernel with overlap cross-covariance ----------------------------
#
# Arm marginals are k0 (control) and k1 (treated). The cross-arm covariance is
# rho * c01(x, x') where c01 is the overlap kernel of the two arm kernels: same
# family, per-dimension lengthscale mixing, and an amplitude penalty that keeps
# the joint two-arm prior positive semi-definite for any |rho| <= 1 (spectral
# bound; exponent 1/2 per dimension for rbf, nu = 5/2 for matern52).


def overlap_parts(cfg0: KernelConfig, cfg1: KernelConfig) -> tuple[float, np.ndarray]:
    """(amplitude, mixed lengthscales) of the overlap kernel; the amplitude is
    its value at r = 0."""
    if cfg0.family != cfg1.family:
        raise InputError("both arm kernels must share the same family")
    l0, l1 = cfg0.lengthscales, cfg1.lengthscales
    if l0.size != l1.size:
        raise InputError("arm kernels must share the input dimension")
    amp = np.sqrt(cfg0.signal_variance * cfg1.signal_variance)
    ratio = 2.0 * l0 * l1 / (l0**2 + l1**2)
    if cfg0.family == "rbf":
        return float(amp * np.prod(np.sqrt(ratio))), np.sqrt(0.5 * (l0**2 + l1**2))
    return float(amp * np.prod(ratio**2.5)), np.sqrt(2.0 * l0**2 * l1**2 / (l0**2 + l1**2))


def overlap_gram(xa: np.ndarray, xb: np.ndarray, cfg0: KernelConfig, cfg1: KernelConfig) -> np.ndarray:
    """Overlap kernel between two point sets: the cross-arm prior covariance
    per unit of coupling ``rho``."""
    amp, mix = overlap_parts(cfg0, cfg1)
    xa, xb = kernel_points(xa, xb, mix.size)
    gram = scaled_gram(xa / mix, xb / mix, cfg0.family, 1.0)
    return np.multiply(gram, amp, out=gram)


def nsgp_gram(
    xa: np.ndarray,
    ta: np.ndarray,
    xb: np.ndarray,
    tb: np.ndarray,
    kcfg0: KernelConfig,
    kcfg1: KernelConfig,
    rho: float = 0.5,
) -> np.ndarray:
    """Gram of the per-arm kernel: k0 within control, k1 within treated,
    rho-scaled overlap kernel across arms."""
    if not -1.0 <= rho <= 1.0:
        raise InputError(f"cross-arm coupling must lie in [-1, 1], got {rho}")
    ta = as_arms(ta)
    tb = as_arms(tb)
    k0 = kernel_gram(xa, xb, kcfg0)
    k1 = kernel_gram(xa, xb, kcfg1)
    cross = rho * overlap_gram(xa, xb, kcfg0, kcfg1)
    m0a = (ta == 0)[:, None]
    m0b = (tb == 0)[None, :]
    out = np.where(
        m0a & m0b, k0, np.where(~m0a & ~m0b, k1, cross)
    )
    return out

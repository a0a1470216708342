"""Gaussian-process CATE estimators with exact joint predictive posteriors.

Two model forms over (covariate, treatment) inputs:

* ``cmgp``: a coregionalized multi-task GP; one base kernel shared by the two
  potential-outcome surfaces, coupled by a 2x2 PSD task covariance.
* ``nsgp``: per-arm kernels with their own hyperparameters, coupled across
  arms by an overlap cross-covariance with coupling coefficient ``rho``.

Outcomes are centered by the training mean before fitting. Hyperparameters
are chosen by a derivative-free multi-start coordinate search on the log
marginal likelihood with a weak anchor penalty at the data-driven
initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .beliefs import CateModel, MomentBundle
from .errors import InputError, NumericalError, as_arms, as_labeled
from .kernels import (
    CoregionalizationConfig,
    KernelConfig,
    cmgp_gram,
    kernel_gram,
    nsgp_gram,
    overlap_amplitude,
    overlap_gram,
)

JITTER_START = 1e-8
JITTER_MAX = 1e-3
MEMO_ENTRIES = 3            # base Grams a search keeps per kernel slot: the current
                            # one and both trial steps of a lengthscale coordinate

SEARCH_FAMILY = "matern52"  # kernel family the hyperparameter search fits
SEARCH_STEP = 0.6           # first coordinate step; halved after a sweep with no move
PRIOR_SD = 2.0              # sd of the weak anchor penalty per search coordinate
# lengthscale multipliers of each component's start, by component count
_COMPONENT_SPREADS = {1: (1.0,), 2: (0.5, 2.0)}


@dataclass(frozen=True)
class CmgpParams:
    """Hyperparameters of the coregionalized multi-task GP.

    One or two coregionalized components; the optional second component lets
    the two outcome surfaces mix structure at different lengthscales, which a
    single base kernel cannot represent.
    """

    kernel: KernelConfig
    coreg: CoregionalizationConfig
    kernel2: KernelConfig | None = None
    coreg2: CoregionalizationConfig | None = None

    def __post_init__(self):
        if (self.kernel2 is None) != (self.coreg2 is None):
            raise InputError("the second coregionalized component needs both a kernel and a task covariance")

    @property
    def noise_variance(self) -> float:
        return self.kernel.noise_variance

    @property
    def jitter(self) -> float:
        return self.kernel.jitter

    @property
    def components(self) -> tuple[tuple[KernelConfig, CoregionalizationConfig], ...]:
        """The (kernel, coreg) pair of each coregionalized component."""
        first = ((self.kernel, self.coreg),)
        return first if self.kernel2 is None else first + ((self.kernel2, self.coreg2),)

    def gram(self, xa, ta, xb, tb) -> np.ndarray:
        """Prior covariance K((xa, ta), (xb, tb)), summed over components."""
        return reduce(np.add, (cmgp_gram(xa, ta, xb, tb, k, b) for k, b in self.components))

    def arm_grams(self, xa, ta, xb) -> tuple[np.ndarray, np.ndarray]:
        """K((xa, ta), (xb, 0)) and K((xa, ta), (xb, 1)), from one base
        kernel per component scaled by the task covariance of each row's arm."""
        ta = as_arms(ta)
        grams = None
        for kernel, coreg in self.components:
            base = kernel_gram(xa, xb, kernel)
            b = coreg.task_covariance
            pair = (b[ta, 0][:, None] * base, np.multiply(base, b[ta, 1][:, None], out=base))
            if grams is None:
                grams = pair
            else:
                for total, part in zip(grams, pair):
                    total += part
        return grams

    def train_gram(self, memo: _GramMemo) -> np.ndarray:
        """Prior Gram of the memo's training points: each component's base
        from the memo, scaled by B[t, t'] per row arm as ``cmgp_gram`` does."""
        total = None
        for slot, (kernel, coreg) in enumerate(self.components):
            base = memo.base(slot, _kernel_key(kernel), kernel_gram, memo.x, memo.x, kernel)
            gram = np.empty_like(base)
            for rows, row in zip(memo.arm_masks, coreg.task_covariance):
                np.multiply(base, row[memo.t], out=gram, where=rows[:, None])
            total = gram if total is None else np.add(total, gram, out=total)
        return total

    def prior_diag(self, t: np.ndarray) -> np.ndarray:
        """Prior Var[f_t(x)] per treatment; stationary, so free of x."""
        t = np.asarray(t)
        return reduce(np.add, (
            np.where(t == 0, b.task_covariance[0, 0], b.task_covariance[1, 1]) * k.signal_variance
            for k, b in self.components
        ))

    def cross_diag(self, n: int) -> np.ndarray:
        """Prior Cov[f0(x), f1(x)] at n identical-covariate pairs."""
        return np.full(n, reduce(np.add, (b.task_covariance[0, 1] * k.signal_variance for k, b in self.components)))

    # search vector: [log l_1..d, log noise, log L11, L21, log L22] for the
    # first component, then [log l_1..d, log L11, L21, log L22] for a second,
    # where L is the Cholesky factor of the component's task covariance

    @classmethod
    def search_start(cls, x: np.ndarray, yc: np.ndarray, n_components: int) -> np.ndarray:
        """Data-driven start; two components start on opposite sides of the
        data scale so the search can keep a short- and a long-range term."""
        ls, y_var, noise = _data_scales(x, yc)
        log_sd = np.log(np.sqrt(y_var / n_components))
        coords = []
        for spread in _COMPONENT_SPREADS[n_components]:
            coords += [np.log(ls * spread), [log_sd, 0.0, log_sd]]
        coords.insert(1, [np.log(noise)])
        return np.concatenate(coords)

    @staticmethod
    def lengthscale_coords(dim: int, n_components: int) -> np.ndarray:
        return np.concatenate([np.arange(dim) + c * (dim + 4) for c in range(n_components)])

    def to_theta(self) -> np.ndarray:
        coords = []
        for kernel, coreg in self.components:
            low = np.linalg.cholesky(coreg.task_covariance + 1e-12 * np.eye(2))
            coords += [np.log(kernel.lengthscales), [np.log(low[0, 0]), low[1, 0], np.log(low[1, 1])]]
        coords.insert(1, [np.log(self.noise_variance)])
        return np.concatenate(coords)

    @classmethod
    def from_theta(cls, theta: np.ndarray, dim: int) -> "CmgpParams":
        theta = np.clip(theta, -8.0, 8.0)
        noise = float(np.exp(theta[dim]))
        components = []
        # without the shared noise coordinate, each component is a block of dim + 3
        for block in np.concatenate([theta[:dim], theta[dim + 1 :]]).reshape(-1, dim + 3):
            kernel = KernelConfig(
                family=SEARCH_FAMILY, lengthscales=np.exp(block[:dim]),
                signal_variance=1.0, noise_variance=noise,
            )
            coreg = CoregionalizationConfig.from_cholesky(
                float(np.exp(block[dim])), float(block[dim + 1]), float(np.exp(block[dim + 2]))
            )
            components += [kernel, coreg]
        return cls(*components)


@dataclass(frozen=True)
class NsgpParams:
    """Hyperparameters of the per-arm GP (shared noise, cross coupling rho)."""

    kernel0: KernelConfig
    kernel1: KernelConfig
    cross_rho: float = 0.5

    def __post_init__(self):
        if not -1.0 <= self.cross_rho <= 1.0:
            raise InputError(f"cross_rho must lie in [-1, 1], got {self.cross_rho}")

    @property
    def noise_variance(self) -> float:
        return self.kernel0.noise_variance

    @property
    def jitter(self) -> float:
        return self.kernel0.jitter

    def gram(self, xa, ta, xb, tb) -> np.ndarray:
        """Prior covariance K((xa, ta), (xb, tb)) of the per-arm kernel."""
        return nsgp_gram(xa, ta, xb, tb, self.kernel0, self.kernel1, self.cross_rho)

    def arm_grams(self, xa, ta, xb) -> tuple[np.ndarray, np.ndarray]:
        """K((xa, ta), (xb, 0)) and K((xa, ta), (xb, 1)): the coupled overlap
        kernel everywhere, then each arm's own kernel on that arm's rows."""
        xa = _as_points(xa)
        ta = as_arms(ta)
        cross = overlap_gram(xa, xb, self.kernel0, self.kernel1)
        np.multiply(cross, self.cross_rho, out=cross)
        grams = (cross.copy(), cross)
        for arm, kernel in enumerate((self.kernel0, self.kernel1)):
            rows = ta == arm
            grams[arm][rows] = kernel_gram(xa[rows], xb, kernel)
        return grams

    def train_gram(self, memo: _GramMemo) -> np.ndarray:
        """Prior Gram of the memo's training points, built by arm blocks: k0
        on control x control, k1 on treated x treated and the rho-scaled
        overlap on control x treated, mirrored into treated x control (the
        squared distances are exactly symmetric), each block scattered into
        the rows and columns of its arm. Equal to ``nsgp_gram`` entry for entry."""
        x0, x1 = memo.arm_x
        block00, block11, block01, block10 = memo.arm_blocks
        key0, key1 = _kernel_key(self.kernel0), _kernel_key(self.kernel1)
        gram = np.empty((memo.t.size, memo.t.size))
        gram[block00] = memo.base("k0", key0, kernel_gram, x0, x0, self.kernel0)
        gram[block11] = memo.base("k1", key1, kernel_gram, x1, x1, self.kernel1)
        cross = self.cross_rho * memo.base("overlap", key0 + key1, overlap_gram, x0, x1, self.kernel0, self.kernel1)
        gram[block01] = cross
        gram[block10] = cross.T
        return gram

    def prior_diag(self, t: np.ndarray) -> np.ndarray:
        """Prior Var[f_t(x)] per treatment; stationary, so free of x."""
        return np.where(np.asarray(t) == 0, self.kernel0.signal_variance, self.kernel1.signal_variance)

    def cross_diag(self, n: int) -> np.ndarray:
        """Prior Cov[f0(x), f1(x)] at n identical-covariate pairs: rho times
        the overlap kernel at r = 0."""
        return np.full(n, self.cross_rho * overlap_amplitude(self.kernel0, self.kernel1))

    # search vector: [log l0_1..d, log sv0, log l1_1..d, log sv1, log noise,
    # rho_raw] with rho = 0.95 tanh(rho_raw); one per-arm pair, so the
    # component count of a search does not apply

    @classmethod
    def search_start(cls, x: np.ndarray, yc: np.ndarray, n_components: int) -> np.ndarray:
        ls, y_var, noise = _data_scales(x, yc)
        return np.concatenate(
            [np.log(ls), [np.log(y_var)], np.log(ls), [np.log(y_var), np.log(noise), np.arctanh(0.3 / 0.95)]]
        )

    @staticmethod
    def lengthscale_coords(dim: int, n_components: int) -> np.ndarray:
        return np.concatenate([np.arange(dim), dim + 1 + np.arange(dim)])

    def to_theta(self) -> np.ndarray:
        rho_raw = np.arctanh(np.clip(self.cross_rho / 0.95, -0.999999, 0.999999))
        return np.concatenate([
            np.log(self.kernel0.lengthscales), [np.log(self.kernel0.signal_variance)],
            np.log(self.kernel1.lengthscales), [np.log(self.kernel1.signal_variance)],
            [np.log(self.kernel0.noise_variance), rho_raw],
        ])

    @classmethod
    def from_theta(cls, theta: np.ndarray, dim: int) -> "NsgpParams":
        d = dim
        theta = np.clip(theta, -8.0, 8.0)
        noise = float(np.exp(theta[2 * d + 2]))
        k0 = KernelConfig(
            family=SEARCH_FAMILY, lengthscales=np.exp(theta[:d]),
            signal_variance=float(np.exp(theta[d])), noise_variance=noise,
        )
        k1 = KernelConfig(
            family=SEARCH_FAMILY, lengthscales=np.exp(theta[d + 1 : 2 * d + 1]),
            signal_variance=float(np.exp(theta[2 * d + 1])), noise_variance=noise,
        )
        return cls(kernel0=k0, kernel1=k1, cross_rho=float(0.95 * np.tanh(theta[2 * d + 3])))


GpParams = CmgpParams | NsgpParams


def _data_scales(x: np.ndarray, yc: np.ndarray):
    """Start lengthscales (column sds), outcome variance and noise variance."""
    col_sd = np.std(x, axis=0)
    y_var = max(float(np.var(yc)), 1e-4)
    return np.where(col_sd > 1e-8, col_sd, 1.0), y_var, 0.1 * y_var


def _kernel_key(kernel: KernelConfig) -> tuple:
    """Everything a base kernel's Gram depends on, compared bitwise."""
    return kernel.family, kernel.lengthscales.tobytes(), kernel.signal_variance


class _GramMemo:
    """Base Grams over one search's training points, kept across its
    objective evaluations.

    A coordinate step changes few hyperparameters, so most evaluations find
    every base they need. Each base is keyed by exactly the hyperparameters
    it depends on; a slot holds at most ``MEMO_ENTRIES`` of them and drops
    the least recently used first. Bases are read, never written. A search
    owns its memo and drops it when it returns.
    """

    def __init__(self, x: np.ndarray, t: np.ndarray):
        self.x = x
        self.t = t
        self.arm_masks = (t == 0, t == 1)
        i0, i1 = map(np.flatnonzero, self.arm_masks)
        self.arm_x = (x[i0], x[i1])
        # open-mesh indices of the (control, control), (treated, treated),
        # (control, treated) and (treated, control) blocks of the n x n Gram
        self.arm_blocks = (np.ix_(i0, i0), np.ix_(i1, i1), np.ix_(i0, i1), np.ix_(i1, i0))
        self._slots: dict = {}

    def base(self, slot, key, build, *args) -> np.ndarray:
        """The base Gram of ``slot`` at ``key``, from ``build(*args)`` on a miss."""
        entries = self._slots.setdefault(slot, {})
        gram = entries.pop(key, None)
        if gram is None:
            gram = build(*args)
            if len(entries) == MEMO_ENTRIES:
                del entries[next(iter(entries))]
        entries[key] = gram
        return gram


def _as_points(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


class GpCateModel(CateModel):
    """Fitted GP posterior over the two potential-outcome surfaces.

    Stores the Cholesky factor of (K + noise * I) and the weight vector
    alpha = (K + noise * I)^-1 (y - mean). Immutable after construction: it
    takes arrays the library made for it and marks them read-only, and all
    predictive queries are read-only.
    """

    def __init__(self, params: GpParams, x, t, y, L, alpha, y_mean, jitter_used):
        for a in (x, t, y, L, alpha):
            a.flags.writeable = False
        self.params = params
        self.train_x = x
        self.train_t = t
        self.train_y = y
        self.L = L
        self.alpha = alpha
        self.y_mean = float(y_mean)
        self.jitter_used = float(jitter_used)

    # -- kernel plumbing ------------------------------------------------

    @property
    def noise_variance(self) -> float:
        return self.params.noise_variance

    def _gram(self, xa, ta, xb, tb) -> np.ndarray:
        """Prior covariance K((xa, ta), (xb, tb)): each column of the arm
        Grams of (xa, ta) against xb, taken from the arm in ``tb``."""
        k0, k1 = self.params.arm_grams(xa, ta, xb)
        np.copyto(k0, k1, where=as_arms(tb) == 1)
        return k0

    # -- posterior queries ----------------------------------------------

    def latent_cov(self, xa, ta, xb, tb) -> np.ndarray:
        va = solve_triangular(self.L, self._gram(self.train_x, self.train_t, xa, ta), lower=True)
        vb = solve_triangular(self.L, self._gram(self.train_x, self.train_t, xb, tb), lower=True)
        return self._gram(xa, ta, xb, tb) - va.T @ vb

    def latent_var(self, x, t) -> np.ndarray:
        t = as_arms(t)
        v = solve_triangular(self.L, self._gram(self.train_x, self.train_t, x, t), lower=True)
        return np.maximum(self.params.prior_diag(t) - np.sum(v * v, axis=0), 0.0)

    def _arm_means(self, k0, k1):
        """Posterior means of f0 and f1 from the train cross-Grams of both arms."""
        return self.y_mean + k0.T @ self.alpha, self.y_mean + k1.T @ self.alpha

    def tau_mean(self, x) -> np.ndarray:
        mu0, mu1 = self._arm_means(*self.params.arm_grams(self.train_x, self.train_t, _as_points(x)))
        return mu1 - mu0

    def _contrast_moments(self, x):
        """Train cross-Grams at (x, 0) and (x, 1) for the 2-d points x and
        their solves, then Var f0, Var f1, Cov(f0, f1) and Var tau per row."""
        m = x.shape[0]
        k0, k1 = self.params.arm_grams(self.train_x, self.train_t, x)
        v0 = solve_triangular(self.L, k0, lower=True)
        v1 = solve_triangular(self.L, k1, lower=True)
        f0_var = np.maximum(self.params.prior_diag(np.zeros(m, dtype=int)) - np.sum(v0 * v0, axis=0), 0.0)
        f1_var = np.maximum(self.params.prior_diag(np.ones(m, dtype=int)) - np.sum(v1 * v1, axis=0), 0.0)
        f01_cov = self.params.cross_diag(m) - np.sum(v0 * v1, axis=0)
        tau_var = np.maximum(f0_var + f1_var - 2.0 * f01_cov, 0.0)
        return k0, k1, v0, v1, f0_var, f1_var, f01_cov, tau_var

    def tau_sd(self, x) -> np.ndarray:
        return np.sqrt(self._contrast_moments(_as_points(x))[-1])

    def tau_draws(self, x, k, rng: np.random.Generator) -> np.ndarray:
        k0, k1, *_, tau_var = self._contrast_moments(_as_points(x))
        mu0, mu1 = self._arm_means(k0, k1)
        sd = np.sqrt(tau_var)
        return rng.normal((mu1 - mu0)[:, None], sd[:, None], size=(sd.size, int(k)))

    def moment_bundle(self, cand_x, cand_t, target_x) -> MomentBundle:
        cand_x = _as_points(cand_x)
        cand_t = as_arms(cand_t)
        target_x = _as_points(target_x)
        k0, k1, v0, v1, f0_var, f1_var, f01_cov, tau_var = self._contrast_moments(target_x)

        treated = cand_t == 1
        if np.array_equal(cand_x, target_x):
            # pool mode: each candidate's cross-Gram and solve are the
            # target columns of its own arm
            kc = np.where(treated, k1, k0)
            vc = np.where(treated, v1, v0)
        else:
            kc = self._gram(self.train_x, self.train_t, cand_x, cand_t)
            vc = solve_triangular(self.L, kc, lower=True)
        y_mean = self.y_mean + kc.T @ self.alpha
        f_var = self.params.prior_diag(cand_t) - np.sum(vc * vc, axis=0)
        y_var = np.maximum(f_var, 0.0) + self.noise_variance

        cy0, cy1 = self.params.arm_grams(cand_x, cand_t, target_x)
        cy0 -= vc.T @ v0
        cy1 -= vc.T @ v1
        return MomentBundle(
            y_mean=y_mean, y_var=y_var, f0_var=f0_var, f1_var=f1_var,
            f01_cov=f01_cov, tau_var=tau_var, cy0=cy0, cy1=cy1,
        )

    def _po_blocks(self, target_x):
        target_x = _as_points(target_x)
        m = target_x.shape[0]
        _, _, v0, v1, *_ = self._contrast_moments(target_x)
        p00, p01 = self.params.arm_grams(target_x, np.zeros(m, dtype=int), target_x)
        _, p11 = self.params.arm_grams(target_x, np.ones(m, dtype=int), target_x)
        p00 -= v0.T @ v0
        p11 -= v1.T @ v1
        p01 -= v0.T @ v1
        p00 = 0.5 * (p00 + p00.T)
        p11 = 0.5 * (p11 + p11.T)
        return p00, p01, p11

    def tau_joint_cov(self, target_x) -> np.ndarray:
        p00, p01, p11 = self._po_blocks(target_x)
        cov = p00 + p11 - p01 - p01.T
        return 0.5 * (cov + cov.T)

    def po_joint_cov(self, target_x) -> np.ndarray:
        p00, p01, p11 = self._po_blocks(target_x)
        m = p00.shape[0]
        cov = np.empty((2 * m, 2 * m))
        cov[0::2, 0::2] = p00
        cov[1::2, 1::2] = p11
        cov[0::2, 1::2] = p01
        cov[1::2, 0::2] = p01.T
        return 0.5 * (cov + cov.T)


def _chol_with_escalating_jitter(a: np.ndarray, base_jitter: float):
    """Lower Cholesky of ``a`` with jitter escalation x10 up to JITTER_MAX;
    each try adds its jitter to a fresh Fortran-ordered copy of ``a``, which
    LAPACK factorizes in place (the copy ``scipy.linalg.cholesky`` makes, so
    the factor has the same bits)."""
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"the {a.shape[0]}x{a.shape[0]} Gram matrix is not finite")
    jitter = max(base_jitter, JITTER_START)
    while True:
        shifted = np.array(a, order="F")
        shifted.flat[:: a.shape[0] + 1] += jitter
        factor, info = dpotrf(shifted, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return factor, jitter
        if info < 0:
            raise ValueError(f"LAPACK dpotrf rejected its argument {-info}")
        jitter *= 10.0
        if jitter > JITTER_MAX:
            raise NumericalError(
                f"Cholesky failed for a {a.shape[0]}x{a.shape[0]} Gram matrix even at jitter {JITTER_MAX}"
            )


def _condition(x, t, y, params: GpParams, gram: np.ndarray) -> GpCateModel:
    """Posterior given validated training arrays and their prior Gram, to
    whose diagonal the noise is added in place."""
    y_mean = float(y.mean())
    yc = y - y_mean
    gram.flat[:: y.size + 1] += params.noise_variance
    L, jitter_used = _chol_with_escalating_jitter(gram, params.jitter)
    alpha, _ = dpotrs(L, yc, lower=1)
    return GpCateModel(params, x, t, y, L, alpha, y_mean, jitter_used)


def fit_gp(x, t, y, params: GpParams) -> GpCateModel:
    """Condition the configured GP prior on labeled data.

    Requires at least two labeled points and finite outcomes. Raises
    :class:`NumericalError` if the Gram factorization fails at maximum jitter.
    The model keeps copies of the training arrays, so the caller may reuse
    its own.
    """
    x, t, y = as_labeled(x, t, y)
    if y.size < 2:
        raise InputError(f"need at least 2 labeled points to fit, got {y.size}")
    return _condition(x, t, y, params, params.gram(x, t, x, t))


# -- hyperparameter search -----------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Derivative-free multi-start coordinate search settings."""

    n_restarts: int = 3        # structured starts climbed besides a warm start, at most 3
    n_evals: int = 50
    n_components: int = 1      # coregionalized components for the cmgp search

    def __post_init__(self):
        if not 0 <= self.n_restarts <= 3:
            raise InputError(f"n_restarts must lie in [0, 3], one per structured start, got {self.n_restarts}")
        if self.n_components not in _COMPONENT_SPREADS:
            raise InputError(f"n_components must be one of {tuple(_COMPONENT_SPREADS)}, got {self.n_components}")


def log_marginal_likelihood(x, t, y, params: GpParams, memo: _GramMemo | None = None) -> float:
    """log p(y | X, theta) = -1/2 y^T alpha - sum log L_ii - n/2 log 2 pi.

    A search passes its memo, built from the already validated ``x`` and
    ``t``; the training Gram then reuses the base Grams the memo holds and
    has the same bits as without one.
    """
    if memo is None:
        model = fit_gp(x, t, y, params)
    elif x is memo.x and t is memo.t:
        model = _condition(x, t, y, params, params.train_gram(memo))
    else:
        raise InputError("the Gram memo was built for other training points")
    yc = model.train_y - model.y_mean
    n = yc.size
    return float(
        -0.5 * yc @ model.alpha - np.sum(np.log(np.diag(model.L))) - 0.5 * n * np.log(2.0 * np.pi)
    )


_SEARCH_SPACES = {"cmgp": CmgpParams, "nsgp": NsgpParams}


def optimize_hyperparams(x, t, y, kind: str, search: SearchConfig | None = None,
                         warm_params: GpParams | None = None) -> GpParams:
    """Maximize the log marginal likelihood over kernel hyperparameters.

    Deterministic multi-start coordinate search over log parameters. A weak
    quadratic penalty anchored at the data-driven initialization keeps the
    search away from degenerate optima (collapsed lengthscales, near-singular
    task covariances) that marginal likelihood alone can prefer; the penalty
    vanishes at the initial configuration, so the returned configuration
    never scores below it. ``warm_params`` (typically the previous
    acquisition round's choice) is used as one additional restart; it must
    be of ``kind`` and, for cmgp, have ``search.n_components`` components.
    """
    search = search or SearchConfig()
    x, t, y = as_labeled(x, t, y)
    if y.size < 5:
        raise InputError(f"need at least 5 labeled points to optimize hyperparameters, got {y.size}")
    if kind not in _SEARCH_SPACES:
        raise InputError(f"unknown GP model kind {kind!r}")
    space = _SEARCH_SPACES[kind]
    dim = x.shape[1]
    theta0 = space.search_start(x, y - y.mean(), search.n_components)
    memo = _GramMemo(x, t)

    def objective(theta: np.ndarray) -> float:
        try:
            lml = log_marginal_likelihood(x, t, y, space.from_theta(theta, dim), memo)
        except (NumericalError, FloatingPointError):
            return -np.inf
        return lml - 0.5 * float(np.sum(((theta - theta0) / PRIOR_SD) ** 2))

    def climb(theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Coordinate ascent: try +step then -step on each coordinate in turn
        and keep the first move that raises the objective; halve the step
        after a sweep without a move. Stops at step < 1e-3 or after
        ``search.n_evals`` objective evaluations."""
        value, evals, step = objective(theta), 1, SEARCH_STEP
        while True:
            moved = False
            for i in range(theta.size):
                for sign in (1.0, -1.0):
                    if evals >= search.n_evals:
                        return value, theta
                    trial = theta.copy()
                    trial[i] += sign * step
                    trial_value = objective(trial)
                    evals += 1
                    if trial_value > value:
                        theta, value, moved = trial, trial_value, True
                        break
            if not moved:
                step *= 0.5
                if step < 1e-3:
                    return value, theta

    # structured restarts: heuristic lengthscales, then shorter / longer
    # scales (the main multimodality axis); a warm start from the previous
    # round leads.
    ls = space.lengthscale_coords(dim, search.n_components)
    short = theta0.copy()
    short[ls] -= np.log(3.0)
    long_ = theta0.copy()
    long_[ls] += np.log(3.0)
    inits = [theta0, short, long_]
    if warm_params is not None:
        if not isinstance(warm_params, space):
            raise InputError(f"the warm start must be {space.__name__}, got {type(warm_params).__name__}")
        warm = warm_params.to_theta()
        if warm.size != theta0.size:
            raise InputError(f"the warm start has {warm.size} search coordinates, the {kind} search {theta0.size}")
        inits.insert(0, warm)
    # n_restarts = 0 with a warm start means pure continuation of the
    # previous configuration
    n_starts = max(1, search.n_restarts + (warm_params is not None))
    candidates = [climb(theta) for theta in inits[:n_starts]]
    if not any(np.isfinite(v) for v, _ in candidates):
        raise NumericalError("every hyperparameter candidate failed to factorize")
    _, best_theta = max(candidates, key=lambda c: c[0])
    return space.from_theta(best_theta, dim)

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
from functools import cached_property, reduce

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .beliefs import CateModel, HeldMomentBundle
from .errors import InputError, NumericalError, as_arms, as_labeled
from .kernels import (
    CoregionalizationConfig,
    KernelConfig,
    cmgp_gram,
    kernel_gram,
    kernel_points,
    nsgp_gram,
    overlap_gram,
    overlap_parts,
    rows_per_block,
    scaled_gram,
)

JITTER_START = KernelConfig.jitter
JITTER_MAX = 1e-3
# query points per block of GpCateModel.tau_mean: a multiple of 16, as the
# matrix-vector product of a block then rounds each point as the whole one does
TAU_MEAN_COLUMNS = 256
MEMO_ENTRIES = 3            # base Grams a search keeps per kernel slot: the current
                            # one and both trial steps of a lengthscale coordinate

SEARCH_FAMILY = "matern52"  # kernel family the hyperparameter search fits
SEARCH_STEP = 0.6           # first coordinate step; halved after a sweep with no move
PRIOR_SD = 2.0              # sd of the weak anchor penalty per search coordinate
SEARCH_EVALS = 50           # objective evaluations of one climb
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
    def components(self) -> tuple[tuple[KernelConfig, CoregionalizationConfig], ...]:
        """The (kernel, coreg) pair of each coregionalized component."""
        first = ((self.kernel, self.coreg),)
        return first if self.kernel2 is None else first + ((self.kernel2, self.coreg2),)

    def gram(self, xa, ta, xb, tb) -> np.ndarray:
        """Prior covariance K((xa, ta), (xb, tb)), summed over components."""
        return reduce(lambda total, part: np.add(total, part, out=total),
                      (cmgp_gram(xa, ta, xb, tb, k, b) for k, b in self.components))

    def arm_grams(self, xa, ta, xb) -> tuple[np.ndarray, np.ndarray]:
        """K((xa, ta), (xb, 0)) and K((xa, ta), (xb, 1))."""
        return self.arm_gram_rows(xa, ta, xb)(slice(None))

    def arm_gram_rows(self, xa, ta, xb):
        """The function of a slice ``rows`` of xa that returns ``arm_grams``
        of (xa, ta)[rows] against xb: one base kernel per component scaled
        by the task covariance of each row's arm. The points are checked,
        and divided by each component's lengthscales, once for all slices."""
        ta = as_arms(ta)
        parts = []
        for kernel, coreg in self.components:
            xa, xb = kernel_points(xa, xb, kernel.input_dim)
            b, ls = coreg.task_covariance, kernel.lengthscales
            parts.append((xa / ls, xb / ls, kernel, b[ta, 0][:, None], b[ta, 1][:, None]))

        def grams(rows):
            total = None
            for sa, sb, kernel, scale0, scale1 in parts:
                base = scaled_gram(sa[rows], sb, kernel.family, kernel.signal_variance)
                pair = (scale0[rows] * base, np.multiply(base, scale1[rows], out=base))
                if total is None:
                    total = pair
                else:
                    for whole, part in zip(total, pair):
                        whole += part
            return total

        return grams

    def train_gram(self, memo: _GramMemo) -> np.ndarray:
        """Prior Gram of the memo's training points, written into the memo's
        buffer a row block at a time: each component's base from the memo
        times B[t, t'] (the rows of ``B[:, t]`` gathered by the block's arms),
        the second component added within the block. The products and the
        sum ``gram`` forms, so equal to it entry for entry."""
        (base, scale), *others = [
            (memo.base(slot, _kernel_key(kernel), kernel_gram, memo.x, memo.x, kernel),
             coreg.task_covariance[:, memo.t])
            for slot, (kernel, coreg) in enumerate(self.components)
        ]
        step = rows_per_block(memo.t.size)
        for start in range(0, memo.t.size, step):
            rows = slice(start, start + step)
            block, arms = memo.gram[rows], memo.t[rows]
            np.multiply(base[rows], scale[arms], out=block)
            for other, other_scale in others:
                block += other[rows] * other_scale[arms]
        return memo.gram

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
        # np.clip's bits without its overhead, and one exp of every
        # coordinate (the same bits as an exp of each log coordinate alone),
        # both read as Python floats
        theta = np.minimum(np.maximum(theta, -8.0), 8.0)
        coords, scales = theta.tolist(), np.exp(theta).tolist()
        components = []
        start = 0
        for _ in range((len(coords) - 1) // (dim + 3)):
            tri = start + dim + (start == 0)  # the shared noise follows the first lengthscales
            components += [
                KernelConfig.trusted(SEARCH_FAMILY, scales[start : start + dim], 1.0, scales[dim]),
                CoregionalizationConfig.from_cholesky(scales[tri], coords[tri + 1], scales[tri + 2]),
            ]
            start = tri + 3
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

    def gram(self, xa, ta, xb, tb) -> np.ndarray:
        """Prior covariance K((xa, ta), (xb, tb)) of the per-arm kernel."""
        return nsgp_gram(xa, ta, xb, tb, self.kernel0, self.kernel1, self.cross_rho)

    def arm_grams(self, xa, ta, xb) -> tuple[np.ndarray, np.ndarray]:
        """K((xa, ta), (xb, 0)) and K((xa, ta), (xb, 1))."""
        return self.arm_gram_rows(xa, ta, xb)(slice(None))

    def arm_gram_rows(self, xa, ta, xb):
        """The function of a slice ``rows`` of xa that returns ``arm_grams``
        of (xa, ta)[rows] against xb: the coupled overlap kernel everywhere,
        then each arm's own kernel on that arm's rows. The points are
        checked, the overlap's amplitude and mixed lengthscales found, and
        the points divided by each kernel's lengthscales, once for all
        slices."""
        amp, mix = overlap_parts(self.kernel0, self.kernel1)
        xa, xb = kernel_points(xa, xb, mix.size)
        ta = as_arms(ta)
        family = self.kernel0.family
        arms = [(ta == arm, xa / kernel.lengthscales, xb / kernel.lengthscales, kernel.signal_variance)
                for arm, kernel in enumerate((self.kernel0, self.kernel1))]
        xa_mix, xb_mix = xa / mix, xb / mix

        def grams(rows):
            cross = scaled_gram(xa_mix[rows], xb_mix, family, 1.0)
            np.multiply(cross, amp, out=cross)
            np.multiply(cross, self.cross_rho, out=cross)
            pair = (cross.copy(), cross)
            for gram, (is_arm, sa, sb, signal_variance) in zip(pair, arms):
                own = is_arm[rows]
                gram[own] = scaled_gram(sa[rows][own], sb, family, signal_variance)
            return pair

        return grams

    def train_gram(self, memo: _GramMemo) -> np.ndarray:
        """Prior Gram of the memo's training points, from arm blocks: k0 on
        control x control, k1 on treated x treated and the rho-scaled
        overlap on control x treated, mirrored into treated x control (the
        squared distances are exactly symmetric). The rows of one arm are
        assembled a block at a time in a cache-sized scratch, their control
        and treated columns from that arm's two blocks, and each block is
        copied to its rows of the memo's buffer: half the time of scattering
        every arm block over both axes at once. Equal to ``nsgp_gram`` entry
        for entry."""
        x0, x1 = memo.arm_x
        i0, i1 = memo.arm_rows
        key0, key1 = _kernel_key(self.kernel0), _kernel_key(self.kernel1)
        k0 = memo.base("k0", key0, kernel_gram, x0, x0, self.kernel0)
        k1 = memo.base("k1", key1, kernel_gram, x1, x1, self.kernel1)
        cross = self.cross_rho * memo.base("overlap", key0 + key1, overlap_gram, x0, x1, self.kernel0, self.kernel1)
        n = memo.t.size
        step = rows_per_block(n)
        scratch = np.empty((min(step, n), n))
        for arm_rows, to_control, to_treated in ((i0, k0, cross), (i1, cross.T, k1)):
            for start in range(0, arm_rows.size, step):
                rows = slice(start, start + step)
                block = scratch[: arm_rows[rows].size]
                block[:, i0] = to_control[rows]
                block[:, i1] = to_treated[rows]
                memo.gram[arm_rows[rows]] = block
        return memo.gram

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
        # decoded as CmgpParams.from_theta decodes: np.clip's bits and one exp
        # of every coordinate, read as Python floats
        theta = np.minimum(np.maximum(theta, -8.0), 8.0)
        scales = np.exp(theta).tolist()
        noise = scales[2 * d + 2]
        k0 = KernelConfig.trusted(SEARCH_FAMILY, scales[:d], scales[d], noise)
        k1 = KernelConfig.trusted(SEARCH_FAMILY, scales[d + 1 : 2 * d + 1], scales[2 * d + 1], noise)
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
    objective evaluations, and the one n x n buffer its evaluations work in.

    A coordinate step changes few hyperparameters, so most evaluations find
    every base they need. Each base is keyed by exactly the hyperparameters
    it depends on; a slot holds at most ``MEMO_ENTRIES`` of them and drops
    the least recently used first. Bases are read, never written.
    ``train_gram`` writes every entry of ``gram``, and an evaluation then
    factorizes it in place, so an evaluation is not reentrant: the buffer
    holds one evaluation's Gram and factor at a time. A search owns its
    memo and drops it when it returns.
    """

    def __init__(self, x: np.ndarray, t: np.ndarray):
        self.x = x
        self.t = t
        self.gram = np.empty((t.size, t.size))
        i0, i1 = np.flatnonzero(t == 0), np.flatnonzero(t == 1)
        self.arm_rows = (i0, i1)
        self.arm_x = (x[i0], x[i1])
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


def _starts_with(x, t, head_x, head_t) -> bool:
    """Whether the first rows of the points (x, t) are (head_x, head_t)."""
    n = head_t.size
    return n <= t.size and np.array_equal(x[:n], head_x) and np.array_equal(t[:n], head_t)


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

    @cached_property
    def _prior_point_cov(self) -> np.ndarray:
        """The 2x2 prior covariance of (f0(x), f1(x)); stationary, so the
        arm Grams at the origin, and free of x. Built on first use, read-only."""
        z = np.zeros((2, self.train_x.shape[1]))
        cov = np.hstack(self.params.arm_grams(z, [0, 1], z[:1]))
        cov.flags.writeable = False
        return cov

    # -- posterior queries ----------------------------------------------

    def latent_cov(self, xa, ta, xb, tb) -> np.ndarray:
        va = solve_triangular(self.L, self.params.gram(self.train_x, self.train_t, xa, ta), lower=True)
        vb = solve_triangular(self.L, self.params.gram(self.train_x, self.train_t, xb, tb), lower=True)
        return self.params.gram(xa, ta, xb, tb) - va.T @ vb

    def latent_var(self, x, t) -> np.ndarray:
        t = as_arms(t)
        v = solve_triangular(self.L, self.params.gram(self.train_x, self.train_t, x, t), lower=True)
        return np.maximum(self._prior_point_cov[t, t] - np.sum(v * v, axis=0), 0.0)

    def _arm_means(self, k0, k1):
        """Posterior means of f0 and f1 from the train cross-Grams of both arms."""
        return self.y_mean + k0.T @ self.alpha, self.y_mean + k1.T @ self.alpha

    def tau_mean(self, x) -> np.ndarray:
        """Evaluated ``TAU_MEAN_COLUMNS`` points at a time, so it holds two
        n x ``TAU_MEAN_COLUMNS`` cross-Grams, not two n x len(x); each point
        gets the bits of an evaluation of all of x at once."""
        x = _as_points(x)
        tau = np.empty(x.shape[0])
        for start in range(0, x.shape[0], TAU_MEAN_COLUMNS):
            cols = slice(start, start + TAU_MEAN_COLUMNS)
            mu0, mu1 = self._arm_means(*self.params.arm_grams(self.train_x, self.train_t, x[cols]))
            np.subtract(mu1, mu0, out=tau[cols])
        return tau

    def _contrast_moments(self, x):
        """Train cross-Grams at (x, 0) and (x, 1) for the 2-d points x and
        their solves, then Var f0, Var f1, Cov(f0, f1) and Var tau per row."""
        k0, k1 = self.params.arm_grams(self.train_x, self.train_t, x)
        v0 = solve_triangular(self.L, k0, lower=True)
        v1 = solve_triangular(self.L, k1, lower=True)
        prior = self._prior_point_cov
        f0_var = np.maximum(prior[0, 0] - np.sum(v0 * v0, axis=0), 0.0)
        f1_var = np.maximum(prior[1, 1] - np.sum(v1 * v1, axis=0), 0.0)
        f01_cov = prior[0, 1] - np.sum(v0 * v1, axis=0)
        tau_var = np.maximum(f0_var + f1_var - 2.0 * f01_cov, 0.0)
        return k0, k1, v0, v1, f0_var, f1_var, f01_cov, tau_var

    def tau_sd(self, x) -> np.ndarray:
        return np.sqrt(self._contrast_moments(_as_points(x))[-1])

    def tau_draws(self, x, k, rng: np.random.Generator) -> np.ndarray:
        k0, k1, *_, tau_var = self._contrast_moments(_as_points(x))
        mu0, mu1 = self._arm_means(k0, k1)
        sd = np.sqrt(tau_var)
        return rng.normal((mu1 - mu0)[:, None], sd[:, None], size=(sd.size, int(k)))

    def moment_bundle(self, cand_x, cand_t, target_x) -> HeldMomentBundle:
        cand_x, cand_t = as_labeled(cand_x, cand_t)  # the bundle keeps one arm per candidate
        target_x = _as_points(target_x)
        k0, k1, v0, v1, f0_var, f1_var, f01_cov, tau_var = self._contrast_moments(target_x)

        if np.array_equal(cand_x, target_x):
            # pool mode: each candidate's solve is the target column of its
            # own arm
            vc = np.where(cand_t == 1, v1, v0)
        else:
            vc = solve_triangular(self.L, self.params.gram(self.train_x, self.train_t, cand_x, cand_t), lower=True)
        f_var = self._prior_point_cov[cand_t, cand_t] - np.sum(vc * vc, axis=0)
        y_var = np.maximum(f_var, 0.0) + self.noise_variance

        # the products whole (row blocks of them round differently), then
        # the candidates' prior covariances less them, a row block at a time
        cy0 = vc.T @ v0
        cy1 = vc.T @ v1
        step = rows_per_block(target_x.shape[0])
        prior_rows = self.params.arm_gram_rows(cand_x, cand_t, target_x)
        for start in range(0, cand_t.size, step):
            rows = slice(start, start + step)
            p0, p1 = prior_rows(rows)
            np.subtract(p0, cy0[rows], out=cy0[rows])
            np.subtract(p1, cy1[rows], out=cy1[rows])
        return HeldMomentBundle(
            y_var=y_var, f0_var=f0_var, f1_var=f1_var,
            f01_cov=f01_cov, tau_var=tau_var, cy0=cy0, cy1=cy1, arms=cand_t,
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


class ContrastRows:
    """The contrast cross-Gram C = k1(X, x) - k0(X, x) of a GP's training
    points X against fixed evaluation points x, one row per training point,
    kept across the rounds of a cell whose prior stays fixed.

    Each model read adds only the rows of its training points past the held
    ones, when it has the held rows' ``params`` object and starts with their
    training points (else every row is built again), and its ``tau_mean``
    at x is then C^T alpha: the outcome mean cancels in the contrast. The
    rows live in one buffer of ``capacity`` rows, allocated once and written
    in place, a row block at a time.
    """

    def __init__(self, x, capacity: int):
        self.x = _as_points(x)
        self._rows = np.empty((capacity, self.x.shape[0]))
        self._held = None  # (params, train_x, train_t) of the rows written

    def tau_mean(self, model: GpCateModel) -> np.ndarray:
        """``model.tau_mean(self.x)``, equal up to rounding."""
        m = model.train_t.size
        if m > self._rows.shape[0]:
            raise InputError(f"{m} training points exceed the {self._rows.shape[0]} contrast rows held")
        start = 0
        if self._held is not None:
            params, x, t = self._held
            if params is model.params and _starts_with(model.train_x, model.train_t, x, t):
                start = t.size
        grams = model.params.arm_gram_rows(model.train_x[start:], model.train_t[start:], self.x)
        step = rows_per_block(self.x.shape[0])
        for block in range(0, m - start, step):
            k0, k1 = grams(slice(block, block + step))
            np.subtract(k1, k0, out=self._rows[start + block : start + block + k0.shape[0]])
        self._held = (model.params, model.train_x, model.train_t)
        return self._rows[:m].T @ model.alpha


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writeable strided view of the diagonal of the C-contiguous square ``a``."""
    return a.reshape(-1)[:: a.shape[0] + 1]


def _chol_with_escalating_jitter(a: np.ndarray, base_jitter: float, overwrite: bool = False):
    """Lower Cholesky of ``a`` with jitter escalation x10 up to JITTER_MAX;
    each try adds its jitter to the unjittered ``a``. Returns the factor and
    the jitter used.

    By default each try factorizes a fresh Fortran-ordered copy of ``a`` in
    place (the copy ``scipy.linalg.cholesky`` makes, so the factor has the
    same bits), and ``a`` is left untouched. With ``overwrite`` (the search's
    evaluations), ``a`` must be C-contiguous and exactly symmetric: its
    transpose is then the same matrix in Fortran order, and LAPACK
    factorizes that transpose in place. The returned factor is the
    transpose; its lower triangle is bitwise the default's factor, and its
    strict upper triangle still holds ``a``'s entries. A failed try leaves
    that triangle untouched (``clean=0``: scipy's wrapper zeroes it even
    when ``dpotrf`` fails), so the next try restores the factored triangle
    from it and the diagonal from a saved copy. After a ``NumericalError``
    ``a`` holds no useful values.
    """
    n = a.shape[0]
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"the {n}x{n} Gram matrix is not finite")
    jitter = max(base_jitter, JITTER_START)
    if overwrite:
        diag = a.diagonal().copy()
    while True:
        if overwrite:
            work = a.T
            np.add(diag, jitter, out=_diagonal(a))
        else:
            work = np.array(a, order="F")
            work.flat[:: n + 1] += jitter
        factor, info = dpotrf(work, lower=1, clean=int(not overwrite), overwrite_a=1)
        if info == 0:
            return factor, jitter
        if info < 0:
            raise ValueError(f"LAPACK dpotrf rejected its argument {-info}")
        jitter *= 10.0
        if jitter > JITTER_MAX:
            raise NumericalError(f"Cholesky failed for a {n}x{n} Gram matrix even at jitter {JITTER_MAX}")
        if overwrite:
            # the try overwrote a's upper triangle (the transpose's lower
            # one): restore it from a's untouched lower triangle
            rows, cols = np.tril_indices(n, -1)
            a[cols, rows] = a[rows, cols]


def _condition(x, t, y, params: GpParams, gram: np.ndarray) -> GpCateModel:
    """Posterior given validated training arrays and their prior Gram, to
    whose diagonal the noise is added in place."""
    gram.flat[:: y.size + 1] += params.noise_variance
    return _posterior(x, t, y, params, *_chol_with_escalating_jitter(gram, JITTER_START))


def _posterior(x, t, y, params: GpParams, L: np.ndarray, jitter_used: float) -> GpCateModel:
    """Posterior given validated training arrays and the Cholesky factor
    of their noisy Gram, jittered by ``jitter_used``."""
    y_mean = float(y.mean())
    alpha, _ = dpotrs(L, y - y_mean, lower=1)
    return GpCateModel(params, x, t, y, L, alpha, y_mean, jitter_used)


def _extend(last: GpCateModel, x, t, y) -> GpCateModel | None:
    """``last``'s posterior conditioned also on the rows of the validated
    (x, t, y) past its own, from its factor extended by those rows B (block
    Cholesky, GPML 2006 section A.3; Golub & Van Loan section 4.2): with X
    ``last``'s training points, L21^T = L^-1 K_XB and L22 = chol(K_BB +
    (noise + jitter) I - L21 L21^T) at ``last``'s jitter, then alpha by one
    ``dpotrs`` on the centred outcomes. None when L22 does not factorize.
    ``last``'s arrays are read, never written: the model gets a new factor.
    """
    params, n = last.params, last.train_t.size
    xb, tb = x[n:], t[n:]
    l21t = solve_triangular(last.L, params.gram(last.train_x, last.train_t, xb, tb), lower=True)
    schur = params.gram(xb, tb, xb, tb)
    schur.flat[:: tb.size + 1] += params.noise_variance + last.jitter_used
    schur -= l21t.T @ l21t
    l22, info = dpotrf(schur, lower=1, clean=1)
    if info != 0:
        return None
    L = np.zeros((t.size, t.size), order="F")
    L[:n, :n] = last.L
    L[n:, :n] = l21t.T
    L[n:, n:] = l22
    return _posterior(x, t, y, params, L, last.jitter_used)


def fit_gp(x, t, y, params: GpParams, last: GpCateModel | None = None) -> GpCateModel:
    """Condition the configured GP prior on labeled data.

    Requires at least two labeled points and finite outcomes. Raises
    :class:`NumericalError` if the Gram factorization fails at maximum jitter.
    The model keeps copies of the training arrays, so the caller may reuse
    its own.

    ``last``, a model of the same ``params`` object whose training points
    are the first rows of ``x`` and ``t`` (the last round's fit of a cell
    whose prior stays fixed), is extended by the rows past them at its
    jitter instead of refactorizing the whole Gram; the result equals a
    fresh fit up to rounding. When the new rows' block does not factorize
    at that jitter, or ``last`` does not qualify, the fit is built afresh.
    """
    x, t, y = as_labeled(x, t, y)
    if y.size < 2:
        raise InputError(f"need at least 2 labeled points to fit, got {y.size}")
    if (last is not None and last.params is params and last.train_t.size < y.size
            and _starts_with(x, t, last.train_x, last.train_t)):
        model = _extend(last, x, t, y)
        if model is not None:
            return model
    return _condition(x, t, y, params, params.gram(x, t, x, t))


# -- hyperparameter search -----------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Derivative-free multi-start coordinate search settings."""

    n_components: int = 1      # coregionalized components for the cmgp search

    def __post_init__(self):
        if self.n_components not in _COMPONENT_SPREADS:
            raise InputError(f"n_components must be one of {tuple(_COMPONENT_SPREADS)}, got {self.n_components}")


def log_marginal_likelihood(x, t, y, params: GpParams, memo: _GramMemo | None = None) -> float:
    """log p(y | X, theta) = -1/2 y^T alpha - sum log L_ii - n/2 log 2 pi.

    The training Gram is built into the memo's buffer from the base Grams
    the memo holds, the noise is added on its diagonal, and the buffer is
    factorized in place, with no model built; the factor has the bits of
    ``fit_gp``'s. A search passes its memo, built from the already
    validated ``x``, ``t`` (and ``y``); without one the arrays are checked
    as ``fit_gp`` checks them and a memo is built for this one evaluation.
    Two evaluations must not share a memo at the same time.
    """
    if memo is None:
        x, t, y = as_labeled(x, t, y)
        if y.size < 2:
            raise InputError(f"need at least 2 labeled points, got {y.size}")
        memo = _GramMemo(x, t)
    elif x is not memo.x or t is not memo.t:
        raise InputError("the Gram memo was built for other training points")
    gram = params.train_gram(memo)
    _diagonal(gram)[:] += params.noise_variance
    factor, _ = _chol_with_escalating_jitter(gram, JITTER_START, overwrite=True)
    yc = y - float(y.mean())
    alpha, _ = dpotrs(factor, yc, lower=1)
    return float(
        -0.5 * yc @ alpha - np.sum(np.log(np.diag(factor))) - 0.5 * yc.size * np.log(2.0 * np.pi)
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
    acquisition round's choice) is climbed first, then the three structured
    starts, ``SEARCH_EVALS`` evaluations each; it must be of ``kind`` and,
    for cmgp, have ``search.n_components`` components.
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
        ``SEARCH_EVALS`` objective evaluations."""
        value, evals, step = objective(theta), 1, SEARCH_STEP
        while True:
            moved = False
            for i in range(theta.size):
                for sign in (1.0, -1.0):
                    if evals >= SEARCH_EVALS:
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
    candidates = [climb(theta) for theta in inits]
    if not any(np.isfinite(v) for v, _ in candidates):
        raise NumericalError("every hyperparameter candidate failed to factorize")
    _, best_theta = max(candidates, key=lambda c: c[0])
    return space.from_theta(best_theta, dim)

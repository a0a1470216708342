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

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .beliefs import CateModel, MomentBundle
from .errors import InputError, NumericalError
from .kernels import (
    CoregionalizationConfig,
    KernelConfig,
    cmgp_gram,
    nsgp_gram,
    overlap_amplitude,
)

JITTER_START = 1e-8
JITTER_MAX = 1e-3


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

    def gram(self, xa, ta, xb, tb) -> np.ndarray:
        """Prior covariance K((xa, ta), (xb, tb)), summed over components."""
        gram = cmgp_gram(xa, ta, xb, tb, self.kernel, self.coreg)
        if self.kernel2 is not None:
            gram = gram + cmgp_gram(xa, ta, xb, tb, self.kernel2, self.coreg2)
        return gram

    def prior_diag(self, t: np.ndarray) -> np.ndarray:
        """Prior Var[f_t(x)] per treatment; stationary, so free of x."""
        t = np.asarray(t)
        b = self.coreg.task_covariance
        out = np.where(t == 0, b[0, 0], b[1, 1]) * self.kernel.signal_variance
        if self.kernel2 is not None:
            b2 = self.coreg2.task_covariance
            out = out + np.where(t == 0, b2[0, 0], b2[1, 1]) * self.kernel2.signal_variance
        return out

    def cross_diag(self, n: int) -> np.ndarray:
        """Prior Cov[f0(x), f1(x)] at n identical-covariate pairs."""
        out = self.coreg.task_covariance[0, 1] * self.kernel.signal_variance
        if self.kernel2 is not None:
            out = out + self.coreg2.task_covariance[0, 1] * self.kernel2.signal_variance
        return np.full(n, out)


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

    def prior_diag(self, t: np.ndarray) -> np.ndarray:
        """Prior Var[f_t(x)] per treatment; stationary, so free of x."""
        return np.where(np.asarray(t) == 0, self.kernel0.signal_variance, self.kernel1.signal_variance)

    def cross_diag(self, n: int) -> np.ndarray:
        """Prior Cov[f0(x), f1(x)] at n identical-covariate pairs: rho times
        the overlap kernel at r = 0."""
        return np.full(n, self.cross_rho * overlap_amplitude(self.kernel0, self.kernel1))


GpParams = CmgpParams | NsgpParams


def _as_training_arrays(x, t, y):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=int).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape[0] != t.size or t.size != y.size:
        raise InputError(f"inconsistent training sizes: x {x.shape}, t {t.shape}, y {y.shape}")
    if np.any((t != 0) & (t != 1)):
        raise InputError("treatments must be 0 or 1")
    if not np.all(np.isfinite(y)):
        raise InputError("outcomes must be finite")
    if not np.all(np.isfinite(x)):
        raise InputError("covariates must be finite")
    return x, t, y


class GpCateModel(CateModel):
    """Fitted GP posterior over the two potential-outcome surfaces.

    Stores the Cholesky factor of (K + noise * I) and the weight vector
    alpha = (K + noise * I)^-1 (y - mean). Immutable after construction;
    all predictive queries are read-only.
    """

    def __init__(self, params: GpParams, x, t, y, L, alpha, y_mean, jitter_used):
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

    def prior_gram(self, xa, ta, xb, tb) -> np.ndarray:
        ta = np.asarray(ta, dtype=int).reshape(-1)
        tb = np.asarray(tb, dtype=int).reshape(-1)
        return self.params.gram(xa, ta, xb, tb)

    def _solve_train(self, xq, tq) -> np.ndarray:
        """L^-1 K(train, query); the workhorse of every posterior reduction."""
        k = self.prior_gram(self.train_x, self.train_t, xq, tq)
        return solve_triangular(self.L, k, lower=True)

    # -- posterior queries ----------------------------------------------

    def latent_mean(self, xq, tq) -> np.ndarray:
        k = self.prior_gram(self.train_x, self.train_t, xq, tq)
        return self.y_mean + k.T @ self.alpha

    def latent_cov(self, xa, ta, xb, tb) -> np.ndarray:
        prior = self.prior_gram(xa, ta, xb, tb)
        va = self._solve_train(xa, ta)
        vb = self._solve_train(xb, tb)
        return prior - va.T @ vb

    def latent_var(self, x, t) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.asarray(t, dtype=int).reshape(-1)
        v = self._solve_train(x, t)
        return np.maximum(self.params.prior_diag(t) - np.sum(v * v, axis=0), 0.0)

    def _target_means(self, target_x):
        target_x = np.atleast_2d(np.asarray(target_x, dtype=float))
        m = target_x.shape[0]
        mu0 = self.latent_mean(target_x, np.zeros(m, dtype=int))
        mu1 = self.latent_mean(target_x, np.ones(m, dtype=int))
        return mu0, mu1

    def tau_mean(self, x) -> np.ndarray:
        mu0, mu1 = self._target_means(x)
        return mu1 - mu0

    def _contrast_moments(self, x):
        """Train solves at (x, 0) and (x, 1), then Var f0, Var f1, Cov(f0, f1)
        and Var tau per row of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m = x.shape[0]
        z = np.zeros(m, dtype=int)
        o = np.ones(m, dtype=int)
        v0 = self._solve_train(x, z)
        v1 = self._solve_train(x, o)
        f0_var = np.maximum(self.params.prior_diag(z) - np.sum(v0 * v0, axis=0), 0.0)
        f1_var = np.maximum(self.params.prior_diag(o) - np.sum(v1 * v1, axis=0), 0.0)
        f01_cov = self.params.cross_diag(m) - np.sum(v0 * v1, axis=0)
        tau_var = np.maximum(f0_var + f1_var - 2.0 * f01_cov, 0.0)
        return v0, v1, f0_var, f1_var, f01_cov, tau_var

    def tau_sd(self, x) -> np.ndarray:
        return np.sqrt(self._contrast_moments(x)[-1])

    def tau_draws(self, x, k, rng: np.random.Generator) -> np.ndarray:
        tau_var = self._contrast_moments(x)[-1]
        return rng.normal(self.tau_mean(x)[0], np.sqrt(tau_var[0]), size=int(k))

    def moment_bundle(self, cand_x, cand_t, target_x) -> MomentBundle:
        cand_x = np.atleast_2d(np.asarray(cand_x, dtype=float))
        cand_t = np.asarray(cand_t, dtype=int).reshape(-1)
        target_x = np.atleast_2d(np.asarray(target_x, dtype=float))
        v0, v1, f0_var, f1_var, f01_cov, tau_var = self._contrast_moments(target_x)

        kc = self.prior_gram(self.train_x, self.train_t, cand_x, cand_t)
        vc = solve_triangular(self.L, kc, lower=True)
        y_mean = self.y_mean + kc.T @ self.alpha
        f_var = self.params.prior_diag(cand_t) - np.sum(vc * vc, axis=0)
        y_var = np.maximum(f_var, 0.0) + self.noise_variance

        m = target_x.shape[0]
        cy0 = self.prior_gram(cand_x, cand_t, target_x, np.zeros(m, dtype=int)) - vc.T @ v0
        cy1 = self.prior_gram(cand_x, cand_t, target_x, np.ones(m, dtype=int)) - vc.T @ v1
        return MomentBundle(
            y_mean=y_mean, y_var=y_var, f0_var=f0_var, f1_var=f1_var,
            f01_cov=f01_cov, tau_var=tau_var, cy0=cy0, cy1=cy1,
        )

    def _po_blocks(self, target_x):
        target_x = np.atleast_2d(np.asarray(target_x, dtype=float))
        m = target_x.shape[0]
        z = np.zeros(m, dtype=int)
        o = np.ones(m, dtype=int)
        v0 = self._solve_train(target_x, z)
        v1 = self._solve_train(target_x, o)
        p00 = self.prior_gram(target_x, z, target_x, z) - v0.T @ v0
        p11 = self.prior_gram(target_x, o, target_x, o) - v1.T @ v1
        p01 = self.prior_gram(target_x, z, target_x, o) - v0.T @ v1
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
    """Lower Cholesky of ``a`` with jitter escalation x10 up to JITTER_MAX."""
    jitter = max(base_jitter, JITTER_START)
    eye = np.eye(a.shape[0])
    while True:
        try:
            return cholesky(a + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            pass
        except ValueError:
            pass
        jitter *= 10.0
        if jitter > JITTER_MAX:
            raise NumericalError(
                f"Cholesky failed for a {a.shape[0]}x{a.shape[0]} Gram matrix even at jitter {JITTER_MAX}"
            )


def fit_gp(x, t, y, params: GpParams) -> GpCateModel:
    """Condition the configured GP prior on labeled data.

    Requires at least two labeled points and finite outcomes. Raises
    :class:`NumericalError` if the Gram factorization fails at maximum jitter.
    """
    x, t, y = _as_training_arrays(x, t, y)
    if y.size < 2:
        raise InputError(f"need at least 2 labeled points to fit, got {y.size}")
    y_mean = float(y.mean())
    yc = y - y_mean

    noisy = params.gram(x, t, x, t) + params.noise_variance * np.eye(y.size)
    L, jitter_used = _chol_with_escalating_jitter(noisy, params.jitter)
    alpha = cho_solve((L, True), yc)
    return GpCateModel(params, x, t, y, L, alpha, y_mean, jitter_used)


# -- hyperparameter search -----------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Derivative-free multi-start coordinate search settings."""

    n_restarts: int = 3
    n_evals: int = 50
    seed: int = 0
    family: str | None = None  # None = matern52 for either model kind
    step: float = 0.6
    prior_scale: float = 2.0   # sd of the weak anchor penalty per coordinate
    n_components: int = 1      # coregionalized components for the cmgp search


def log_marginal_likelihood(x, t, y, params: GpParams) -> float:
    """log p(y | X, theta) = -1/2 y^T alpha - sum log L_ii - n/2 log 2 pi."""
    model = fit_gp(x, t, y, params)
    yc = model.train_y - model.y_mean
    n = yc.size
    return float(
        -0.5 * yc @ model.alpha - np.sum(np.log(np.diag(model.L))) - 0.5 * n * np.log(2.0 * np.pi)
    )


class _ThetaCodec:
    """Maps between search vectors (log scale) and model parameter objects."""

    def __init__(self, kind: str, dim: int, family: str, n_components: int = 1):
        self.kind = kind
        self.dim = dim
        self.family = family
        self.n_components = n_components if kind == "cmgp" else 1
        # cmgp: [log l1_1..d, log noise, log b11, b21, log b22]
        #       (+ [log l2_1..d, log c11, c21, log c22] with a second component)
        # nsgp: [log l0_1..d, log sv0, log l1_1..d, log sv1, log noise, rho_raw]
        if kind == "cmgp":
            self.size = dim + 4 + (dim + 3) * (self.n_components - 1)
            ls = [np.arange(dim)]
            if self.n_components == 2:
                ls.append(dim + 4 + np.arange(dim))
            self.lengthscale_indices = np.concatenate(ls)
        else:
            self.size = 2 * dim + 4
            self.lengthscale_indices = np.concatenate([np.arange(dim), dim + 1 + np.arange(dim)])

    def initial(self, x: np.ndarray, yc: np.ndarray) -> np.ndarray:
        col_sd = np.std(x, axis=0)
        ls = np.where(col_sd > 1e-8, col_sd, 1.0)
        y_var = max(float(np.var(yc)), 1e-4)
        noise = 0.1 * y_var
        if self.kind == "cmgp":
            if self.n_components == 1:
                sd = np.sqrt(y_var)
                return np.concatenate([np.log(ls), [np.log(noise), np.log(sd), 0.0, np.log(sd)]])
            sd = np.sqrt(0.5 * y_var)
            # two components start on opposite sides of the data scale so the
            # search can keep a short- and a long-range term
            return np.concatenate([
                np.log(ls / 2.0), [np.log(noise), np.log(sd), 0.0, np.log(sd)],
                np.log(ls * 2.0), [np.log(sd), 0.0, np.log(sd)],
            ])
        return np.concatenate(
            [np.log(ls), [np.log(y_var)], np.log(ls), [np.log(y_var), np.log(noise), np.arctanh(0.3 / 0.95)]]
        )

    def encode(self, params: GpParams) -> np.ndarray:
        if self.kind == "cmgp":
            if not isinstance(params, CmgpParams):
                raise InputError("expected cmgp parameters")

            def chol_coords(coreg):
                low = np.linalg.cholesky(coreg.task_covariance + 1e-12 * np.eye(2))
                return [np.log(low[0, 0]), low[1, 0], np.log(low[1, 1])]

            head = [
                np.log(params.kernel.lengthscales),
                [np.log(params.kernel.noise_variance)], chol_coords(params.coreg),
            ]
            if self.n_components == 1:
                return np.concatenate(head)
            if params.kernel2 is None:
                # promote to the two-component space with a negligible tail
                second = [np.log(params.kernel.lengthscales * 4.0), [-6.0, 0.0, -6.0]]
            else:
                second = [np.log(params.kernel2.lengthscales), chol_coords(params.coreg2)]
            return np.concatenate([*head, *second])
        if not isinstance(params, NsgpParams):
            raise InputError("expected nsgp parameters")
        rho_raw = np.arctanh(np.clip(params.cross_rho / 0.95, -0.999999, 0.999999))
        return np.concatenate([
            np.log(params.kernel0.lengthscales), [np.log(params.kernel0.signal_variance)],
            np.log(params.kernel1.lengthscales), [np.log(params.kernel1.signal_variance)],
            [np.log(params.kernel0.noise_variance), rho_raw],
        ])

    def decode(self, theta: np.ndarray) -> GpParams:
        d = self.dim
        theta = np.clip(theta, -8.0, 8.0)
        if self.kind == "cmgp":
            noise = float(np.exp(theta[d]))
            kernel = KernelConfig(
                family=self.family, lengthscales=np.exp(theta[:d]),
                signal_variance=1.0, noise_variance=noise,
            )
            coreg = CoregionalizationConfig.from_cholesky(
                float(np.exp(theta[d + 1])), float(theta[d + 2]), float(np.exp(theta[d + 3]))
            )
            if self.n_components == 1:
                return CmgpParams(kernel=kernel, coreg=coreg)
            kernel2 = KernelConfig(
                family=self.family, lengthscales=np.exp(theta[d + 4 : 2 * d + 4]),
                signal_variance=1.0, noise_variance=noise,
            )
            coreg2 = CoregionalizationConfig.from_cholesky(
                float(np.exp(theta[2 * d + 4])), float(theta[2 * d + 5]), float(np.exp(theta[2 * d + 6]))
            )
            return CmgpParams(kernel=kernel, coreg=coreg, kernel2=kernel2, coreg2=coreg2)
        noise = float(np.exp(theta[2 * d + 2]))
        k0 = KernelConfig(
            family=self.family,
            lengthscales=np.exp(theta[:d]),
            signal_variance=float(np.exp(theta[d])),
            noise_variance=noise,
        )
        k1 = KernelConfig(
            family=self.family,
            lengthscales=np.exp(theta[d + 1 : 2 * d + 1]),
            signal_variance=float(np.exp(theta[2 * d + 1])),
            noise_variance=noise,
        )
        rho = float(0.95 * np.tanh(theta[2 * d + 3]))
        return NsgpParams(kernel0=k0, kernel1=k1, cross_rho=rho)


def optimize_hyperparams(x, t, y, kind: str, search: SearchConfig | None = None,
                         warm_params: GpParams | None = None) -> GpParams:
    """Maximize the log marginal likelihood over kernel hyperparameters.

    Multi-start coordinate search over log parameters; deterministic given
    ``search.seed``. A weak quadratic penalty anchored at the data-driven
    initialization keeps the search away from degenerate optima (collapsed
    lengthscales, near-singular task covariances) that marginal likelihood
    alone can prefer; the penalty vanishes at the initial configuration, so
    the returned configuration never scores below it. ``warm_params``
    (typically the previous acquisition round's choice) is used as one
    additional restart.
    """
    search = search or SearchConfig()
    x, t, y = _as_training_arrays(x, t, y)
    if y.size < 5:
        raise InputError(f"need at least 5 labeled points to optimize hyperparameters, got {y.size}")
    if kind not in ("cmgp", "nsgp"):
        raise InputError(f"unknown GP model kind {kind!r}")
    family = search.family or "matern52"
    codec = _ThetaCodec(kind, x.shape[1], family, n_components=search.n_components)
    yc = y - y.mean()
    rng = np.random.default_rng(search.seed)
    theta0 = codec.initial(x, yc)

    def objective(theta: np.ndarray) -> float:
        try:
            lml = log_marginal_likelihood(x, t, y, codec.decode(theta))
        except (NumericalError, FloatingPointError):
            return -np.inf
        return lml - 0.5 * float(np.sum(((theta - theta0) / search.prior_scale) ** 2))

    # structured restarts: heuristic lengthscales, then shorter / longer
    # scales (the main multimodality axis), then rng perturbations if more
    # restarts are requested; a warm start from the previous round leads.
    short = theta0.copy()
    short[codec.lengthscale_indices] -= np.log(3.0)
    long_ = theta0.copy()
    long_[codec.lengthscale_indices] += np.log(3.0)
    inits = [theta0, short, long_]
    if warm_params is not None:
        inits.insert(0, codec.encode(warm_params))
    # n_restarts = 0 with a warm start means pure continuation of the
    # previous configuration
    n_starts = max(1, search.n_restarts) if warm_params is None else max(1, search.n_restarts + 1)
    candidates = []
    for restart in range(n_starts):
        if restart < len(inits):
            theta = inits[restart].copy()
        else:
            theta = theta0 + rng.normal(scale=0.5, size=theta0.size)
        cur_val = objective(theta)
        evals = 1
        steps = np.full(theta.size, search.step)
        while evals < search.n_evals:
            improved = False
            for i in range(theta.size):
                if evals >= search.n_evals:
                    break
                for sign in (1.0, -1.0):
                    trial = theta.copy()
                    trial[i] += sign * steps[i]
                    val = objective(trial)
                    evals += 1
                    if val > cur_val:
                        theta, cur_val = trial, val
                        improved = True
                        break
                    if evals >= search.n_evals:
                        break
            if not improved:
                steps *= 0.5
                if np.all(steps < 1e-3):
                    break
        candidates.append((cur_val, theta))

    if not any(np.isfinite(v) for v, _ in candidates):
        raise NumericalError("every hyperparameter candidate failed to factorize")
    _, best_theta = max(candidates, key=lambda c: c[0])
    return codec.decode(best_theta)

import os
import subprocess
import sys

import numpy as np
import pytest

from cate_al.beliefs import CateModel, HeldMomentBundle
from cate_al.blas import openblas_thread_controls
from cate_al.gp import CmgpParams, NsgpParams, fit_gp
from cate_al.kernels import CoregionalizationConfig, KernelConfig, cmgp_gram

from oracles import three_gram_nsgp_gram


def pytest_report_header(config):
    """The BLAS thread counts the wall-clock tests run with, outside a cell."""
    controls = openblas_thread_controls()
    if not controls:
        return "blas: no OpenBLAS with a thread setter found"
    return [f"blas: {label}, {get()} thread(s)" for label, get, _ in controls]


def stdout_at_default_and_one_blas_thread(code: str) -> list[str]:
    """Standard output of ``python -c code``, with ``src`` and ``tests`` on
    the path, run once with the BLAS thread variables unset and once with
    ``OPENBLAS_NUM_THREADS=1``."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests_dir), "src")
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests_dir, os.environ.get("PYTHONPATH")]))
    return [
        subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                       timeout=300).stdout
        for env in (base, {**base, "OPENBLAS_NUM_THREADS": "1"})
    ]


def brute_force_conditioning(params, train_x, train_t, train_y, query_x, query_t, noise_var):
    """Naive joint-GP conditioning on the stacked Gram matrix.

    Independent oracle: builds the full prior over train + query points and
    conditions with a dense solve, no Cholesky reuse, no centering tricks
    beyond the train-mean shift.
    """
    train_x = np.atleast_2d(train_x)
    query_x = np.atleast_2d(query_x)
    if isinstance(params, CmgpParams):
        def gram(xa, ta, xb, tb):
            return sum(cmgp_gram(xa, ta, xb, tb, k, b) for k, b in params.components)
    else:
        def gram(xa, ta, xb, tb):
            return three_gram_nsgp_gram(xa, ta, xb, tb, params.kernel0, params.kernel1, params.cross_rho)

    k_tt = gram(train_x, train_t, train_x, train_t) + noise_var * np.eye(len(train_t))
    k_tq = gram(train_x, train_t, query_x, query_t)
    k_qq = gram(query_x, query_t, query_x, query_t)
    yc = np.asarray(train_y, dtype=float) - np.mean(train_y)
    solve = np.linalg.solve(k_tt, np.column_stack([yc[:, None], k_tq]))
    mean = np.mean(train_y) + k_tq.T @ solve[:, 0]
    cov = k_qq - k_tq.T @ solve[:, 1:]
    return mean, 0.5 * (cov + cov.T)


def random_cmgp_params(rng, dim=1, family="rbf"):
    b11 = rng.uniform(0.3, 2.0)
    b22 = rng.uniform(0.3, 2.0)
    b12 = rng.uniform(-0.9, 0.9) * np.sqrt(b11 * b22)
    return CmgpParams(
        kernel=KernelConfig(
            family=family,
            lengthscales=rng.uniform(0.3, 2.5, dim),
            signal_variance=1.0,
            noise_variance=rng.uniform(0.05, 0.8),
        ),
        coreg=CoregionalizationConfig(task_covariance=np.array([[b11, b12], [b12, b22]])),
    )


def two_component_cmgp(rng, dim=1, family="rbf"):
    first, second = random_cmgp_params(rng, dim, family), random_cmgp_params(rng, dim, family)
    return CmgpParams(kernel=first.kernel, coreg=first.coreg, kernel2=second.kernel, coreg2=second.coreg)


def random_nsgp_params(rng, dim=1, family="matern52"):
    noise = rng.uniform(0.05, 0.8)
    return NsgpParams(
        kernel0=KernelConfig(family=family, lengthscales=rng.uniform(0.3, 2.5, dim),
                             signal_variance=rng.uniform(0.3, 2.0), noise_variance=noise),
        kernel1=KernelConfig(family=family, lengthscales=rng.uniform(0.3, 2.5, dim),
                             signal_variance=rng.uniform(0.3, 2.0), noise_variance=noise),
        cross_rho=rng.uniform(-0.9, 0.9),
    )


RANDOM_PARAMS = {"cmgp": random_cmgp_params, "cmgp2": two_component_cmgp, "nsgp": random_nsgp_params}


def random_fitted_gp(rng, n=8, dim=1, kind="cmgp"):
    """A GP of the given kind ("cmgp2" is the two-component cmgp the loop
    fits) on n random points, with random parameters."""
    x = rng.normal(size=(n, dim))
    t = rng.integers(0, 2, n)
    if not (t == 0).any():
        t[0] = 0
    if not (t == 1).any():
        t[-1] = 1
    y = rng.normal(size=n)
    return fit_gp(x, t, y, RANDOM_PARAMS[kind](rng, dim))


def assert_bundles_close(got, want, rel=1e-10):
    """Every field of the held bundle ``got`` within ``rel`` of the largest
    entry of the same field of ``want``."""
    assert got.shape == want.shape
    for name in ("y_var", "f0_var", "f1_var", "f01_cov", "tau_var", "cy0", "cy1"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= rel * np.abs(b).max(), name


class StubModel(CateModel):
    """Hand-specified predictive moments for formula-level acquisition tests.

    Covers a single candidate against fixed targets; latent queries fall back
    to the prescribed variances with zero cross terms unless given.
    """

    def __init__(self, y_var, f0_var, f1_var, f01_cov, cy0, cy1, noise=1.0, tau_mean_value=0.0):
        self._y_var = np.atleast_1d(np.asarray(y_var, dtype=float))
        self._f0 = np.asarray(f0_var, dtype=float)
        self._f1 = np.asarray(f1_var, dtype=float)
        self._f01 = np.asarray(f01_cov, dtype=float)
        self._cy0 = np.atleast_2d(np.asarray(cy0, dtype=float))
        self._cy1 = np.atleast_2d(np.asarray(cy1, dtype=float))
        self._noise = float(noise)
        self._tau_mean = float(tau_mean_value)

    @property
    def noise_variance(self):
        return self._noise

    def tau_mean(self, x):
        return np.full(np.atleast_2d(x).shape[0], self._tau_mean)

    def tau_sd(self, x):
        v = self._f0 + self._f1 - 2.0 * self._f01
        return np.sqrt(np.maximum(v[: np.atleast_2d(x).shape[0]], 0.0))

    def tau_draws(self, x, k, rng):
        sd = self.tau_sd(x)
        return rng.normal(self._tau_mean, sd[:, None], size=(sd.size, k))

    def moment_bundle(self, cand_x, cand_t, target_x):
        n_c = np.atleast_2d(cand_x).shape[0]
        return HeldMomentBundle(
            y_var=np.broadcast_to(self._y_var, (n_c,)).copy(),
            f0_var=self._f0,
            f1_var=self._f1,
            f01_cov=self._f01,
            tau_var=self._f0 + self._f1 - 2.0 * self._f01,
            cy0=np.broadcast_to(self._cy0, (n_c, self._f0.size)).copy(),
            cy1=np.broadcast_to(self._cy1, (n_c, self._f1.size)).copy(),
        )

    def tau_joint_cov(self, target_x):
        return np.diag(self._f0 + self._f1 - 2.0 * self._f01)

    def po_joint_cov(self, target_x):
        m = self._f0.size
        cov = np.zeros((2 * m, 2 * m))
        cov[0::2, 0::2] = np.diag(self._f0)
        cov[1::2, 1::2] = np.diag(self._f1)
        cov[0::2, 1::2] = np.diag(self._f01)
        cov[1::2, 0::2] = np.diag(self._f01)
        return cov

    def latent_cov(self, xa, ta, xb, tb):
        return np.zeros((np.atleast_2d(xa).shape[0], np.atleast_2d(xb).shape[0]))

    def latent_var(self, x, t):
        return np.broadcast_to(self._y_var - self._noise, (np.atleast_2d(x).shape[0],)).copy()


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at two threads for the test, then as it was; yields a
    function that reads their counts."""
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS with a thread setter is loaded")
    saved = [get() for _, get, _ in controls]
    for _, _, set_ in controls:
        set_(2)
    yield lambda: [get() for _, get, _ in controls]
    for (_, _, set_), count in zip(controls, saved):
        set_(count)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

import dataclasses

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from cate_al import gp, kernels
from cate_al.errors import InputError
from cate_al.kernels import CoregionalizationConfig, KernelConfig, cmgp_gram, kernel_gram, nsgp_gram

from oracles import three_gram_nsgp_gram


def cfg(family="rbf", ls=(1.0,), sv=1.0):
    return KernelConfig(family=family, lengthscales=np.asarray(ls), signal_variance=sv, noise_variance=0.1)


def k(x1, x2, c):
    """One entry of the stationary Gram."""
    return float(kernel_gram(np.atleast_1d(x1)[None, :], np.atleast_1d(x2)[None, :], c)[0, 0])


def cmgp(p1, p2, c, coreg):
    (x1, t1), (x2, t2) = p1, p2
    return float(cmgp_gram(np.atleast_2d(x1), [t1], np.atleast_2d(x2), [t2], c, coreg)[0, 0])


def nsgp(p1, p2, k0, k1, rho):
    (x1, t1), (x2, t2) = p1, p2
    return float(nsgp_gram(np.atleast_2d(x1), [t1], np.atleast_2d(x2), [t2], k0, k1, rho)[0, 0])


class TestRbf:
    def test_zero_distance_returns_signal_variance(self):
        c = cfg(sv=2.0)
        assert k([0.7], [0.7], c) == 2.0

    def test_unit_gap_value(self):
        # direct evaluation of the exponential form
        expected = np.exp(-0.5)
        assert k([0.0], [1.0], cfg()) == pytest.approx(expected, abs=1e-12)

    def test_symmetry(self, rng):
        c = cfg(ls=(0.7, 1.3))
        for _ in range(10):
            a, b = rng.normal(size=2 * 2).reshape(2, 2)
            assert k(a, b, c) == k(b, a, c)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_gram([[0.0, 1.0]], [[0.0, 1.0]], cfg())


class TestMatern52:
    def test_zero_distance(self):
        c = cfg(family="matern52", sv=3.5)
        assert k([0.2], [0.2], c) == pytest.approx(3.5)

    def test_unit_gap_value(self):
        expected = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))
        got = k([0.0], [1.0], cfg(family="matern52"))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_decrease_in_distance(self):
        c = cfg(family="matern52")
        vals = [k([0.0], [d], c) for d in (0.3, 1.1, 2.4)]
        assert vals[0] > vals[1] > vals[2]


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [{"lengthscales": [0.0]}, {"signal_variance": -1.0},
                                     {"noise_variance": 0.0}, {"family": "cubic"}])
    def test_invalid_configs_rejected(self, bad):
        base = dict(family="rbf", lengthscales=[1.0], signal_variance=1.0, noise_variance=0.1)
        base.update(bad)
        with pytest.raises(InputError):
            KernelConfig(**base)

    def test_jitter_is_a_constant_not_a_setting(self):
        assert "jitter" not in {f.name for f in dataclasses.fields(KernelConfig)}
        assert KernelConfig.jitter == gp.JITTER_START == 1e-8
        with pytest.raises(TypeError):
            KernelConfig(jitter=1e-6)

    def test_coregionalization_must_be_psd_symmetric(self):
        with pytest.raises(InputError):
            CoregionalizationConfig(task_covariance=np.array([[1.0, 0.2], [0.4, 1.0]]))
        with pytest.raises(InputError):
            CoregionalizationConfig(task_covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cholesky_parameterization_is_psd(self, rng):
        for _ in range(50):
            entries = rng.normal(size=3)
            c = CoregionalizationConfig.from_cholesky(*entries)
            assert np.linalg.eigvalsh(c.task_covariance).min() >= -1e-12
            # the same matrix as the fully validated constructor gives
            low = np.array([[entries[0], 0.0], [entries[1], entries[2]]])
            validated = CoregionalizationConfig(task_covariance=low @ low.T)
            np.testing.assert_array_equal(c.task_covariance, validated.task_covariance)
        with pytest.raises(InputError):
            CoregionalizationConfig.from_cholesky(1.0, np.inf, 1.0)


class TestCoregionalizedKernel:
    def test_identity_tasks_decouple_arms(self, rng):
        c = cfg()
        eye = CoregionalizationConfig(task_covariance=np.eye(2))
        for _ in range(5):
            a, b = rng.normal(size=2)
            assert cmgp(([a], 0), ([b], 1), c, eye) == 0.0

    def test_cross_task_value_at_shared_point(self):
        c = cfg()
        coreg = CoregionalizationConfig(task_covariance=np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert cmgp(([0.3], 0), ([0.3], 1), c, coreg) == pytest.approx(0.5)

    def test_gram_psd_on_random_points(self, rng):
        # eigen-decomposition oracle over 20 random mixed-arm points
        for _ in range(50):
            x = rng.normal(size=(20, 2))
            t = rng.integers(0, 2, 20)
            coreg = CoregionalizationConfig.from_cholesky(*rng.normal(size=3))
            g = cmgp_gram(x, t, x, t, cfg(ls=(1.0, 1.0)), coreg)
            assert np.linalg.eigvalsh(g).min() >= -1e-8

    def test_invalid_treatment(self):
        for bad in (2, 0.5, np.nan):
            with pytest.raises(InputError):
                cmgp(([0.0], bad), ([0.0], 1), cfg(), CoregionalizationConfig())


class TestPerArmKernel:
    def test_control_pair_uses_arm0_kernel_only(self, rng):
        k0 = cfg(family="matern52", sv=1.7)
        k1 = cfg(family="matern52", sv=0.4)
        for _ in range(5):
            a, b = rng.normal(size=2)
            got = nsgp(([a], 0), ([b], 0), k0, k1, rho=0.8)
            assert got == pytest.approx(k([a], [b], k0), abs=1e-14)

    def test_treated_pair_uses_arm1_kernel_only(self, rng):
        k0 = cfg(sv=1.7)
        k1 = cfg(sv=0.4)
        a, b = rng.normal(size=2)
        got = nsgp(([a], 1), ([b], 1), k0, k1, rho=0.8)
        assert got == pytest.approx(k([a], [b], k1), abs=1e-14)

    def test_cross_arm_coupling_at_shared_point(self):
        # equal unit-variance arm kernels: overlap amplitude is 1, so the
        # cross-covariance at a shared covariate is exactly rho
        k = cfg()
        got = nsgp(([0.4], 0), ([0.4], 1), k, k, rho=0.6)
        assert got == pytest.approx(0.6, abs=1e-14)

    def test_cross_arm_bounded_by_cauchy_schwarz(self, rng):
        for _ in range(50):
            fam = "rbf" if rng.uniform() < 0.5 else "matern52"
            k0 = cfg(family=fam, ls=(rng.uniform(0.1, 3.0),), sv=rng.uniform(0.2, 4.0))
            k1 = cfg(family=fam, ls=(rng.uniform(0.1, 3.0),), sv=rng.uniform(0.2, 4.0))
            x = rng.normal()
            cross = nsgp(([x], 0), ([x], 1), k0, k1, rho=1.0)
            assert abs(cross) <= np.sqrt(k0.signal_variance * k1.signal_variance) + 1e-12

    def test_gram_psd_on_mixed_treatment_points(self, rng):
        # eigen-decomposition oracle; the validity bound must hold for both
        # families, any lengthscale mismatch, and |rho| up to 1
        for _ in range(50):
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(20, d)) * rng.uniform(0.3, 2.0)
            t = rng.integers(0, 2, 20)
            fam = "rbf" if rng.uniform() < 0.5 else "matern52"
            k0 = cfg(family=fam, ls=rng.uniform(0.05, 4.0, d), sv=rng.uniform(0.2, 4.0))
            k1 = cfg(family=fam, ls=rng.uniform(0.05, 4.0, d), sv=rng.uniform(0.2, 4.0))
            g = nsgp_gram(x, t, x, t, k0, k1, rho=float(rng.uniform(-1, 1)))
            scale = max(np.abs(g).max(), 1.0)
            assert np.linalg.eigvalsh(g).min() >= -1e-8 * scale

    def test_family_mix_rejected(self):
        with pytest.raises(InputError):
            nsgp(([0.0], 0), ([0.0], 1), cfg(), cfg(family="matern52"), rho=0.5)

    def test_invalid_treatment(self):
        for bad in (-1, 0.5, np.nan):
            with pytest.raises(InputError):
                nsgp(([0.0], bad), ([0.0], 1), cfg(), cfg(), rho=0.5)


class TestArmBlockNsgpGram:
    """``nsgp_gram`` writes each arm's kernel over that arm's block of the
    coupled overlap; the three-Gram build is its reference."""

    ARMS = {
        "mixed": lambda rng, n: rng.integers(0, 2, n),
        "control": lambda rng, n: np.zeros(n, dtype=int),
        "treated": lambda rng, n: np.ones(n, dtype=int),
    }

    @pytest.mark.parametrize("rows, cols", [("mixed", "mixed"), ("control", "mixed"), ("treated", "mixed"),
                                            ("mixed", "control"), ("mixed", "treated"), ("control", "treated")])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    def test_bitwise_equal_to_the_three_gram_build(self, rng, family, dim, rows, cols):
        for n, m in ((17, 23), (1, 1), (1, 9), (300, 70)):
            k0 = cfg(family=family, ls=rng.uniform(0.3, 2.0, dim), sv=rng.uniform(0.5, 2.0))
            k1 = cfg(family=family, ls=rng.uniform(0.3, 2.0, dim), sv=rng.uniform(0.5, 2.0))
            rho = float(rng.uniform(-1, 1))
            xa, xb = rng.normal(size=(n, dim)), rng.normal(size=(m, dim))
            ta, tb = self.ARMS[rows](rng, n), self.ARMS[cols](rng, m)
            np.testing.assert_array_equal(nsgp_gram(xa, ta, xb, tb, k0, k1, rho),
                                          three_gram_nsgp_gram(xa, ta, xb, tb, k0, k1, rho))

    def test_evaluates_fewer_kernel_entries_than_three_grams(self, rng, monkeypatch):
        # the overlap over every pair and each arm's kernel over its own
        # block: n m plus the two arm blocks, where three Grams take 3 n m
        entries = []
        original = kernels.scaled_gram

        def counting(sa, sb, *args):
            entries.append(sa.shape[0] * sb.shape[0])
            return original(sa, sb, *args)

        monkeypatch.setattr(kernels, "scaled_gram", counting)
        n, m = 40, 30
        ta, tb = rng.integers(0, 2, n), rng.integers(0, 2, m)
        nsgp_gram(rng.normal(size=(n, 2)), ta, rng.normal(size=(m, 2)), tb, cfg(ls=(1.0, 2.0)), cfg(ls=(0.5, 1.0)))
        own = sum(np.sum(ta == arm) * np.sum(tb == arm) for arm in (0, 1))
        assert sum(entries) == n * m + own < 3 * n * m


def whole_matrix_matern52(r2, sv):
    """The kernel expression evaluated over the whole matrix at once."""
    r = np.sqrt(np.maximum(r2, 0.0))
    a = np.sqrt(5.0) * r
    return sv * (1.0 + a + (5.0 / 3.0) * r2) * np.exp(-a)


def whole_matrix_rbf(r2, sv):
    return sv * np.exp(-0.5 * r2)


class TestBlockedEvaluation:
    BLOCK = kernels._BLOCK

    # one row block below, at and just above the block size, several blocks,
    # and rows longer than a block
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (127, 128), (128, 128), (129, 128), (300, 301),
                                       (3, BLOCK + 1)])
    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    def test_bitwise_equal_to_whole_matrix_expression(self, rng, shape, family):
        r2 = rng.uniform(0.0, 30.0, size=shape)
        r2.flat[0] = 0.0
        blocked, reference = {"rbf": (kernels._rbf_from_r2, whole_matrix_rbf),
                              "matern52": (kernels._matern52_from_r2, whole_matrix_matern52)}[family]
        expected = reference(r2, 1.7)
        got = blocked(r2.copy(), 1.7)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("sv", [1.0, 0.37])
    def test_matern_bitwise_at_both_signal_variance_paths(self, rng, sv):
        # sv = 1.0 skips its multiply; r2 holds exact zeros, and the r2 that
        # cdist gives duplicated points (zeros off the diagonal too)
        x = rng.normal(size=(150, 3))
        x[75:] = x[:75]
        from_cdist = cdist(x, x, "sqeuclidean")
        assert np.count_nonzero(from_cdist == 0.0) == 300
        uniform = rng.uniform(0.0, 40.0, size=(200, 170))
        uniform[rng.random(uniform.shape) < 0.1] = 0.0
        for r2 in (from_cdist, uniform, np.zeros((2, 3))):
            np.testing.assert_array_equal(kernels._matern52_from_r2(r2.copy(), sv), whole_matrix_matern52(r2, sv))

    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    def test_kernel_gram_leaves_inputs_and_returns_fresh_array(self, rng, family):
        c = cfg(family=family, ls=(0.7, 1.3))
        xa, xb = rng.normal(size=(40, 2)), rng.normal(size=(30, 2))
        xa_before, xb_before, ls_before = xa.copy(), xb.copy(), c.lengthscales.copy()
        first = kernel_gram(xa, xb, c)
        second = kernel_gram(xa, xb, c)
        np.testing.assert_array_equal(xa, xa_before)
        np.testing.assert_array_equal(xb, xb_before)
        np.testing.assert_array_equal(c.lengthscales, ls_before)
        np.testing.assert_array_equal(first, second)
        assert first.flags.c_contiguous and first.flags.owndata
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, a) for a in (xa, xb, c.lengthscales))

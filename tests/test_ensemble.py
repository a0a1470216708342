import numpy as np
import pytest

from cate_al.beliefs import empirical_gaussian_fit
from cate_al.ensemble import EnsembleLinearModel, fit_ensemble, posterior_draws
from cate_al.errors import InputError


def toy_data(rng, n=40, d=2):
    x = rng.normal(size=(n, d))
    t = rng.integers(0, 2, n)
    y = 1.0 + x @ np.array([0.5, -0.2])[:d] + t * (2.0 + x[:, 0]) + 0.1 * rng.standard_normal(n)
    return x, t, y


class TestFitEnsemble:
    def test_recovers_constant_effect_exactly(self):
        # noiseless y = 1 + 2 t: the effect head's intercept is identified
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 1))
        t = np.tile([0, 1], 15)
        y = 1.0 + 2.0 * t
        model = fit_ensemble(x, t, y, n_members=8, ridge=1e-8, rng=3)
        np.testing.assert_allclose(model.tau_weights[:, 0], 2.0, atol=1e-6)

    def test_single_member_rejected(self, rng):
        x, t, y = toy_data(rng)
        with pytest.raises(InputError):
            fit_ensemble(x, t, y, n_members=1)

    def test_same_seed_identical_members(self, rng):
        x, t, y = toy_data(rng)
        a = fit_ensemble(x, t, y, n_members=6, rng=9)
        b = fit_ensemble(x, t, y, n_members=6, rng=9)
        np.testing.assert_array_equal(a.mu_weights, b.mu_weights)
        np.testing.assert_array_equal(a.tau_weights, b.tau_weights)

    def test_single_arm_resamples_pin_effect_head(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 1))
        t = np.array([0, 0, 0, 1])
        y = rng.normal(size=4)
        model = fit_ensemble(x, t, y, n_members=64, ridge=1e-4, rng=0)
        # members whose bootstrap saw one arm carry a (near) zero effect head
        norms = np.linalg.norm(model.tau_weights, axis=1)
        assert norms.min() < 1e-3


class TestPosteriorDraws:
    def test_effect_column_is_definitional(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=5, rng=2)
        target = np.array([0.7, -1.1])
        sp = posterior_draws(model, (np.zeros(2), 1), target[None, :])
        expected = model.tau_weights @ np.concatenate([[1.0], target])
        np.testing.assert_allclose(sp.draws[:, sp.labels.index("tau@0")], expected, atol=1e-12)

    def test_identical_members_give_zero_variance(self):
        rng = np.random.default_rng(5)
        x = np.tile([[0.4], [1.2]], (3, 1))
        t = np.tile([0, 1], 3)
        y = np.tile([1.0, 3.0], 3)
        # every bootstrap resample of duplicated rows fits the same line
        model = fit_ensemble(x, t, y, n_members=6, ridge=1e-6, rng=0)
        sp = posterior_draws(model, (np.array([0.4]), 0), np.array([[1.2]]))
        belief = empirical_gaussian_fit(sp)
        assert np.abs(belief.cov).max() < 1e-12

    def test_column_means_match_member_average(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=7, rng=4)
        targets = rng.normal(size=(3, 2))
        sp = posterior_draws(model, (np.zeros(2), 0), targets)
        belief = empirical_gaussian_fit(sp)
        base = np.hstack([np.ones((3, 1)), targets])
        mu = (model.mu_weights @ base.T).mean(axis=0)
        tau = (model.tau_weights @ base.T).mean(axis=0)
        for j in range(3):
            assert belief.mean[sp.labels.index(f"f0@{j}")] == pytest.approx(mu[j], abs=1e-12)
            assert belief.mean[sp.labels.index(f"tau@{j}")] == pytest.approx(tau[j], abs=1e-12)
            assert belief.mean[sp.labels.index(f"f1@{j}")] == pytest.approx(mu[j] + tau[j], abs=1e-12)


class TestUniformSurface:
    def test_moment_bundle_consistent_with_draw_fit(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=9, rng=6)
        cand = (np.array([0.2, 0.4]), 1)
        targets = rng.normal(size=(2, 2))
        bundle = model.moment_bundle(np.array([cand[0]]), np.array([1]), targets)
        belief = model.predictive_belief(cand, targets)
        assert bundle.y_var[0] == pytest.approx(belief.cov[0, 0], abs=1e-12)
        for j in range(2):
            jt = belief.index(f"tau@{j}")
            assert bundle.tau_var[j] == pytest.approx(belief.cov[jt, jt], abs=1e-12)
            assert bundle.cy_tau[0, j] == pytest.approx(belief.cov[0, jt], abs=1e-12)

    def test_noise_variance_is_mean_squared_residual(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=9, rng=6)
        resid = y - model.member_f(x, t).mean(axis=0)
        assert model.noise_variance == pytest.approx(float(np.mean(resid**2)))

    def test_latent_var_is_the_latent_cov_diagonal(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=9, rng=6)
        xq = rng.normal(size=(30, 2))
        tq = rng.integers(0, 2, 30)
        np.testing.assert_allclose(model.latent_var(xq, tq), np.diag(model.latent_cov(xq, tq, xq, tq)),
                                   rtol=1e-12, atol=0)

import numpy as np
import pytest

from cate_al.ensemble import EnsembleLinearModel, fit_ensemble
from cate_al.errors import InputError

from oracles import SamplePosterior, empirical_gaussian_fit, predictive_belief, quantity_labels


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

    def test_model_owns_read_only_weights(self, rng):
        # the caller reusing its weight arrays leaves the predictions as they
        # were, and the model's own copies cannot be written
        mu, tau = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        model = EnsembleLinearModel(mu, tau, noise_var=0.3)
        xq, tq = rng.normal(size=(4, 2)), np.array([0, 1, 1, 0])
        before = [model.tau_mean(xq), model.latent_var(xq, tq), *vars(model.moment_bundle(xq, tq, xq[:3])).values()]
        mu[:] = 0.0
        tau[:] = 0.0
        after = [model.tau_mean(xq), model.latent_var(xq, tq), *vars(model.moment_bundle(xq, tq, xq[:3])).values()]
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)
        for weights in (model.mu_weights, model.tau_weights):
            with pytest.raises(ValueError, match="read-only"):
                weights[:] = 0.0


def member_draw_fit(model, candidate, target_x):
    """Empirical Gaussian over one row per member of (f at the candidate,
    f0/f1/tau at each target), observation noise added to the candidate."""
    cx, ct = candidate
    m = target_x.shape[0]
    mu = model.member_mu(target_x)
    tau = model.member_tau(target_x)
    draws = np.empty((model.n_members, 1 + 3 * m))
    draws[:, 0] = model.member_f(cx[None, :], [ct])[:, 0]
    draws[:, 1::3] = mu
    draws[:, 2::3] = mu + tau
    draws[:, 3::3] = tau
    belief = empirical_gaussian_fit(SamplePosterior(draws=draws, labels=quantity_labels(m)))
    belief.cov[0, 0] += model.noise_variance
    return belief


class TestPosteriorDraws:
    """The belief assembled from an ensemble's queries is the Gaussian fit of its member draws."""

    def test_effect_column_is_definitional(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=5, rng=2)
        target = np.array([0.7, -1.1])
        belief = predictive_belief(model, (np.zeros(2), 1), target[None, :])
        effect = model.tau_weights @ np.concatenate([[1.0], target])
        jt = belief.index("tau@0")
        assert belief.mean[jt] == pytest.approx(effect.mean(), abs=1e-12)
        assert belief.cov[jt, jt] == pytest.approx(effect.var(ddof=1), abs=1e-12)

    def test_identical_members_give_zero_variance(self):
        rng = np.random.default_rng(5)
        x = np.tile([[0.4], [1.2]], (3, 1))
        t = np.tile([0, 1], 3)
        y = np.tile([1.0, 3.0], 3)
        # every bootstrap resample of duplicated rows fits the same line
        model = fit_ensemble(x, t, y, n_members=6, ridge=1e-6, rng=0)
        belief = predictive_belief(model, (np.array([0.4]), 0), np.array([[1.2]]))
        latent = belief.cov.copy()
        latent[0, 0] -= model.noise_variance
        assert np.abs(latent).max() < 1e-12

    def test_column_means_match_member_average(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=7, rng=4)
        targets = rng.normal(size=(3, 2))
        belief = predictive_belief(model, (np.zeros(2), 0), targets)
        base = np.hstack([np.ones((3, 1)), targets])
        mu = (model.mu_weights @ base.T).mean(axis=0)
        tau = (model.tau_weights @ base.T).mean(axis=0)
        for j in range(3):
            assert belief.mean[belief.index(f"f0@{j}")] == pytest.approx(mu[j], abs=1e-12)
            assert belief.mean[belief.index(f"tau@{j}")] == pytest.approx(tau[j], abs=1e-12)
            assert belief.mean[belief.index(f"f1@{j}")] == pytest.approx(mu[j] + tau[j], abs=1e-12)


class TestUniformSurface:
    def test_moment_bundle_consistent_with_draw_fit(self, rng):
        x, t, y = toy_data(rng)
        model = fit_ensemble(x, t, y, n_members=9, rng=6)
        cand = (np.array([0.2, 0.4]), 1)
        targets = rng.normal(size=(2, 2))
        bundle = model.moment_bundle(np.array([cand[0]]), np.array([1]), targets)
        fit = member_draw_fit(model, cand, targets)
        assert bundle.y_var[0] == pytest.approx(fit.cov[0, 0], abs=1e-12)
        for j in range(2):
            jt = fit.index(f"tau@{j}")
            assert bundle.tau_var[j] == pytest.approx(fit.cov[jt, jt], abs=1e-12)
            assert bundle.cy_tau[0, j] == pytest.approx(fit.cov[0, jt], abs=1e-12)
        belief = predictive_belief(model, cand, targets)
        assert belief.labels == fit.labels
        np.testing.assert_allclose(belief.mean, fit.mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(belief.cov, fit.cov, rtol=1e-12, atol=1e-14)

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

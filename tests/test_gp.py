import numpy as np
import pytest

from cate_al.errors import InputError, NumericalError
from cate_al.gp import (
    CmgpParams,
    NsgpParams,
    SearchConfig,
    _chol_with_escalating_jitter,
    fit_gp,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from cate_al.kernels import CoregionalizationConfig, KernelConfig, nsgp_gram

from conftest import brute_force_conditioning, random_fitted_gp, random_nsgp_params


def simple_cmgp(noise=0.3, ls=0.8, b=None):
    b = np.array([[1.5, 0.6], [0.6, 1.2]]) if b is None else b
    return CmgpParams(
        kernel=KernelConfig(family="rbf", lengthscales=[ls], signal_variance=1.0, noise_variance=noise),
        coreg=CoregionalizationConfig(task_covariance=b),
    )


class TestFit:
    def test_zero_targets_give_zero_posterior_mean(self):
        x = np.array([[0.5], [0.5]])
        t = np.array([0, 0])
        y = np.array([0.0, 0.0])
        model = fit_gp(x, t, y, simple_cmgp())
        assert model.latent_mean(np.array([[0.5]]), [0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_arm_data_fits_under_per_arm_kernel(self, rng):
        params = random_nsgp_params(rng)
        x = rng.normal(size=(6, 1))
        t = np.zeros(6, dtype=int)
        model = fit_gp(x, t, rng.normal(size=6), params)
        # the cross-arm coupling still reduces uncertainty in the unseen arm
        assert np.isfinite(model.tau_mean(np.array([[0.0]]))[0])

    def test_posterior_variance_below_prior_at_training_input(self, rng):
        # variance-reduction oracle: direct formula prior_var - k^T (K+nI)^-1 k
        params = simple_cmgp()
        x = rng.normal(size=(5, 1))
        t = rng.integers(0, 2, 5)
        y = rng.normal(size=5)
        model = fit_gp(x, t, y, params)
        for i in range(5):
            prior = params.coreg.task_covariance[t[i], t[i]]
            post = model.latent_var(x[i : i + 1], t[i : i + 1])[0]
            assert post < prior

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError):
            fit_gp(np.array([[0.0]]), [0], [1.0], simple_cmgp())
        with pytest.raises(InputError):
            fit_gp(np.zeros((0, 1)), [], [], simple_cmgp())

    def test_nonfinite_outcomes_rejected(self):
        with pytest.raises(InputError):
            fit_gp(np.zeros((2, 1)), [0, 1], [np.nan, 0.0], simple_cmgp())

    def test_cholesky_failure_raises_numerical_error(self):
        with pytest.raises(NumericalError):
            _chol_with_escalating_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-8)


def y_f0_f1_block(model, candidate, target):
    """(y at the candidate, f0, f1 at one target) block of the predictive belief."""
    full = model.predictive_belief(candidate, np.atleast_2d(target))
    keep = full.indices(["y", "f0@0", "f1@0"])
    return full.mean[keep], full.cov[np.ix_(keep, keep)]


class TestJointBelief:
    def test_prior_cross_arm_covariance_vanishes_with_identity_tasks(self):
        # data far outside kernel support: the posterior at the origin is the
        # prior, where identity task covariance decouples the arms
        params = simple_cmgp(b=np.eye(2))
        x = np.array([[1e6], [1.0000001e6]])
        model = fit_gp(x, [0, 1], [0.3, -0.2], params)
        _, cov = y_f0_f1_block(model, (np.array([0.0]), 0), np.array([0.1]))
        assert abs(cov[0, 2]) < 1e-12

    def test_candidate_equal_target_same_arm_cov_equals_variance(self, rng):
        model = random_fitted_gp(rng, n=6)
        xq = np.array([0.25])
        _, cov = y_f0_f1_block(model, (xq, 1), xq)
        assert cov[0, 2] == pytest.approx(cov[2, 2], abs=1e-10)
        # y carries the observation noise on top of the latent variance
        assert cov[0, 0] == pytest.approx(cov[2, 2] + model.noise_variance, abs=1e-10)

    @pytest.mark.parametrize("kind", ["cmgp", "nsgp"])
    def test_full_covariance_matches_naive_conditioning(self, rng, kind):
        for _ in range(10):
            model = random_fitted_gp(rng, n=7, kind=kind)
            cand_x = rng.normal(size=1)
            cand_t = int(rng.integers(0, 2))
            target = rng.normal(size=1)
            belief_mean, belief_cov = y_f0_f1_block(model, (cand_x, cand_t), target)

            q_x = np.vstack([cand_x[None, :], target[None, :], target[None, :]])
            q_t = np.array([cand_t, 0, 1])
            mean, cov = brute_force_conditioning(
                model.params, model.train_x, model.train_t, model.train_y, q_x, q_t,
                model.noise_variance,
            )
            cov[0, 0] += model.noise_variance
            assert np.abs(belief_mean - mean).max() < 1e-6
            assert np.abs(belief_cov - cov).max() < 1e-6


class TestPosteriorInvariants:
    def test_returned_covariances_symmetric_and_psd(self, rng):
        for _ in range(50):
            kind = "cmgp" if rng.uniform() < 0.5 else "nsgp"
            model = random_fitted_gp(rng, n=int(rng.integers(4, 10)), kind=kind)
            targets = rng.normal(size=(4, 1))
            belief = model.predictive_belief((rng.normal(size=1), int(rng.integers(0, 2))), targets)
            assert np.abs(belief.cov - belief.cov.T).max() <= 1e-10
            scale = max(np.abs(belief.cov).max(), 1.0)
            assert np.linalg.eigvalsh(belief.cov).min() >= -1e-8 * scale

    def test_adding_observation_never_increases_observed_arm_variance(self, rng):
        for _ in range(20):
            kind = "cmgp" if rng.uniform() < 0.5 else "nsgp"
            model = random_fitted_gp(rng, n=6, kind=kind)
            p = rng.normal(size=(1, 1))
            arm = int(rng.integers(0, 2))
            before = model.latent_var(p, [arm])[0]
            x2 = np.vstack([model.train_x, p])
            t2 = np.concatenate([model.train_t, [arm]])
            y2 = np.concatenate([model.train_y, [rng.normal()]])
            after = fit_gp(x2, t2, y2, model.params).latent_var(p, [arm])[0]
            assert after <= before + 1e-8

    def test_predictions_invariant_to_training_permutation(self, rng):
        model = random_fitted_gp(rng, n=9)
        perm = rng.permutation(9)
        permuted = fit_gp(model.train_x[perm], model.train_t[perm], model.train_y[perm], model.params)
        xq = rng.normal(size=(5, 1))
        tq = rng.integers(0, 2, 5)
        np.testing.assert_allclose(model.latent_mean(xq, tq), permuted.latent_mean(xq, tq), rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(model.latent_var(xq, tq), permuted.latent_var(xq, tq), rtol=1e-6, atol=1e-10)

    def test_vanishing_treated_kernel_collapses_treated_variance(self, rng):
        noise = 0.2
        params = NsgpParams(
            kernel0=KernelConfig(family="matern52", lengthscales=[1.0], signal_variance=1.0, noise_variance=noise),
            kernel1=KernelConfig(family="matern52", lengthscales=[1.0], signal_variance=1e-12, noise_variance=noise),
            cross_rho=0.5,
        )
        x = rng.normal(size=(6, 1))
        model = fit_gp(x, np.zeros(6, dtype=int), rng.normal(size=6), params)
        probe = rng.normal(size=(8, 1))
        assert model.latent_var(probe, np.ones(8, dtype=int)).max() <= 1e-10


class TestHyperparamSearch:
    def test_generate_and_recover_lengthscale(self):
        # oracle: sample from a known RBF GP with unit lengthscale, refit
        rng = np.random.default_rng(7)
        n = 200
        x = rng.uniform(-3, 3, size=(n, 1))
        t = rng.integers(0, 2, n)
        true = simple_cmgp(noise=0.1, ls=1.0, b=np.array([[1.0, 0.7], [0.7, 1.0]]))
        from cate_al.kernels import cmgp_gram

        gram = cmgp_gram(x, t, x, t, true.kernel, true.coreg)
        f = np.linalg.cholesky(gram + 1e-10 * np.eye(n)) @ rng.standard_normal(n)
        y = f + np.sqrt(0.1) * rng.standard_normal(n)
        fitted = optimize_hyperparams(x, t, y, "cmgp", SearchConfig(seed=0))
        assert 0.5 <= fitted.kernel.lengthscales[0] <= 2.0

    def test_search_never_worse_than_initial_config(self, rng):
        from cate_al.gp import _ThetaCodec

        x = rng.normal(size=(12, 1))
        t = rng.integers(0, 2, 12)
        y = rng.normal(size=12)
        codec = _ThetaCodec("cmgp", 1, "rbf")
        initial = codec.decode(codec.initial(x, y - y.mean()))
        fitted = optimize_hyperparams(x, t, y, "cmgp", SearchConfig(seed=3))
        assert log_marginal_likelihood(x, t, y, fitted) >= log_marginal_likelihood(x, t, y, initial) - 1e-9

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(10, 1))
        t = rng.integers(0, 2, 10)
        y = rng.normal(size=10)
        a = optimize_hyperparams(x, t, y, "nsgp", SearchConfig(seed=11))
        b = optimize_hyperparams(x, t, y, "nsgp", SearchConfig(seed=11))
        assert np.array_equal(a.kernel0.lengthscales, b.kernel0.lengthscales)
        assert a.cross_rho == b.cross_rho
        assert a.kernel1.signal_variance == b.kernel1.signal_variance

    def test_requires_five_points(self, rng):
        with pytest.raises(InputError):
            optimize_hyperparams(rng.normal(size=(4, 1)), [0, 1, 0, 1], rng.normal(size=4), "cmgp")


def test_lml_formula_matches_direct_computation(rng):
    model = random_fitted_gp(rng, n=6)
    x, t, y = model.train_x, model.train_t, model.train_y
    from cate_al.kernels import cmgp_gram

    k = cmgp_gram(x, t, x, t, model.params.kernel, model.params.coreg)
    k += (model.noise_variance + model.jitter_used) * np.eye(6)
    yc = y - y.mean()
    expected = -0.5 * yc @ np.linalg.solve(k, yc) - 0.5 * np.linalg.slogdet(k)[1] - 3 * np.log(2 * np.pi)
    assert log_marginal_likelihood(x, t, y, model.params) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("family", ["rbf", "matern52"])
def test_nsgp_cross_diag_is_the_gram_diagonal(rng, family):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        params = random_nsgp_params(rng, dim=d, family=family)
        x = rng.normal(size=(25, d))
        gram = nsgp_gram(x, np.zeros(25, dtype=int), x, np.ones(25, dtype=int),
                         params.kernel0, params.kernel1, params.cross_rho)
        np.testing.assert_array_equal(params.cross_diag(25), np.diag(gram))


@pytest.mark.parametrize("kind", ["cmgp", "nsgp"])
def test_tau_sd_is_the_bundle_contrast_sd(rng, kind):
    for _ in range(5):
        d = int(rng.integers(1, 4))
        model = random_fitted_gp(rng, n=12, dim=d, kind=kind)
        cand_x, targets = rng.normal(size=(7, d)), rng.normal(size=(9, d))
        bundle = model.moment_bundle(cand_x, rng.integers(0, 2, 7), targets)
        np.testing.assert_array_equal(model.tau_sd(targets), np.sqrt(bundle.tau_var))

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from cate_al import gp, kernels
from cate_al.errors import InputError, NumericalError, as_labeled
from cate_al.gp import (
    CmgpParams,
    NsgpParams,
    SearchConfig,
    _chol_with_escalating_jitter,
    fit_gp,
    log_marginal_likelihood,
    optimize_hyperparams,
)
from cate_al.kernels import CoregionalizationConfig, KernelConfig

from conftest import (
    RANDOM_PARAMS,
    brute_force_conditioning,
    random_cmgp_params,
    random_fitted_gp,
    random_nsgp_params,
    two_component_cmgp,
)
from oracles import latent_mean, lml_from_fit, predictive_belief


def _rank_3_gram(rng):
    # a rank-3 Gram minus 1e-7 I is indefinite until the jitter reaches 1e-6
    root = rng.normal(size=(40, 3))
    a = root @ root.T - 1e-7 * np.eye(40)
    return 0.5 * (a + a.T)


# exactly symmetric matrices whose factorization fails at jitter 1e-8 and 1e-7
RETRY_GRAMS = {"diagonal": lambda rng: np.diag([1.0, -5e-7]), "rank_3": _rank_3_gram}


def simple_cmgp(noise=0.3, ls=0.8, b=None):
    b = np.array([[1.5, 0.6], [0.6, 1.2]]) if b is None else b
    return CmgpParams(
        kernel=KernelConfig(family="rbf", lengthscales=[ls], signal_variance=1.0, noise_variance=noise),
        coreg=CoregionalizationConfig(task_covariance=b),
    )


def posterior_queries(model, xq):
    """tau_mean, latent_var and every moment_bundle field at four query points."""
    tq = np.array([0, 1, 1, 0])
    bundle = model.moment_bundle(xq, tq, xq[:3])
    return [model.tau_mean(xq), model.latent_var(xq, tq), *vars(bundle).values()]


class TestFit:
    def test_zero_targets_give_zero_posterior_mean(self):
        x = np.array([[0.5], [0.5]])
        t = np.array([0, 0])
        y = np.array([0.0, 0.0])
        model = fit_gp(x, t, y, simple_cmgp())
        assert latent_mean(model, np.array([[0.5]]), [0])[0] == pytest.approx(0.0, abs=1e-12)

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

    @pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
    def test_model_owns_its_training_arrays(self, rng, kind):
        # the caller reusing its arrays after a fit leaves the posterior as it
        # was, and the model's own arrays cannot be written
        x, t, y = rng.normal(size=(10, 2)), np.tile([0, 1], 5), rng.normal(size=10)
        model = fit_gp(x, t, y, RANDOM_PARAMS[kind](rng, 2))
        xq = rng.normal(size=(4, 2))
        before = posterior_queries(model, xq)
        x += 1.0
        t[:] = 1 - t
        y *= 2.0
        for got, want in zip(posterior_queries(model, xq), before):
            np.testing.assert_array_equal(got, want)
        for name in ("train_x", "train_t", "train_y", "L", "alpha"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(model, name).flat[0] = 4

    def test_config_owns_its_lengthscales(self, rng):
        # the caller reusing its lengthscale array after a fit leaves the
        # posterior as it was, and the config's own copy cannot be written
        ls = np.array([0.8, 1.3])
        cfg = KernelConfig(family="matern52", lengthscales=ls, signal_variance=1.0, noise_variance=0.3)
        x, t, y = rng.normal(size=(10, 2)), np.tile([0, 1], 5), rng.normal(size=10)
        xq = rng.normal(size=(4, 2))
        for params in (CmgpParams(kernel=cfg, coreg=CoregionalizationConfig()), NsgpParams(kernel0=cfg, kernel1=cfg)):
            model = fit_gp(x, t, y, params)
            before = posterior_queries(model, xq)
            ls *= 3.0
            for got, want in zip(posterior_queries(model, xq), before):
                np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):
            cfg.lengthscales[0] = 1.0

    def test_config_owns_its_task_covariance(self, rng):
        # the caller's matrix is not kept, and the config's own cannot be written
        b = np.array([[1.5, 0.6], [0.6, 1.2]])
        x, t, y = rng.normal(size=(10, 1)), np.tile([0, 1], 5), rng.normal(size=10)
        xq = rng.normal(size=(4, 1))
        model = fit_gp(x, t, y, simple_cmgp(b=b))
        before = posterior_queries(model, xq)
        b[1, 1] = 4.0
        for got, want in zip(posterior_queries(model, xq), before):
            np.testing.assert_array_equal(got, want)
        for coreg in (model.params.coreg, CoregionalizationConfig.from_cholesky(1.0, 0.2, 0.7)):
            with pytest.raises(ValueError, match="read-only"):
                coreg.task_covariance[1, 1] = 4.0

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

    def test_nonfinite_gram_raises_at_once(self):
        with pytest.raises(NumericalError, match="not finite"):
            _chol_with_escalating_jitter(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1e-8)

    @pytest.mark.parametrize("n", [5, 60, 200])
    def test_factor_and_weights_equal_scipy_cholesky_and_cho_solve(self, rng, n):
        x, t, y = as_labeled(rng.normal(size=(n, 2)), rng.integers(0, 2, n), rng.normal(size=n))
        params = two_component_cmgp(rng, dim=2)
        gram = params.gram(x, t, x, t)
        model = gp._condition(x, t, y, params, gram.copy())
        noisy = gram.copy()
        noisy.flat[:: n + 1] += params.noise_variance
        noisy.flat[:: n + 1] += model.jitter_used
        L = cholesky(noisy, lower=True)
        np.testing.assert_array_equal(model.L, L)
        np.testing.assert_array_equal(model.alpha, cho_solve((L, True), y - y.mean()))

    def test_jittered_factor_equals_scipy_cholesky(self, rng):
        # a rank-3 Gram minus 1e-7 I is indefinite until the jitter reaches 1e-6
        root = rng.normal(size=(40, 3))
        a = root @ root.T - 1e-7 * np.eye(40)
        L, jitter = _chol_with_escalating_jitter(a, 1e-8)
        assert jitter == pytest.approx(1e-6)
        shifted = a.copy()
        shifted.flat[::41] += jitter
        np.testing.assert_array_equal(L, cholesky(shifted, lower=True))

    def test_each_jitter_retry_starts_from_the_unjittered_matrix(self):
        # fails at 1e-8 and 1e-7; at 1e-6 the shifted diagonal is 5e-7, where
        # jitter accumulated over the retries would leave 6.1e-7
        a = np.diag([1.0, -5e-7])
        before = a.copy()
        L, jitter = _chol_with_escalating_jitter(a, 1e-8)
        assert jitter == pytest.approx(1e-6)
        assert L[1, 1] ** 2 == pytest.approx(5e-7, rel=1e-9)
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("case", sorted(RETRY_GRAMS))
    def test_in_place_factor_equals_the_default(self, rng, case):
        # both matrices fail at jitter 1e-8 and 1e-7, so the in-place path
        # restores its matrix from the untouched triangle between tries
        a = RETRY_GRAMS[case](rng)
        before = a.copy()
        L, jitter = _chol_with_escalating_jitter(a, 1e-8)
        np.testing.assert_array_equal(a, before)
        work = a.copy()
        factor, in_place_jitter = _chol_with_escalating_jitter(work, 1e-8, overwrite=True)
        assert in_place_jitter == jitter == pytest.approx(1e-6)
        assert np.shares_memory(factor, work)
        np.testing.assert_array_equal(np.tril(factor), L)
        np.testing.assert_array_equal(np.triu(factor, 1), np.triu(before, 1))

    def test_nonfinite_gram_raises_at_once_in_place(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(NumericalError, match="not finite"):
            _chol_with_escalating_jitter(a, 1e-8, overwrite=True)
        np.testing.assert_array_equal(a, [[1.0, np.nan], [np.nan, 1.0]])


def y_f0_f1_block(model, candidate, target):
    """(y at the candidate, f0, f1 at one target) block of the predictive belief."""
    full = predictive_belief(model, candidate, np.atleast_2d(target))
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

    @pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
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


def assert_close(got, want, rel=1e-12):
    """Every entry of ``got`` within ``rel`` of the largest entry of ``want``."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def growing_data(rng, n, dim=2):
    x = rng.normal(size=(n, dim))
    t = rng.integers(0, 2, n)
    t[:2] = (0, 1)
    return x, t, np.sin(x[:, 0]) + t + 0.1 * rng.normal(size=n)


@pytest.fixture
def failing_new_block(monkeypatch):
    """Make every factorization of a ``size`` x ``size`` matrix fail, as the
    new block of an extension by ``size`` rows would; returns the setter."""
    dpotrf = gp.dpotrf

    def fail_at(size):
        def failing(a, **kw):
            return (a, 1) if a.shape[0] == size else dpotrf(a, **kw)

        monkeypatch.setattr(gp, "dpotrf", failing)

    return fail_at


class TestExtendedFit:
    """fit_gp extends the last model of the same params by the rows past
    its training points instead of refactorizing the whole Gram."""

    @pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
    @pytest.mark.parametrize("b", [1, 7, 20])
    def test_chained_extensions_equal_fresh_fits(self, monkeypatch, rng, kind, b):
        params = RANDOM_PARAMS[kind](rng, 2)
        x, t, y = growing_data(rng, 30 + 4 * b)
        x_eval = rng.normal(size=(300, 2))
        rows = gp.ContrastRows(x_eval, y.size)
        model = fit_gp(x[:30], t[:30], y[:30], params)
        assert_close(rows.tau_mean(model), model.tau_mean(x_eval))
        whole = []  # sizes of the whole-Gram factorizations
        chol = gp._chol_with_escalating_jitter

        def counting_chol(a, *args):
            whole.append(a.shape[0])
            return chol(a, *args)

        monkeypatch.setattr(gp, "_chol_with_escalating_jitter", counting_chol)
        for n in range(30 + b, y.size + 1, b):
            model = fit_gp(x[:n], t[:n], y[:n], params, model)
            assert whole == []  # the extension factorizes only the new block
            fresh = fit_gp(x[:n], t[:n], y[:n], params)
            whole.clear()
            assert model.jitter_used == fresh.jitter_used
            assert_close(model.L, fresh.L)
            assert_close(model.alpha, fresh.alpha)
            assert_close(model.tau_mean(x_eval), fresh.tau_mean(x_eval))
            assert_close(rows.tau_mean(model), fresh.tau_mean(x_eval))

    def test_a_new_block_that_does_not_factorize_falls_back_to_a_fresh_fit(self, rng, failing_new_block):
        params = random_cmgp_params(rng, 2)
        x, t, y = growing_data(rng, 27)
        last = fit_gp(x[:20], t[:20], y[:20], params)
        failing_new_block(7)
        model = fit_gp(x, t, y, params, last)
        fresh = fit_gp(x, t, y, params)
        np.testing.assert_array_equal(model.L, fresh.L)
        np.testing.assert_array_equal(model.alpha, fresh.alpha)

    def test_the_last_model_is_unchanged_and_read_only(self, rng):
        params = random_nsgp_params(rng, 2)
        x, t, y = growing_data(rng, 40)
        last = fit_gp(x[:30], t[:30], y[:30], params)
        arrays = {name: getattr(last, name) for name in ("train_x", "train_t", "train_y", "L", "alpha")}
        before = {name: a.copy() for name, a in arrays.items()}
        model = fit_gp(x, t, y, params, last)
        for name, a in arrays.items():
            assert getattr(last, name) is a and not a.flags.writeable, name
            assert a.tobytes() == before[name].tobytes(), name
            assert not np.shares_memory(getattr(model, name), a), name
            assert not getattr(model, name).flags.writeable, name

    @pytest.mark.parametrize("case", ["other_params", "not_a_prefix", "no_new_rows"])
    def test_a_last_model_that_does_not_lead_is_not_extended(self, rng, case):
        params = random_cmgp_params(rng, 2)
        x, t, y = growing_data(rng, 30)
        n = 30 if case == "no_new_rows" else 20
        last_params = random_cmgp_params(rng, 2) if case == "other_params" else params
        lx = x[:n].copy()
        if case == "not_a_prefix":
            lx[3, 1] += 1e-9
        last = fit_gp(lx, t[:n], y[:n], last_params)
        model = fit_gp(x, t, y, params, last)
        np.testing.assert_array_equal(model.L, fit_gp(x, t, y, params).L)

    def test_contrast_rows_rebuild_for_another_prior_and_hold_a_fixed_count(self, rng):
        x, t, y = growing_data(rng, 30)
        x_eval = rng.normal(size=(40, 2))
        rows = gp.ContrastRows(x_eval, 30)
        for params in (random_cmgp_params(rng, 2), random_nsgp_params(rng, 2)):
            model = fit_gp(x, t, y, params)
            assert_close(rows.tau_mean(model), model.tau_mean(x_eval))
        with pytest.raises(InputError, match="exceed"):
            gp.ContrastRows(x_eval, 29).tau_mean(model)


class TestPosteriorInvariants:
    def test_returned_covariances_symmetric_and_psd(self, rng):
        for _ in range(50):
            kind = "cmgp" if rng.uniform() < 0.5 else "nsgp"
            model = random_fitted_gp(rng, n=int(rng.integers(4, 10)), kind=kind)
            targets = rng.normal(size=(4, 1))
            belief = predictive_belief(model, (rng.normal(size=1), int(rng.integers(0, 2))), targets)
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
        np.testing.assert_allclose(latent_mean(model, xq, tq), latent_mean(permuted, xq, tq), rtol=1e-8, atol=1e-10)
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
        fitted = optimize_hyperparams(x, t, y, "cmgp", SearchConfig())
        assert 0.5 <= fitted.kernel.lengthscales[0] <= 2.0

    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_search_never_worse_than_initial_config(self, rng, kind, n_components):
        x = rng.normal(size=(12, 1))
        t = rng.integers(0, 2, 12)
        y = rng.normal(size=12)
        space = gp._SEARCH_SPACES[kind]
        initial = space.from_theta(space.search_start(x, y - y.mean(), n_components), 1)
        fitted = optimize_hyperparams(x, t, y, kind, SearchConfig(n_components=n_components))
        assert log_marginal_likelihood(x, t, y, fitted) >= log_marginal_likelihood(x, t, y, initial) - 1e-9

    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_each_restart_stays_within_its_evaluation_budget(self, rng, monkeypatch, kind, n_components):
        x = rng.normal(size=(15, 2))
        t = rng.integers(0, 2, 15)
        y = rng.normal(size=15)
        calls = []
        original = gp.log_marginal_likelihood
        monkeypatch.setattr(gp, "log_marginal_likelihood", lambda *a: calls.append(1) or original(*a))

        def evals(warm_params=None):
            calls.clear()
            fitted = optimize_hyperparams(x, t, y, kind, SearchConfig(n_components=n_components),
                                          warm_params=warm_params)
            return len(calls), fitted

        # every structured start is climbed, and a warm start besides
        count, fitted = evals()
        assert count <= gp.SEARCH_EVALS * 3
        # a climb needs ten sweeps without a move to stop early, so a budget of
        # seven is used up by every start, and none may take more
        monkeypatch.setattr(gp, "SEARCH_EVALS", 7)
        assert evals()[0] == 7 * 3
        assert evals(warm_params=fitted)[0] == 7 * 4
        monkeypatch.setattr(gp, "SEARCH_EVALS", 1)
        assert evals()[0] == 3

    def test_mismatched_warm_start_rejected(self, rng):
        x = rng.normal(size=(10, 1))
        t = rng.integers(0, 2, 10)
        y = rng.normal(size=10)
        one = optimize_hyperparams(x, t, y, "cmgp", SearchConfig(n_components=1))
        two = optimize_hyperparams(x, t, y, "cmgp", SearchConfig(n_components=2))
        nsgp = optimize_hyperparams(x, t, y, "nsgp", SearchConfig())
        for kind, n_components, warm in [("cmgp", 2, one), ("cmgp", 1, two), ("cmgp", 2, nsgp), ("nsgp", 1, two)]:
            with pytest.raises(InputError):
                optimize_hyperparams(x, t, y, kind, SearchConfig(n_components=n_components), warm_params=warm)
        with pytest.raises(InputError):
            SearchConfig(n_components=3)

    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_theta_round_trip(self, rng, kind, n_components):
        space = gp._SEARCH_SPACES[kind]
        d = 3
        theta = space.search_start(rng.normal(size=(20, d)), rng.normal(size=20), n_components)
        theta = theta + rng.normal(scale=0.3, size=theta.size)
        params = space.from_theta(theta, d)
        np.testing.assert_allclose(params.to_theta(), theta, rtol=1e-9, atol=1e-9)
        if kind == "cmgp":
            assert len(params.components) == n_components
            lengthscales = [k.lengthscales for k, _ in params.components]
        else:
            lengthscales = [params.kernel0.lengthscales, params.kernel1.lengthscales]
        coords = space.lengthscale_coords(d, n_components)
        np.testing.assert_allclose(np.log(np.concatenate(lengthscales)), theta[coords], rtol=1e-12)

    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_decoded_kernels_equal_validated_ones(self, rng, kind, n_components):
        # the search decodes its clipped vector without re-validating; each
        # kernel must equal, field for field and bitwise, the one the
        # validating constructor builds from the same clipped coordinates
        space = gp._SEARCH_SPACES[kind]
        d = 3
        size = space.search_start(rng.normal(size=(20, d)), rng.normal(size=20), n_components).size
        for theta in rng.normal(scale=6.0, size=(40, size)):  # about a fifth beyond +-8
            params = space.from_theta(theta, d)
            c = np.exp(np.clip(theta, -8.0, 8.0))
            noise = float(c[d] if kind == "cmgp" else c[2 * d + 2])
            if kind == "cmgp":
                blocks = np.concatenate([c[:d], c[d + 1 :]]).reshape(-1, d + 3)
                decoded = [k for k, _ in params.components]
                wanted = [(block[:d], 1.0) for block in blocks]
            else:
                decoded = [params.kernel0, params.kernel1]
                wanted = [(c[:d], float(c[d])), (c[d + 1 : 2 * d + 1], float(c[2 * d + 1]))]
            for got, (ls, sv) in zip(decoded, wanted, strict=True):
                want = KernelConfig(family="matern52", lengthscales=ls, signal_variance=sv, noise_variance=noise)
                for name in ("family", "signal_variance", "noise_variance"):
                    assert type(getattr(got, name)) is type(getattr(want, name))
                    assert getattr(got, name) == getattr(want, name)
                assert got.lengthscales.dtype == want.lengthscales.dtype
                np.testing.assert_array_equal(got.lengthscales, want.lengthscales)
                assert not got.lengthscales.flags.writeable

    @staticmethod
    def slice_decode(theta, dim):
        """The cmgp decode as it was written before one exp served every
        coordinate: np.clip, then an exp per lengthscale slice and per 0-d
        Cholesky coordinate of each component's block."""
        theta = np.clip(theta, -8.0, 8.0)
        noise = float(np.exp(theta[dim]))
        components = []
        for block in np.concatenate([theta[:dim], theta[dim + 1 :]]).reshape(-1, dim + 3):
            kernel = KernelConfig.trusted("matern52", np.exp(block[:dim]), 1.0, noise)
            coreg = CoregionalizationConfig.from_cholesky(
                float(np.exp(block[dim])), float(block[dim + 1]), float(np.exp(block[dim + 2]))
            )
            components += [kernel, coreg]
        return CmgpParams(*components)

    @pytest.mark.parametrize("n_components", [1, 2])
    def test_cmgp_decode_is_bitwise_the_per_slice_decode(self, rng, n_components):
        # random vectors, about a fifth of their coordinates clipped, and the
        # extremes themselves, at one and five dimensions
        for d in (1, 5):
            size = d + 4 + (n_components - 1) * (d + 3)
            thetas = rng.normal(scale=6.0, size=(2000, size))
            thetas[:50] = rng.choice([-8.0, 8.0, -1e6, 1e6, 0.0], size=(50, size))
            for theta in thetas:
                got, want = CmgpParams.from_theta(theta, d), self.slice_decode(theta, d)
                assert len(got.components) == len(want.components) == n_components
                for (k, b), (k_want, b_want) in zip(got.components, want.components):
                    assert k.lengthscales.tobytes() == k_want.lengthscales.tobytes()
                    assert not k.lengthscales.flags.writeable
                    assert (k.family, k.signal_variance, k.noise_variance) == (
                        k_want.family, k_want.signal_variance, k_want.noise_variance)
                    assert type(k.noise_variance) is float
                    assert b.task_covariance.tobytes() == b_want.task_covariance.tobytes()

    @staticmethod
    def nsgp_slice_decode(theta, dim):
        """The nsgp decode as it was written before one exp served every
        coordinate: np.clip, then an exp per lengthscale slice and per 0-d
        coordinate."""
        d = dim
        theta = np.clip(theta, -8.0, 8.0)
        noise = float(np.exp(theta[2 * d + 2]))
        k0 = KernelConfig.trusted("matern52", np.exp(theta[:d]), np.exp(theta[d]), noise)
        k1 = KernelConfig.trusted("matern52", np.exp(theta[d + 1 : 2 * d + 1]), np.exp(theta[2 * d + 1]), noise)
        return NsgpParams(kernel0=k0, kernel1=k1, cross_rho=float(0.95 * np.tanh(theta[2 * d + 3])))

    def test_nsgp_decode_is_bitwise_the_per_slice_decode(self, rng):
        # as the cmgp decode test: random vectors, about a fifth of their
        # coordinates clipped, and the extremes themselves
        for d in (1, 5):
            thetas = rng.normal(scale=6.0, size=(2000, 2 * d + 4))
            thetas[:50] = rng.choice([-8.0, 8.0, -1e6, 1e6, 0.0], size=(50, 2 * d + 4))
            for theta in thetas:
                got, want = NsgpParams.from_theta(theta, d), self.nsgp_slice_decode(theta, d)
                for k, k_want in ((got.kernel0, want.kernel0), (got.kernel1, want.kernel1)):
                    assert k.lengthscales.tobytes() == k_want.lengthscales.tobytes()
                    assert not k.lengthscales.flags.writeable
                    assert (k.family, k.signal_variance, k.noise_variance) == (
                        k_want.family, k_want.signal_variance, k_want.noise_variance)
                    assert type(k.signal_variance) is type(k.noise_variance) is float
                assert type(got.cross_rho) is float and got.cross_rho == want.cross_rho

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(10, 1))
        t = rng.integers(0, 2, 10)
        y = rng.normal(size=10)
        a = optimize_hyperparams(x, t, y, "nsgp", SearchConfig())
        b = optimize_hyperparams(x, t, y, "nsgp", SearchConfig())
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
@pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
def test_prior_point_covariance_is_the_gram_diagonal(rng, kind, family):
    # Var f0, Var f1 and Cov(f0, f1) at a point, bitwise the diagonals of
    # the mixed-arm Gram at any points, since the prior is stationary
    for _ in range(10):
        d = int(rng.integers(1, 6))
        params = RANDOM_PARAMS[kind](rng, d, family)
        x = rng.normal(size=(25, d))
        model = fit_gp(x, np.arange(25) % 2, rng.normal(size=25), params)
        zeros, ones = np.zeros(25, dtype=int), np.ones(25, dtype=int)
        for (a, b), arms in {(0, 0): (zeros, zeros), (1, 1): (ones, ones), (0, 1): (zeros, ones)}.items():
            np.testing.assert_array_equal(np.full(25, model._prior_point_cov[a, b]),
                                          np.diag(params.gram(x, arms[0], x, arms[1])))


@pytest.mark.parametrize("kind", ["cmgp", "nsgp"])
def test_tau_sd_is_the_bundle_contrast_sd(rng, kind):
    for _ in range(5):
        d = int(rng.integers(1, 4))
        model = random_fitted_gp(rng, n=12, dim=d, kind=kind)
        cand_x, targets = rng.normal(size=(7, d)), rng.normal(size=(9, d))
        bundle = model.moment_bundle(cand_x, rng.integers(0, 2, 7), targets)
        np.testing.assert_array_equal(model.tau_sd(targets), np.sqrt(bundle.tau_var))


@pytest.mark.parametrize("kind", ["cmgp", "nsgp"])
def test_tau_draws_are_normal_draws_at_the_contrast_moments(rng, kind):
    for _ in range(5):
        d = int(rng.integers(1, 4))
        model = random_fitted_gp(rng, n=12, dim=d, kind=kind)
        x = rng.normal(size=(9, d))
        expected = np.random.default_rng(4).normal(model.tau_mean(x)[:, None], model.tau_sd(x)[:, None], size=(9, 6))
        np.testing.assert_array_equal(model.tau_draws(x, 6, np.random.default_rng(4)), expected)


ARM_GRAM_PARAMS = {
    "cmgp": random_cmgp_params,
    "cmgp2": two_component_cmgp,
    "nsgp": random_nsgp_params,
}


class TestArmGrams:
    @pytest.mark.parametrize("rows", ["mixed", "all_control", "all_treated", "single"])
    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    @pytest.mark.parametrize("kind", sorted(ARM_GRAM_PARAMS))
    def test_bitwise_equal_to_gram_with_one_arm_columns(self, rng, kind, family, rows):
        d = 3
        params = ARM_GRAM_PARAMS[kind](rng, d, family)
        n = 1 if rows == "single" else 11
        ta = {"mixed": rng.integers(0, 2, n), "all_control": np.zeros(n, dtype=int),
              "all_treated": np.ones(n, dtype=int), "single": np.array([1])}[rows]
        xa, xb = rng.normal(size=(n, d)), rng.normal(size=(13, d))
        k0, k1 = params.arm_grams(xa, ta, xb)
        np.testing.assert_array_equal(k0, params.gram(xa, ta, xb, np.zeros(13, dtype=int)))
        np.testing.assert_array_equal(k1, params.gram(xa, ta, xb, np.ones(13, dtype=int)))

    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    @pytest.mark.parametrize("kind", sorted(ARM_GRAM_PARAMS))
    def test_row_slices_are_slices_of_the_whole(self, rng, kind, family):
        # the points are checked and scaled once; each slice, ragged,
        # single-row, one-arm or empty, is bitwise its rows of the whole
        params = ARM_GRAM_PARAMS[kind](rng, 3, family)
        xa, xb = rng.normal(size=(30, 3)), rng.normal(size=(17, 3))
        ta = rng.integers(0, 2, 30)
        ta[10:14] = 0
        whole = params.arm_grams(xa, ta, xb)
        rows_of = params.arm_gram_rows(xa, ta, xb)
        for rows in (slice(0, 7), slice(7, 14), slice(10, 14), slice(28, 35), slice(29, 30), slice(30, 37)):
            for got, want in zip(rows_of(rows), whole, strict=True):
                np.testing.assert_array_equal(got, want[rows])

    @pytest.mark.parametrize("kind", sorted(ARM_GRAM_PARAMS))
    def test_points_of_another_dimension_rejected(self, rng, kind):
        params = ARM_GRAM_PARAMS[kind](rng, 2, "matern52")
        with pytest.raises(InputError):
            params.arm_gram_rows(np.zeros((2, 3)), [0, 1], np.zeros((3, 2)))
        with pytest.raises(InputError):
            params.arm_grams(np.zeros((2, 2)), [0, 1], np.zeros((3, 1)))

    @pytest.mark.parametrize("kind", sorted(ARM_GRAM_PARAMS))
    def test_invalid_treatment_rejected(self, rng, kind):
        params = ARM_GRAM_PARAMS[kind](rng, 1, "rbf")
        for bad in (2, 0.5, np.nan):
            with pytest.raises(InputError):
                params.arm_grams(np.zeros((2, 1)), [0, bad], np.zeros((3, 1)))

    @pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
    def test_mixed_arm_queries_equal_a_build_from_gram(self, rng, kind):
        # latent_mean, latent_var, latent_cov and the off-pool bundle, bitwise
        # against the posterior built from the mixed-arm params.gram, on query
        # sets whose rows and columns mix both arms
        for d in (1, 2, 3):
            model = random_fitted_gp(rng, n=12, dim=d, kind=kind)
            params, train = model.params, (model.train_x, model.train_t)
            xa, ta = rng.normal(size=(9, d)), rng.integers(0, 2, 9)
            xb, tb = rng.normal(size=(6, d)), rng.integers(0, 2, 6)

            def solve(x, t):
                return solve_triangular(model.L, params.gram(*train, x, t), lower=True)

            va, vb = solve(xa, ta), solve(xb, tb)
            f_var = np.maximum(np.diag(params.gram(xa, ta, xa, ta)) - np.sum(va * va, axis=0), 0.0)
            mean = model.train_y.mean() + params.gram(*train, xa, ta).T @ model.alpha
            np.testing.assert_array_equal(latent_mean(model, xa, ta), mean)
            np.testing.assert_array_equal(model.latent_var(xa, ta), f_var)
            np.testing.assert_array_equal(model.latent_cov(xa, ta, xb, tb), params.gram(xa, ta, xb, tb) - va.T @ vb)
            np.testing.assert_array_equal(model.latent_cov(xa, ta, xa, ta), params.gram(xa, ta, xa, ta) - va.T @ va)

            bundle = model.moment_bundle(xa, ta, xb)
            zeros, ones = np.zeros(6, dtype=int), np.ones(6, dtype=int)
            np.testing.assert_array_equal(bundle.y_var, f_var + model.noise_variance)
            np.testing.assert_array_equal(bundle.cy0, params.gram(xa, ta, xb, zeros) - va.T @ solve(xb, zeros))
            np.testing.assert_array_equal(bundle.cy1, params.gram(xa, ta, xb, ones) - va.T @ solve(xb, ones))

    @pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
    def test_pool_mode_bundle_equals_explicit_build(self, rng, kind):
        d = 2
        model = random_fitted_gp(rng, n=12, dim=d, kind=kind)
        pool_x, pool_t = rng.normal(size=(9, d)), rng.integers(0, 2, 9)
        bundle = model.moment_bundle(pool_x, pool_t, pool_x.copy())

        def solve(k):
            return solve_triangular(model.L, k, lower=True)

        zeros, ones = np.zeros(9, dtype=int), np.ones(9, dtype=int)
        train = (model.train_x, model.train_t)
        kc = model.params.gram(*train, pool_x, pool_t)
        vc = solve(kc)
        v0, v1 = solve(model.params.gram(*train, pool_x, zeros)), solve(model.params.gram(*train, pool_x, ones))
        prior_var = np.diag(model.params.gram(pool_x, pool_t, pool_x, pool_t))
        y_var = np.maximum(prior_var - np.sum(vc * vc, axis=0), 0.0) + model.noise_variance
        np.testing.assert_array_equal(bundle.y_var, y_var)
        np.testing.assert_array_equal(bundle.cy0, model.params.gram(pool_x, pool_t, pool_x, zeros) - vc.T @ v0)
        np.testing.assert_array_equal(bundle.cy1, model.params.gram(pool_x, pool_t, pool_x, ones) - vc.T @ v1)

        mean, cov = brute_force_conditioning(
            model.params, model.train_x, model.train_t, model.train_y,
            np.vstack([pool_x, pool_x, pool_x]), np.concatenate([pool_t, zeros, ones]), model.noise_variance,
        )
        assert np.abs(latent_mean(model, pool_x, pool_t) - mean[:9]).max() < 1e-6
        assert np.abs(bundle.y_var - (np.diag(cov)[:9] + model.noise_variance)).max() < 1e-6
        assert np.abs(bundle.cy0 - cov[:9, 9:18]).max() < 1e-6
        assert np.abs(bundle.cy1 - cov[:9, 18:]).max() < 1e-6


@pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
def test_tau_mean_is_bitwise_the_rows_extended_round_by_round(rng, kind):
    # 1013 evaluation points: row blocks of 16 training points, so the 60
    # training points span four, and the later rounds' rows start inside one
    params = RANDOM_PARAMS[kind](rng, 2)
    x, t, y = growing_data(rng, 60)
    x_eval = rng.normal(size=(1013, 2))
    rows, model = gp.ContrastRows(x_eval, 60), None
    for n in (20, 27, 41, 60):
        model = fit_gp(x[:n], t[:n], y[:n], params, model)
        held = rows.tau_mean(model)
    assert model.tau_mean(x_eval).tobytes() == held.tobytes()


def traced_peak(call):
    """The tracemalloc peak of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["cmgp2", "nsgp"])
def test_tau_mean_holds_its_rows_and_one_row_block(rng, kind):
    # beyond its inputs, tau_mean holds the n x m contrast rows, the build
    # of one row block's arm cross-Grams (the largest, with the scaled
    # points they come from), the last block's pair while it builds the
    # next, and its result; both arm Grams whole would add 2 n m entries
    n, m = 200, 2000
    model = random_fitted_gp(rng, n=n, dim=2, kind=kind)
    x = rng.normal(size=(m, 2))
    model.tau_mean(x)  # one-time allocations
    step = kernels.rows_per_block(m)
    block = max(traced_peak(lambda: model.params.arm_gram_rows(model.train_x, model.train_t, x)(rows))
                for rows in (slice(start, start + step) for start in range(0, n, step)))
    held_pair = 2 * step * m * 8
    assert traced_peak(lambda: model.tau_mean(x)) <= n * m * 8 + block + held_pair + m * 8 + 4096


@pytest.mark.parametrize("kind", ["cmgp2", "nsgp"])
def test_bundle_blocks_are_slices_of_its_whole_matrices(rng, kind):
    # the GP holds cy0 and cy1 whole: a block is a slice of them, bitwise,
    # and the contrast's is the difference of the slices
    model = random_fitted_gp(rng, n=30, dim=2, kind=kind)
    cx, ct, tx = rng.normal(size=(23, 2)), rng.integers(0, 2, 23), rng.normal(size=(11, 2))
    bundle = model.moment_bundle(cx, ct, tx)
    train = (model.train_x, model.train_t)
    vc = solve_triangular(model.L, model.params.gram(*train, cx, ct), lower=True)
    whole = [model.params.gram(cx, ct, tx, np.full(11, arm))
             - vc.T @ solve_triangular(model.L, model.params.gram(*train, tx, np.full(11, arm)), lower=True)
             for arm in (0, 1)]
    for rows in (slice(0, 2), slice(8, 16), slice(16, 23), slice(22, 23)):
        out = np.empty((rows.stop - rows.start, 11))
        np.testing.assert_array_equal(bundle.cy0_rows(rows, out), whole[0][rows])
        np.testing.assert_array_equal(bundle.cy1_rows(rows, out), whole[1][rows])
        np.testing.assert_array_equal(bundle.cy_tau_rows(rows, out), whole[1][rows] - whole[0][rows])
    np.testing.assert_array_equal(bundle.cy_tau, whole[1] - whole[0])


@pytest.mark.parametrize("n_c, m", [(400, 60), (3, 20000)])
@pytest.mark.parametrize("kind", ["cmgp2", "nsgp"])
def test_bundle_matrices_built_in_row_blocks_equal_the_whole_build(rng, kind, n_c, m):
    # the candidates' prior covariances come a row block at a time (blocks
    # of 273 rows, then of one row); each matrix is bitwise the whole prior
    # less the whole product
    model = random_fitted_gp(rng, n=30, dim=2, kind=kind)
    cx, ct, tx = rng.normal(size=(n_c, 2)), rng.integers(0, 2, n_c), rng.normal(size=(m, 2))
    bundle = model.moment_bundle(cx, ct, tx)
    train = (model.train_x, model.train_t)
    vc = solve_triangular(model.L, model.params.gram(*train, cx, ct), lower=True)
    for arm, got in enumerate((bundle.cy0, bundle.cy1)):
        arms = np.full(m, arm)
        v = solve_triangular(model.L, model.params.gram(*train, tx, arms), lower=True)
        np.testing.assert_array_equal(got, model.params.gram(cx, ct, tx, arms) - vc.T @ v)


@pytest.fixture
def base_kernel_calls(monkeypatch):
    """A list that grows by one per base kernel evaluated: every base Gram,
    whole or a row block of one, is built by ``scaled_gram``, counted
    wherever ``gp`` or ``kernels`` looks it up."""
    calls = []
    original = kernels.scaled_gram

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(gp, "scaled_gram", counting)
    monkeypatch.setattr(kernels, "scaled_gram", counting)
    return calls


def test_pool_mode_bundle_builds_each_base_kernel_once_per_point_set(rng, base_kernel_calls):
    # two components, pool mode: one train x target and one target x target
    # base per component; a second Gram of either point pair would raise it.
    # The prior covariance at a point (one origin base per component) is
    # built once per model, here before the count starts
    model = fit_gp(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), rng.normal(size=20),
                   two_component_cmgp(rng, 2, "matern52"))
    pool_x, pool_t = rng.normal(size=(15, 2)), rng.integers(0, 2, 15)
    model.latent_var(pool_x[:1], pool_t[:1])
    base_kernel_calls.clear()
    model.moment_bundle(pool_x, pool_t, pool_x.copy())
    assert len(base_kernel_calls) == 4


TRAIN_ARMS = {
    "mixed": lambda rng, n: rng.integers(0, 2, n),
    "all_control": lambda rng, n: np.zeros(n, dtype=int),
    "all_treated": lambda rng, n: np.ones(n, dtype=int),
    "pair": lambda rng, n: np.array([1, 0]),
}


class TestTrainGram:
    @pytest.mark.parametrize("arms", sorted(TRAIN_ARMS))
    @pytest.mark.parametrize("dim", [1, 5])
    @pytest.mark.parametrize("family", ["rbf", "matern52"])
    @pytest.mark.parametrize("kind", sorted(ARM_GRAM_PARAMS))
    def test_bitwise_equal_to_gram(self, rng, kind, family, dim, arms):
        params = ARM_GRAM_PARAMS[kind](rng, dim, family)
        n = 2 if arms == "pair" else 23
        x, t, _ = as_labeled(rng.normal(size=(n, dim)), TRAIN_ARMS[arms](rng, n), np.zeros(n))
        np.testing.assert_array_equal(params.train_gram(gp._GramMemo(x, t)), params.gram(x, t, x, t))

    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_lml_with_a_memo_equals_lml_without(self, rng, kind, n_components, base_kernel_calls):
        # the first lengthscale takes five values in turn, three steps each, so
        # its first value is evicted before it comes back at step 15; the other
        # steps move a coordinate that leaves every base as it is. The LML
        # without a memo is taken from fit_gp's model (lml_from_fit)
        dim = 2
        x, t, y = as_labeled(rng.normal(size=(30, dim)), rng.integers(0, 2, 30), rng.normal(size=30))
        space = gp._SEARCH_SPACES[kind]
        theta0 = space.search_start(x, y - y.mean(), n_components)
        if kind == "nsgp":
            others = np.array([2 * dim + 2, 2 * dim + 3])  # noise and rho
        else:
            others = np.setdiff1d(np.arange(theta0.size), space.lengthscale_coords(dim, n_components))
        memo = gp._GramMemo(x, t)
        built = []
        for step in range(24):
            theta = theta0.copy()
            theta[0] += 0.3 * (step // 3 % 5)
            theta[others[step % others.size]] += 0.1 * step
            params = space.from_theta(theta, dim)
            base_kernel_calls.clear()
            with_memo = log_marginal_likelihood(x, t, y, params, memo)
            built.append(len(base_kernel_calls))
            assert with_memo == lml_from_fit(x, t, y, params)
            assert all(len(entries) <= gp.MEMO_ENTRIES for entries in memo._slots.values())
        assert built[15] > 0 and built.count(0) >= 16

    @pytest.mark.parametrize("arms", ["mixed", "all_control", "all_treated"])
    @pytest.mark.parametrize("n", [7, 131, 300])
    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_memo_lml_is_bitwise_the_plain_lml_across_row_blocks(self, rng, kind, n_components, n, arms):
        # the training Gram of n = 7, 131 and 300 points is built in 1, 2
        # and 6 row blocks; the plain LML is taken from fit_gp's model
        dim = 2
        x, t, y = as_labeled(rng.normal(size=(n, dim)), TRAIN_ARMS[arms](rng, n), rng.normal(size=n))
        space = gp._SEARCH_SPACES[kind]
        theta0 = space.search_start(x, y - y.mean(), n_components)
        memo = gp._GramMemo(x, t)
        for _ in range(4):
            params = space.from_theta(theta0 + rng.normal(size=theta0.size), dim)
            assert log_marginal_likelihood(x, t, y, params, memo) == lml_from_fit(x, t, y, params)

    @pytest.mark.parametrize("kind", ["cmgp", "nsgp"])
    def test_successive_evaluations_on_one_memo_equal_fresh_memos(self, rng, kind):
        # one memo through a plain evaluation, one whose factorization
        # retries, one that fails at the largest jitter and a plain one
        # again: each gives the bits of a fresh memo and of no memo, so no
        # factor leaks from one evaluation's buffer into the next
        n = 131
        x = rng.normal(size=(4, 2))[rng.integers(0, 4, n)] + 1e-9 * rng.normal(size=(n, 2))
        x, t, y = as_labeled(x, rng.integers(0, 2, n), rng.normal(size=n))

        def params(signal_variance, noise):
            k0 = KernelConfig("matern52", [1.0, 1.0], signal_variance, noise)
            if kind == "nsgp":
                return NsgpParams(k0, KernelConfig("matern52", [0.7, 1.2], signal_variance, noise), 0.9)
            return CmgpParams(kernel=k0, coreg=CoregionalizationConfig(np.array([[1.0, 0.9], [0.9, 1.0]])))

        plain, retried, failing = params(1.0, 0.1), params(1e9, 1e-10), params(1e12, 1e-10)
        assert fit_gp(x, t, y, retried).jitter_used > gp.JITTER_START
        memo = gp._GramMemo(x, t)
        for p in (plain, retried, failing, retried, plain):
            if p is failing:
                for fresh in (memo, gp._GramMemo(x, t), None):
                    with pytest.raises(NumericalError):
                        log_marginal_likelihood(x, t, y, p, fresh)
                continue
            lml = log_marginal_likelihood(x, t, y, p, memo)
            assert lml == log_marginal_likelihood(x, t, y, p, gp._GramMemo(x, t))
            assert lml == log_marginal_likelihood(x, t, y, p) == lml_from_fit(x, t, y, p)

    def test_memo_of_other_points_rejected(self, rng):
        x, t, y = as_labeled(rng.normal(size=(6, 1)), [0, 1] * 3, rng.normal(size=6))
        with pytest.raises(InputError):
            log_marginal_likelihood(x.copy(), t, y, simple_cmgp(), gp._GramMemo(x, t))

    def test_lml_without_a_memo_checks_as_fit_gp_and_builds_no_model(self, rng, monkeypatch):
        # unvalidated lists, bitwise the fit's LML, with fit_gp out of reach
        x, t, y = rng.normal(size=(6, 1)).tolist(), [0, 1] * 3, rng.normal(size=6).tolist()
        want = lml_from_fit(x, t, y, simple_cmgp())
        monkeypatch.setattr(gp, "fit_gp", None)
        monkeypatch.setattr(gp, "GpCateModel", None)
        assert log_marginal_likelihood(x, t, y, simple_cmgp()) == want
        for bad in ((x[:1], t[:1], y[:1]), (x, t, y[:5]), (x, [0, 2] * 3, y), (x, t, y[:5] + [np.nan])):
            with pytest.raises(InputError):
                log_marginal_likelihood(*bad, simple_cmgp())


def param_values(params):
    """Every number a parameter set holds, flattened."""
    if isinstance(params, NsgpParams):
        kernel_configs, extra = (params.kernel0, params.kernel1), [params.cross_rho]
    else:
        kernel_configs = [k for k, _ in params.components]
        extra = [b.task_covariance.ravel() for _, b in params.components]
    return np.concatenate(
        [np.concatenate([k.lengthscales, [k.signal_variance, k.noise_variance]]) for k in kernel_configs]
        + [np.ravel(e) for e in extra]
    )


class TestSearchMemo:
    @pytest.mark.parametrize("kind, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 1)])
    def test_search_equals_the_unmemoized_search(self, rng, monkeypatch, kind, n_components):
        x = rng.normal(size=(40, 2))
        t = rng.integers(0, 2, 40)
        y = np.sin(x[:, 0]) + t * x[:, 1] + 0.3 * rng.normal(size=40)
        search = SearchConfig(n_components=n_components)
        sizes = []
        base = gp._GramMemo.base

        def bounded_base(memo, slot, *args):
            gram = base(memo, slot, *args)
            sizes.append(len(memo._slots[slot]))
            return gram

        monkeypatch.setattr(gp._GramMemo, "base", bounded_base)
        memoized = optimize_hyperparams(x[:30], t[:30], y[:30], kind, search)
        warm = optimize_hyperparams(x, t, y, kind, search, warm_params=memoized)
        assert sizes and max(sizes) <= gp.MEMO_ENTRIES

        original = gp.log_marginal_likelihood
        monkeypatch.setattr(gp, "log_marginal_likelihood", lambda x, t, y, params, memo: original(x, t, y, params))
        plain = optimize_hyperparams(x[:30], t[:30], y[:30], kind, search)
        np.testing.assert_array_equal(param_values(memoized), param_values(plain))
        plain_warm = optimize_hyperparams(x, t, y, kind, search, warm_params=plain)
        np.testing.assert_array_equal(param_values(warm), param_values(plain_warm))

    @pytest.mark.parametrize("kind, dim, n_components, expected", [("cmgp", 1, 2, 25), ("nsgp", 5, 1, 265)])
    def test_search_base_kernel_count(self, kind, dim, n_components, expected, base_kernel_calls, monkeypatch):
        # one search of 150 evaluations (three starts of 50) at n = 60 builds
        # this many base kernels (arm blocks for nsgp), where evaluating every
        # base of every trial builds 300 (cmgp, two components) and 450
        # (nsgp); a change that builds unchanged bases again fails here
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, dim))
        t = rng.integers(0, 2, 60)
        y = np.sin(x[:, 0]) + t * x[:, -1] + 0.3 * rng.normal(size=60)
        evals = []
        original = gp.log_marginal_likelihood
        monkeypatch.setattr(gp, "log_marginal_likelihood", lambda *a: evals.append(1) or original(*a))
        optimize_hyperparams(x, t, y, kind, SearchConfig(n_components=n_components))
        assert len(evals) == 3 * gp.SEARCH_EVALS
        assert len(base_kernel_calls) == expected

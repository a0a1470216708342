import numpy as np
import pytest

from cate_al.ensemble import EnsembleLinearModel, _column_cov, fit_ensemble
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

    @pytest.mark.parametrize("n, arms", [(2, "mixed"), (5, "mixed"), (40, "mixed"), (7, "control"), (7, "treated")])
    def test_member_weights_equal_a_resample_by_resample_fit(self, rng, n, arms):
        # each member written out as a plain loop: the resample's own design,
        # its arms counted with np.unique; the library's weights are bitwise these
        x = rng.normal(size=(n, 3))
        t = {"mixed": rng.integers(0, 2, n), "control": np.zeros(n, int), "treated": np.ones(n, int)}[arms]
        y = rng.normal(size=n)
        members, ridge = 48, 1e-4
        model = fit_ensemble(x, t, y, n_members=members, ridge=ridge, rng=11)
        draws = np.random.default_rng(11)
        base = np.hstack([np.ones((n, 1)), x])
        pinned = 0
        for j in range(members):
            idx = draws.integers(0, n, size=n)
            zb = np.hstack([base[idx], t[idx, None] * base[idx]])
            penalty = np.full(8, ridge)
            if len(np.unique(t[idx])) < 2:
                penalty[4:] = 1e8
                pinned += 1
            w = np.linalg.solve(zb.T @ zb + np.diag(penalty), zb.T @ y[idx])
            np.testing.assert_array_equal(model.mu_weights[j], w[:4])
            np.testing.assert_array_equal(model.tau_weights[j], w[4:])
        if arms != "mixed":
            assert pinned == members
        elif n == 2:
            assert 0 < pinned < members  # both kinds of resample were fitted

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


class TestMemberBundleRows:
    # the bundle computes its covariance rows per block from the centred
    # member predictions; the f0 and f1 rows must be bitwise those of the
    # whole-matrix _column_cov the bundle held before

    @staticmethod
    def bundle_and_whole(rng, n_c, m):
        x, t, y = toy_data(rng, n=60)
        model = fit_ensemble(x, t, y, rng=6)
        cx, ct, tx = rng.normal(size=(n_c, 2)), rng.integers(0, 2, n_c), rng.normal(size=(m, 2))
        fc, mu, tau = model.member_f(cx, ct), model.member_mu(tx), model.member_tau(tx)
        return model.moment_bundle(cx, ct, tx), _column_cov(fc, mu), _column_cov(fc, mu + tau)

    @staticmethod
    def blocks(n_c, rows):
        return [slice(start, start + rows) for start in range(0, n_c, rows)]

    # (n_c, m, rows per block): 2- and 8-row blocks with ragged tails of 1 and
    # 5 rows, the scorers' own 109-row layout at m = 150, and m > 8192, where
    # the scorers read one row per block and BLAS would take its
    # matrix-vector path for a one-row product
    LAYOUTS = [(301, 150, 2), (17, 150, 8), (301, 150, 8), (301, 150, 109), (37, 9000, 1), (37, 9000, 2)]

    @pytest.mark.parametrize("n_c, m, rows", LAYOUTS)
    def test_potential_outcome_blocks_bitwise_equal_whole_matrix_rows(self, rng, n_c, m, rows):
        bundle, cy0, cy1 = self.bundle_and_whole(rng, n_c, m)
        buf = np.empty((rows, m))
        for block in self.blocks(n_c, rows):
            out = buf[: cy0[block].shape[0]]
            np.testing.assert_array_equal(bundle.cy0_rows(block, out), cy0[block])
            np.testing.assert_array_equal(bundle.cy1_rows(block, out), cy1[block])
        np.testing.assert_array_equal(bundle.cy0, cy0)
        np.testing.assert_array_equal(bundle.cy1, cy1)

    @pytest.mark.parametrize("n_c, m, rows", LAYOUTS)
    def test_contrast_blocks_match_the_difference_of_the_whole_matrices(self, rng, n_c, m, rows):
        bundle, cy0, cy1 = self.bundle_and_whole(rng, n_c, m)
        diff = cy1 - cy0
        scale = np.abs(diff).max()
        buf = np.empty((rows, m))
        for block in self.blocks(n_c, rows):
            got = bundle.cy_tau_rows(block, buf[: diff[block].shape[0]])
            assert np.abs(got - diff[block]).max() <= 1e-12 * scale
        assert np.abs(bundle.cy_tau - diff).max() <= 1e-12 * scale

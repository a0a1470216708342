import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cate_al.errors import InputError
from cate_al.gp import fit_gp

from conftest import assert_bundles_close, random_fitted_gp
from oracles import (
    JointGaussianBelief,
    SamplePosterior,
    empirical_gaussian_fit,
    predictive_belief,
    quantity_labels,
)


class TestSamplePosterior:
    def test_rejects_single_draw(self):
        with pytest.raises(InputError):
            SamplePosterior(draws=np.array([[1.0, 2.0]]), labels=("a", "b"))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            SamplePosterior(draws=np.array([[1.0], [np.inf]]), labels=("a",))

    def test_label_count_must_match(self):
        with pytest.raises(InputError):
            SamplePosterior(draws=np.zeros((3, 2)), labels=("a",))


class TestEmpiricalGaussianFit:
    def test_identical_draws_give_zero_covariance(self):
        draws = np.tile([1.5, -2.0], (5, 1))
        belief = empirical_gaussian_fit(SamplePosterior(draws=draws, labels=("a", "b")))
        assert np.all(belief.cov == 0.0)
        np.testing.assert_array_equal(belief.mean, [1.5, -2.0])

    def test_hand_computed_two_column_case(self):
        draws = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        belief = empirical_gaussian_fit(SamplePosterior(draws=draws, labels=("a", "b")))
        # ssq around the mean is 2 with divisor n - 1 = 2
        assert belief.cov[0, 0] == pytest.approx(1.0)
        assert belief.cov[1, 1] == pytest.approx(1.0)
        assert belief.cov[0, 1] == pytest.approx(1.0)

    def test_monte_carlo_convergence_to_known_gaussian(self):
        # oracle: draws from a known covariance recover it within 1%
        rng = np.random.default_rng(0)
        cov = np.array([[2.0, 0.8, -0.3], [0.8, 1.0, 0.4], [-0.3, 0.4, 1.5]])
        left = np.linalg.cholesky(cov)
        draws = rng.standard_normal((1_000_000, 3)) @ left.T
        belief = empirical_gaussian_fit(SamplePosterior(draws=draws, labels=("a", "b", "c")))
        assert np.abs(belief.cov - cov).max() / np.abs(cov).max() < 0.01

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_fit_is_symmetric_with_nonnegative_diagonal(self, n, k, seed):
        rng = np.random.default_rng(seed)
        draws = rng.normal(size=(n, k))
        belief = empirical_gaussian_fit(SamplePosterior(draws=draws, labels=tuple(f"q{i}" for i in range(k))))
        assert np.array_equal(belief.cov, belief.cov.T)
        assert np.all(np.diag(belief.cov) >= 0)


class TestJointGaussianBelief:
    def test_dimension_validation(self):
        with pytest.raises(InputError):
            JointGaussianBelief(labels=("a",), mean=np.zeros(2), cov=np.eye(2))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InputError):
            JointGaussianBelief(labels=("a", "b"), mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(InputError):
            JointGaussianBelief(labels=("a", "b"), mean=np.zeros(2), cov=np.diag([1.0, -0.5]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputError):
            JointGaussianBelief(labels=("a", "a"), mean=np.zeros(2), cov=np.eye(2))

    def test_unknown_label_lookup(self):
        b = JointGaussianBelief(labels=("a",), mean=np.zeros(1), cov=np.eye(1))
        with pytest.raises(InputError):
            b.index("missing")


class TestUniformInterface:
    def test_cauchy_schwarz_between_outcome_and_contrast(self, rng):
        # holds for any model realization of the (y, tau) belief
        for _ in range(50):
            kind = "cmgp" if rng.uniform() < 0.5 else "nsgp"
            model = random_fitted_gp(rng, n=int(rng.integers(4, 9)), kind=kind)
            belief = predictive_belief(model, (rng.normal(size=1), int(rng.integers(0, 2))), rng.normal(size=(2, 1)))
            iy = belief.index("y")
            for j in range(2):
                it = belief.index(f"tau@{j}")
                lhs = belief.cov[iy, it] ** 2
                assert lhs <= belief.cov[iy, iy] * belief.cov[it, it] + 1e-10

    def test_gp_belief_matches_sampled_empirical_fit(self, rng):
        # sampling the same posterior and refitting agrees within 2%
        model = random_fitted_gp(rng, n=6, kind="cmgp")
        candidate = (np.array([0.1]), 1)
        targets = np.array([[0.3]])
        belief = predictive_belief(model, candidate, targets)

        sampler = np.random.default_rng(42)
        scale = np.abs(belief.cov).max()
        left = np.linalg.cholesky(belief.cov + 1e-12 * scale * np.eye(belief.cov.shape[0]))
        draws = belief.mean + sampler.standard_normal((100_000, belief.cov.shape[0])) @ left.T
        refit = empirical_gaussian_fit(SamplePosterior(draws=draws, labels=belief.labels))
        # 2% relative agreement on entries whose size supports a relative
        # reading at this draw count; near-zero entries compared on scale
        mask = np.abs(belief.cov) > 0.2 * scale
        rel = np.abs(refit.cov - belief.cov)[mask] / np.abs(belief.cov)[mask]
        assert rel.max() < 0.02
        assert (np.abs(refit.cov - belief.cov)[~mask] / scale).max() < 0.02

    def test_quantity_label_ordering(self):
        assert quantity_labels(2) == ("y", "f0@0", "f1@0", "tau@0", "f0@1", "f1@1", "tau@1")


class TestConditionedBundle:
    @pytest.mark.parametrize("kind", ["cmgp", "cmgp2", "nsgp"])
    @pytest.mark.parametrize("n_b", [1, 7, 20])
    def test_equals_the_fresh_bundle_of_the_conditioned_fit(self, rng, kind, n_b):
        # three rounds: each conditions the last round's bundle on a random
        # batch of its pool, by the batch's block of the factor of a fresh
        # fit on the grown labeled set, against that fit's bundle
        model = random_fitted_gp(rng, n=15, dim=2, kind=kind)
        x, t, y = model.train_x, model.train_t, model.train_y
        pool_x, pool_t = rng.normal(size=(90, 2)), rng.integers(0, 2, 90)
        bundle = model.moment_bundle(pool_x, pool_t, pool_x)
        for _ in range(3):
            batch = rng.choice(pool_t.size, size=n_b, replace=False)
            n = t.size
            x, t = np.vstack([x, pool_x[batch]]), np.concatenate([t, pool_t[batch]])
            y = np.concatenate([y, rng.normal(size=n_b)])
            refit = fit_gp(x, t, y, model.params)
            assert refit.jitter_used == model.jitter_used
            bundle = bundle.condition(batch, refit.L[n:, n:])
            keep = np.setdiff1d(np.arange(pool_t.size), batch)
            pool_x, pool_t = pool_x[keep], pool_t[keep]
            assert_bundles_close(bundle, refit.moment_bundle(pool_x, pool_t, pool_x))

    def test_works_in_its_own_buffers(self, rng):
        model = random_fitted_gp(rng, n=10, dim=1, kind="nsgp")
        pool_x, pool_t = rng.normal(size=(40, 1)), rng.integers(0, 2, 40)
        bundle = model.moment_bundle(pool_x, pool_t, pool_x)
        cy0, cy1 = bundle.cy0, bundle.cy1
        batch = [3, 0, 17]
        refit = fit_gp(np.vstack([model.train_x, pool_x[batch]]), np.concatenate([model.train_t, pool_t[batch]]),
                       rng.normal(size=13), model.params)
        assert bundle.condition(batch, refit.L[10:, 10:]) is bundle
        assert bundle.cy0 is cy0 and bundle.cy1 is cy1
        assert bundle.shape == cy0.shape == cy1.shape == (37, 37)
        np.testing.assert_array_equal(bundle.arms, np.delete(pool_t, batch))
        assert cy0.flags.c_contiguous and cy0.flags.owndata

    def test_a_gp_bundle_keeps_one_arm_per_candidate(self, rng):
        model = random_fitted_gp(rng, n=10, dim=1)
        pool_x, pool_t = rng.normal(size=(6, 1)), rng.integers(0, 2, 6)
        for targets in (pool_x, pool_x[:4]):
            np.testing.assert_array_equal(model.moment_bundle(pool_x, pool_t, targets).arms, pool_t)
            for arms in (pool_t[:5], pool_t[:1]):  # one arm would broadcast over all six
                with pytest.raises(InputError, match="lengths disagree"):
                    model.moment_bundle(pool_x, arms, targets)

    def test_rejects_what_it_cannot_condition(self, rng):
        model = random_fitted_gp(rng, n=10, dim=1)
        pool_x, pool_t = rng.normal(size=(6, 1)), rng.integers(0, 2, 6)
        one = np.eye(1)
        with pytest.raises(InputError, match="pool-mode"):
            model.moment_bundle(pool_x, pool_t, pool_x[:4]).condition([0], one)
        for batch, low in (([], one), ([6], one), ([-1], one), ([1, 1], one), ([0.5], one), ([[0]], one),
                           ([0], 0.5), ([0], np.ones(1)), ([0], np.eye(2)),
                           ([0, 1], one), ([0, 1], np.ones((2, 1)))):
            with pytest.raises(InputError):
                model.moment_bundle(pool_x, pool_t, pool_x).condition(batch, low)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cate_al.errors import InputError

from conftest import random_fitted_gp
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

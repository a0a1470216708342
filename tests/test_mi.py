import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cate_al.errors import InputError, NumericalError

from oracles import JointGaussianBelief, gaussian_mi_block, gaussian_mi_scalar, mc_mi_oracle


def belief_from_cov(cov, labels=None):
    cov = np.asarray(cov, dtype=float)
    labels = labels or tuple(f"q{i}" for i in range(cov.shape[0]))
    return JointGaussianBelief(labels=labels, mean=np.zeros(cov.shape[0]), cov=cov)


def random_psd_belief(rng, k, min_rel_eig=0.05):
    a = rng.normal(size=(k, k))
    cov = a @ a.T
    w, v = np.linalg.eigh(cov)
    w = np.maximum(w, min_rel_eig * w.max())
    return belief_from_cov(v @ np.diag(w) @ v.T)


class TestScalarMi:
    def test_independent_variables_carry_no_information(self):
        assert gaussian_mi_scalar(1.0, 1.0, 0.0) == 0.0

    def test_known_correlation_value(self):
        expected = 0.5 * np.log(1.0 / 0.64)
        assert gaussian_mi_scalar(1.0, 1.0, 0.6) == pytest.approx(expected, abs=1e-12)

    def test_floor_variances_score_zero(self):
        assert gaussian_mi_scalar(1e-13, 1.0, 1e-8) == 0.0
        assert gaussian_mi_scalar(1.0, 0.0, 0.0) == 0.0

    def test_covariance_bound_violation_raises(self):
        with pytest.raises(NumericalError):
            gaussian_mi_scalar(1.0, 1.0, 1.1)

    def test_negative_variance_rejected(self):
        with pytest.raises(InputError):
            gaussian_mi_scalar(-1.0, 1.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.floats(-0.999, 0.999))
    def test_nonnegative_and_symmetric_in_arguments(self, va, vb, corr):
        cov = corr * np.sqrt(va * vb)
        mi = gaussian_mi_scalar(va, vb, cov)
        assert mi >= 0.0
        assert mi == gaussian_mi_scalar(vb, va, cov)

    def test_matches_mc_oracle_on_random_pairs(self, rng):
        for _ in range(10):
            b = random_psd_belief(rng, 2)
            exact = gaussian_mi_scalar(b.cov[0, 0], b.cov[1, 1], b.cov[0, 1])
            est = mc_mi_oracle(b, ["q0"], ["q1"], 200_000, rng)
            assert abs(exact - est) < 0.02


class TestBlockMi:
    def test_block_diagonal_scores_zero(self):
        cov = np.diag([1.0, 2.0, 3.0])
        b = belief_from_cov(cov)
        assert gaussian_mi_block(b, ["q0"], ["q1", "q2"]) == 0.0

    def test_scalar_blocks_reduce_to_scalar_mi(self, rng):
        for _ in range(20):
            b = random_psd_belief(rng, 2)
            block = gaussian_mi_block(b, ["q0"], ["q1"])
            scalar = gaussian_mi_scalar(b.cov[0, 0], b.cov[1, 1], b.cov[0, 1])
            assert block == pytest.approx(scalar, abs=1e-10)

    def test_one_against_two_matches_mc_oracle(self, rng):
        cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.0], [0.3, 0.0, 1.0]])
        b = belief_from_cov(cov)
        exact = gaussian_mi_block(b, ["q0"], ["q1", "q2"])
        est = mc_mi_oracle(b, ["q0"], ["q1", "q2"], 2_000_000, np.random.default_rng(0))
        assert abs(exact - est) < 0.01

    def test_symmetry_is_exact(self, rng):
        for _ in range(50):
            b = random_psd_belief(rng, 4)
            ab = gaussian_mi_block(b, ["q0", "q2"], ["q1", "q3"])
            ba = gaussian_mi_block(b, ["q1", "q3"], ["q0", "q2"])
            assert ab == ba

    def test_overlapping_blocks_rejected(self, rng):
        b = random_psd_belief(rng, 3)
        with pytest.raises(InputError):
            gaussian_mi_block(b, ["q0", "q1"], ["q1", "q2"])

    def test_empty_block_rejected(self, rng):
        b = random_psd_belief(rng, 2)
        with pytest.raises(InputError):
            gaussian_mi_block(b, [], ["q0"])

    def test_zero_variance_block_scores_zero(self):
        cov = np.zeros((2, 2))
        cov[0, 0] = 1.0
        b = belief_from_cov(cov)
        assert gaussian_mi_block(b, ["q0"], ["q1"]) == 0.0

    def test_duplicated_quantity_degrades_gracefully(self, rng):
        # a duplicated column makes the joint block singular; jitter keeps the
        # determinant ratio finite and close to the deduplicated value
        base = random_psd_belief(rng, 3).cov
        cov = np.zeros((4, 4))
        cov[:3, :3] = base
        cov[3, :3] = base[2, :3]
        cov[:3, 3] = base[:3, 2]
        cov[3, 3] = base[2, 2]
        b4 = belief_from_cov(cov)
        b3 = belief_from_cov(base)
        dup = gaussian_mi_block(b4, ["q0"], ["q1", "q2", "q3"])
        dedup = gaussian_mi_block(b3, ["q0"], ["q1", "q2"])
        assert dup == pytest.approx(dedup, abs=1e-6)


class TestMcOracle:
    def test_zero_covariance_estimate_is_tiny(self):
        b = belief_from_cov(np.diag([1.0, 2.0]))
        est = mc_mi_oracle(b, ["q0"], ["q1"], 10_000_000, np.random.default_rng(1))
        assert abs(est) < 0.005

    def test_known_correlation_recovered(self):
        b = belief_from_cov(np.array([[1.0, 0.6], [0.6, 1.0]]))
        est = mc_mi_oracle(b, ["q0"], ["q1"], 2_000_000, np.random.default_rng(2))
        assert est == pytest.approx(0.5 * np.log(1.0 / 0.64), abs=0.01)

    def test_error_shrinks_with_sample_size(self):
        b = belief_from_cov(np.array([[1.0, 0.35], [0.35, 1.0]]))
        exact = gaussian_mi_scalar(1.0, 1.0, 0.35)
        errs = []
        for n in (1_000, 100_000, 10_000_000):
            vals = [mc_mi_oracle(b, ["q0"], ["q1"], n, np.random.default_rng(seed)) for seed in range(5)]
            errs.append(float(np.mean([abs(v - exact) for v in vals])))
        assert errs[0] > errs[1] > errs[2]

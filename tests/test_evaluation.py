import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cate_al.errors import InputError
from cate_al.evaluation import (
    RunRecord,
    StepEntry,
    relative_improvement,
    sqrt_pehe,
    summarize_runs,
)


class TestSqrtPehe:
    def test_perfect_estimate_scores_zero(self, rng):
        tau = rng.normal(size=20)
        assert sqrt_pehe(tau, tau) == 0.0

    def test_constant_offset(self, rng):
        tau = rng.normal(size=20)
        assert sqrt_pehe(tau + 1.0, tau) == pytest.approx(1.0)

    def test_hand_computed_value(self):
        assert sqrt_pehe([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_length_mismatch_and_empty_rejected(self):
        with pytest.raises(InputError):
            sqrt_pehe([1.0], [1.0, 2.0])
        with pytest.raises(InputError):
            sqrt_pehe([], [])

    @settings(max_examples=75, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.integers(0, 2**31 - 1))
    def test_permutation_and_joint_negation_invariance(self, values, seed):
        rng = np.random.default_rng(seed)
        a = np.asarray(values)
        b = rng.normal(size=a.size)
        perm = rng.permutation(a.size)
        assert sqrt_pehe(a, b) == pytest.approx(sqrt_pehe(a[perm], b[perm]), rel=1e-12, abs=1e-12)
        assert sqrt_pehe(a, b) == pytest.approx(sqrt_pehe(-a, -b), rel=1e-12, abs=1e-12)


class TestRelativeImprovement:
    def test_identical_curves_score_zero(self):
        np.testing.assert_array_equal(relative_improvement([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])

    def test_halved_error_scores_half(self):
        np.testing.assert_allclose(relative_improvement([0.5, 1.0], [1.0, 2.0]), [0.5, 0.5])

    def test_hand_computed_values(self):
        np.testing.assert_allclose(relative_improvement([1.0, 3.0], [2.0, 4.0]), [0.5, 0.25])

    def test_zero_random_reported_missing(self):
        out = relative_improvement([1.0, 1.0], [0.0, 2.0])
        assert np.isnan(out[0]) and out[1] == pytest.approx(0.5)

    def test_misaligned_grids_rejected(self):
        with pytest.raises(InputError):
            relative_improvement([1.0], [1.0, 2.0])


def record(method="m", seed=0, pools=(1.0, 0.5), failed=False, dataset="d", estimator="e"):
    entries = [
        StepEntry(step=k, n_labeled=10 * (k + 1), sqrt_pehe_pool=v, sqrt_pehe_test=v + 0.1,
                  acq_seconds=0.01 * k)
        for k, v in enumerate(pools)
    ]
    return RunRecord(method=method, estimator=estimator, dataset=dataset, variant="standard",
                     seed=seed, entries=entries, failed=failed)


def pool_lines(records):
    """The sqrt_pehe_pool lines of a summary, as (step, mean, sd, count)."""
    return [(line[4], *line[7:]) for line in summarize_runs(records) if line[6] == "sqrt_pehe_pool"]


class TestAggregation:
    def test_single_run_reports_zero_sd_with_unit_count(self):
        lines = pool_lines([record()])
        assert len(lines) == 2
        assert all(sd == 0.0 and count == 1 for _, _, sd, count in lines)

    def test_two_run_mean_and_sd(self):
        (line,) = pool_lines([record(seed=0, pools=(1.0,)), record(seed=1, pools=(3.0,))])
        assert line[1] == pytest.approx(2.0)
        assert line[2] == pytest.approx(np.sqrt(2.0))
        assert line[3] == 2

    def test_order_insensitive(self):
        recs = [record(method=m, seed=s, pools=(1.0 + s + (m == "random"), 0.5))
                for m in ("m", "random") for s in range(4)]
        assert list(summarize_runs(recs)) == list(summarize_runs(recs[::-1]))

    def test_failed_runs_excluded_and_counted(self):
        recs = [record(seed=0), record(seed=1, failed=True)]
        assert all(count == 1 for *_, count in pool_lines(recs))
        failed_line = ("d", "standard", "e", "m", None, None, "failed_runs", 1, None, None)
        assert list(summarize_runs(recs))[-1] == failed_line

    def test_inconsistent_grids_rejected(self):
        bad = record(seed=1)
        bad.entries[1].n_labeled = 999
        with pytest.raises(InputError):
            list(summarize_runs([record(seed=0), bad]))

    def test_strictly_increasing_label_counts_enforced(self):
        rec = record()
        rec.entries[1].n_labeled = rec.entries[0].n_labeled
        with pytest.raises(InputError):
            list(summarize_runs([rec]))

    @pytest.mark.parametrize("field", ["sqrt_pehe_pool", "sqrt_pehe_test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5])
    def test_a_pehe_that_is_not_finite_and_nonnegative_is_rejected(self, field, value):
        rec = record()
        setattr(rec.entries[1], field, value)
        with pytest.raises(InputError, match="finite and nonnegative"):
            rec.validate()
        with pytest.raises(InputError):
            list(summarize_runs([rec]))

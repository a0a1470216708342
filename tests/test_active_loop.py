import numpy as np
import pytest
from scipy.stats import chisquare

from cate_al import active_loop
from cate_al.acquisition import AcquisitionMethod
from cate_al.active_loop import (
    ActiveState,
    LabelOracle,
    LoopConfig,
    run_active_learning,
    select_batch,
    warm_start,
)
from cate_al.dgp import gen_causalbald
from cate_al.errors import InputError, NumericalError


def small_pools(seed=0, n=40):
    return gen_causalbald(n, rng=seed), gen_causalbald(n, rng=seed + 1000)


def fast_config(method="random", **kw):
    defaults = dict(n_init=6, n_b=3, n_budget=12, estimator="ensemble",
                    method=AcquisitionMethod(method), seed=0)
    defaults.update(kw)
    return LoopConfig(**defaults)


class TestWarmStart:
    def test_taking_the_whole_pool_empties_it(self):
        oracle = LabelOracle(np.arange(5, dtype=float))
        state = warm_start(range(5), 5, oracle, rng=0)
        assert state.pool == []
        assert sorted(state.labeled) == [0, 1, 2, 3, 4]

    def test_fixed_seed_reproducible(self):
        a = warm_start(range(30), 10, LabelOracle(np.zeros(30)), rng=7)
        b = warm_start(range(30), 10, LabelOracle(np.zeros(30)), rng=7)
        assert a.labeled == b.labeled

    def test_no_duplicates_selected(self):
        state = warm_start(range(50), 25, LabelOracle(np.zeros(50)), rng=1)
        assert len(set(state.labeled)) == 25

    def test_oversized_request_rejected(self):
        with pytest.raises(InputError):
            warm_start(range(3), 4, LabelOracle(np.zeros(3)), rng=0)

    def test_reveals_factual_outcomes_only_for_chosen(self):
        outcomes = np.arange(10, dtype=float)
        oracle = LabelOracle(outcomes)
        state = warm_start(range(10), 4, oracle, rng=2)
        assert set(oracle.revealed) == set(state.labeled)
        assert state.labeled_y == [outcomes[i] for i in state.labeled]


class TestSelectBatch:
    def test_zero_temperature_takes_top_scores(self):
        assert select_batch([3.0, 1.0, 2.0], 2, 0.0, rng=0) == [0, 2]

    def test_ties_break_to_lowest_index(self):
        assert select_batch([1.0, 1.0, 1.0, 1.0], 2, 0.0, rng=0) == [0, 1]

    def test_high_temperature_approaches_uniform(self):
        rng = np.random.default_rng(0)
        counts = np.zeros(10)
        for _ in range(10_000):
            picked = select_batch(np.arange(10.0), 1, 1e6, rng)
            counts[picked[0]] += 1
        _, p = chisquare(counts)
        assert p > 0.01

    def test_positive_temperature_prefers_high_scores(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(3)
        for _ in range(2_000):
            counts[select_batch([0.0, 0.0, 5.0], 1, 1.0, rng)[0]] += 1
        assert counts[2] > 0.8 * counts.sum()

    def test_sampling_without_replacement(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            picked = select_batch([1.0, 2.0, 3.0, 4.0], 3, 0.7, rng)
            assert len(set(picked)) == 3

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(InputError):
            select_batch([1.0, np.nan], 1, 0.0, rng=0)

    def test_oversized_batch_rejected(self):
        with pytest.raises(InputError):
            select_batch([1.0], 2, 0.0, rng=0)


class TestTargetModes:
    def test_mode_toggles(self):
        assert fast_config(target_mode="test").target_mode == "test"
        with pytest.raises(InputError):
            fast_config(target_mode="validation")

    def test_pool_targets_shrink_and_test_targets_stay(self):
        pool, test = small_pools()
        for mode, expect in (("pool", 40 - 6 - 3), ("test", 40)):
            cfg = fast_config(method="causal_epig_tau", target_mode=mode, n_budget=9)
            rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
            assert not rec.failed


class TestRunLoop:
    def test_round_arithmetic(self):
        pool, test = small_pools(n=10)
        cfg = fast_config(n_init=4, n_b=2, n_budget=8)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert len(rec.entries) == 3  # warm start + 2 acquisition rounds
        assert rec.entries[-1].n_labeled == 8

    def test_budget_equal_to_warm_start_means_no_rounds(self):
        pool, test = small_pools(n=10)
        cfg = fast_config(n_init=4, n_b=2, n_budget=4)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert len(rec.entries) == 1

    def test_final_round_truncates_to_budget(self):
        pool, test = small_pools(n=20)
        cfg = fast_config(n_init=4, n_b=5, n_budget=11)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert [e.n_labeled for e in rec.entries] == [4, 9, 11]

    def test_pool_exhaustion_stops_the_loop(self):
        pool, test = small_pools(n=8)
        cfg = fast_config(n_init=4, n_b=3, n_budget=100)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert rec.entries[-1].n_labeled == 8

    def test_same_seed_identical_trajectories(self):
        pool, test = small_pools()
        cfg = fast_config(method="random")
        a = run_active_learning(cfg, pool, test, np.random.default_rng(5))
        b = run_active_learning(cfg, pool, test, np.random.default_rng(5))
        assert [e.acquired for e in a.entries] == [e.acquired for e in b.entries]
        assert [e.sqrt_pehe_pool for e in a.entries] == [e.sqrt_pehe_pool for e in b.entries]
        assert [e.sqrt_pehe_test for e in a.entries] == [e.sqrt_pehe_test for e in b.entries]

    def test_different_seeds_diverge(self):
        pool, test = small_pools()
        cfg = fast_config(method="random")
        a = run_active_learning(cfg, pool, test, np.random.default_rng(1))
        b = run_active_learning(cfg, pool, test, np.random.default_rng(2))
        assert [e.acquired for e in a.entries[1:]] != [e.acquired for e in b.entries[1:]]

    def test_budget_monotone_and_steps_sized(self):
        pool, test = small_pools(n=30)
        cfg = fast_config(n_init=5, n_b=4, n_budget=21)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        counts = [e.n_labeled for e in rec.entries]
        assert counts == sorted(counts)
        for prev, cur in zip(counts, counts[1:]):
            assert cur - prev == min(4, 21 - prev)

    def test_gp_estimator_with_informative_method_runs(self):
        pool, test = small_pools(n=30)
        cfg = fast_config(method="causal_epig_mu", estimator="cmgp", n_init=8,
                          n_b=4, n_budget=16, search_evals=20, search_restarts=1)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert not rec.failed
        assert all(e.sqrt_pehe_pool >= 0 for e in rec.entries)
        assert all(e.acq_seconds >= 0 for e in rec.entries[1:])

    def test_propensity_backed_method_runs(self):
        pool, test = small_pools(n=30)
        cfg = fast_config(method="mu_pi_bald", n_budget=9)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert not rec.failed

    @pytest.mark.parametrize("method", ["sundin", "coreset_qhte", "tau_bald", "mu_rho_bald",
                                        "epig_factual", "causal_eig"])
    def test_remaining_methods_complete(self, method):
        pool, test = small_pools(n=24)
        cfg = fast_config(method=method, n_budget=9)
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        assert not rec.failed

    def test_scoring_failure_fails_the_run_and_keeps_earlier_rounds(self, monkeypatch):
        calls = []

        def failing_score_pool(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalError("covariance exceeds the variance bound")
            return original(*args)

        original = active_loop.score_pool
        monkeypatch.setattr(active_loop, "score_pool", failing_score_pool)
        pool, test = small_pools()
        rec = run_active_learning(fast_config(method="mu_bald"), pool, test, np.random.default_rng(0))
        assert rec.failed
        assert rec.failure_reason == "round 2 scoring failed: covariance exceeds the variance bound"
        assert [e.step for e in rec.entries] == [0, 1]

    def test_warm_start_fit_failure_names_the_warm_start(self, monkeypatch):
        def failing_fit(*args, **kw):
            raise NumericalError("Cholesky failed")

        monkeypatch.setattr(active_loop, "fit_ensemble", failing_fit)
        pool, test = small_pools()
        rec = run_active_learning(fast_config(), pool, test, np.random.default_rng(0))
        assert rec.failed
        assert rec.failure_reason == "warm-start fit failed: Cholesky failed"
        assert rec.entries == []

    def test_round_fit_failure_keeps_earlier_rounds(self, monkeypatch):
        calls = []

        def failing_fit(*args, **kw):
            calls.append(1)
            if len(calls) == 3:
                raise NumericalError("Cholesky failed")
            return original(*args, **kw)

        original = active_loop.fit_ensemble
        monkeypatch.setattr(active_loop, "fit_ensemble", failing_fit)
        pool, test = small_pools()
        rec = run_active_learning(fast_config(), pool, test, np.random.default_rng(0))
        assert rec.failure_reason == "round 2 fit failed: Cholesky failed"
        assert [e.step for e in rec.entries] == [0, 1]

    def test_shared_warm_start_aligns_step_zero(self):
        pool, test = small_pools()
        recs = []
        for method in ("random", "causal_epig_tau"):
            cfg = fast_config(method=method, warm_start_seed=123)
            recs.append(run_active_learning(cfg, pool, test, np.random.default_rng(11)))
        assert recs[0].entries[0].acquired == recs[1].entries[0].acquired
        assert recs[0].entries[0].sqrt_pehe_pool == recs[1].entries[0].sqrt_pehe_pool

    def test_replaying_acquisition_history_reproduces_labeled_sets(self):
        pool, test = small_pools()
        cfg = fast_config(method="causal_epig_tau")
        rec = run_active_learning(cfg, pool, test, np.random.default_rng(3))
        again = run_active_learning(cfg, pool, test, np.random.default_rng(3))
        replayed = set()
        for a, b in zip(rec.entries, again.entries):
            assert a.acquired == b.acquired
            replayed.update(a.acquired)
        assert len(replayed) == rec.entries[-1].n_labeled

    def test_config_validation(self):
        with pytest.raises(InputError):
            fast_config(n_init=0)
        with pytest.raises(InputError):
            fast_config(n_budget=2, n_init=6)
        with pytest.raises(InputError):
            fast_config(estimator="forest")
        with pytest.raises(InputError):
            fast_config(temperature=-1.0)


class TestStateValidation:
    def test_overlap_detected(self):
        state = ActiveState(labeled=[1], labeled_y=[0.0], pool=[1, 2], target_mode="pool")
        with pytest.raises(InputError):
            state.validate()

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chisquare

from cate_al import active_loop
from cate_al.acquisition import AcquisitionMethod
from cate_al.active_loop import (
    LabelOracle,
    LoopConfig,
    run_active_learning,
    select_batch,
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


def acquired(record):
    return [i for e in record.entries for i in e.acquired]


class TestWarmStart:
    def test_taking_the_whole_pool_empties_it(self):
        pool, test = small_pools(n=6)
        rec = run_active_learning(fast_config(n_init=6), pool, test, np.random.default_rng(0))
        assert not rec.failed
        assert [e.acquired for e in rec.entries] == [(0, 1, 2, 3, 4, 5)]

    def test_fixed_seed_reproducible(self):
        pool, test = small_pools(n=30)
        a, b = (run_active_learning(fast_config(n_init=10, n_budget=10), pool, test, np.random.default_rng(7))
                for _ in range(2))
        assert a.entries[0].acquired == b.entries[0].acquired

    def test_no_duplicates_selected(self):
        pool, test = small_pools(n=50)
        rec = run_active_learning(fast_config(n_init=25, n_b=5, n_budget=40), pool, test, np.random.default_rng(1))
        warm = rec.entries[0].acquired
        assert list(warm) == sorted(warm) and len(warm) == 25
        assert len(set(acquired(rec))) == len(acquired(rec)) == 40

    def test_oversized_request_rejected(self):
        pool, test = small_pools(n=3)
        with pytest.raises(InputError, match="warm-start size 4 exceeds pool size 3"):
            run_active_learning(fast_config(n_init=4, n_budget=4), pool, test, np.random.default_rng(0))

    def test_reveals_factual_outcomes_only_for_chosen(self, monkeypatch):
        oracles = []

        class RecordingOracle(LabelOracle):
            def __init__(self, outcomes):
                super().__init__(outcomes)
                oracles.append(self)

        monkeypatch.setattr(active_loop, "LabelOracle", RecordingOracle)
        pool, test = small_pools()
        rec = run_active_learning(fast_config(), pool, test, np.random.default_rng(2))
        assert [len(e.acquired) for e in rec.entries] == [6, 3, 3]
        assert oracles[0].revealed == {i: pool.outcomes[i] for i in acquired(rec)}


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
                          n_b=4, n_budget=16)
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
        with pytest.raises(InputError):
            fast_config(temperature=float("nan"))


def entry_bits(record):
    """Every recorded field of each round except its wall-clock seconds."""
    return [(e.step, e.n_labeled, e.sqrt_pehe_pool.hex(), e.sqrt_pehe_test.hex(), e.acquired) for e in record.entries]


class TestBlasThreads:
    @pytest.fixture
    def two_threads(self):
        """Every OpenBLAS at two threads for the test, then as it was."""
        controls = active_loop._openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS with a thread setter is loaded")
        saved = [get() for _, get, _ in controls]
        for _, _, set_ in controls:
            set_(2)
        yield lambda: [get() for _, get, _ in controls]
        for (_, _, set_), count in zip(controls, saved):
            set_(count)

    def test_a_cell_runs_on_one_thread_and_restores_the_callers_count(self, two_threads, monkeypatch):
        seen = []

        def counting_fit(*args, **kw):
            seen.append(two_threads())
            return original(*args, **kw)

        original = active_loop.fit_ensemble
        monkeypatch.setattr(active_loop, "fit_ensemble", counting_fit)
        pool, test = small_pools()
        assert not run_active_learning(fast_config(), pool, test, np.random.default_rng(0)).failed
        assert len(seen) == 3 and all(set(counts) == {1} for counts in seen)
        assert set(two_threads()) == {2}

    def test_a_raising_cell_restores_the_callers_count(self, two_threads, monkeypatch):
        def broken_score_pool(*args):
            raise RuntimeError("scorer bug")

        monkeypatch.setattr(active_loop, "score_pool", broken_score_pool)
        pool, test = small_pools()
        with pytest.raises(RuntimeError, match="scorer bug"):
            run_active_learning(fast_config(), pool, test, np.random.default_rng(0))
        assert set(two_threads()) == {2}

    def test_a_cell_without_openblas_runs_unchanged(self, monkeypatch):
        pool, test = small_pools()
        cfg = fast_config(method="causal_epig_tau", estimator="cmgp", n_init=8, n_budget=14)
        expected = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        monkeypatch.setattr(active_loop, "_openblas_thread_controls", lambda: [])
        assert entry_bits(run_active_learning(cfg, pool, test, np.random.default_rng(0))) == entry_bits(expected)

    def test_cell_rows_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS's multi-threaded potrf and gemm round differently from its
        # single-threaded ones once the fits reach n >= 150
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: OpenBLAS runs single-threaded either way")
        if not active_loop._openblas_thread_controls():
            pytest.skip("no OpenBLAS with a thread setter is loaded")
        code = (
            "import numpy as np\n"
            "from test_active_loop import entry_bits, fast_config\n"
            "from cate_al.active_loop import run_active_learning\n"
            "from cate_al.dgp import gen_causalbald\n"
            "cfg = fast_config(method='causal_epig_tau', estimator='cmgp', n_init=150, n_b=10, n_budget=170)\n"
            "rec = run_active_learning(cfg, gen_causalbald(300, rng=0), gen_causalbald(100, rng=1),\n"
            "                          np.random.default_rng(0))\n"
            "assert not rec.failed, rec.failure_reason\n"
            "print(entry_bits(rec))\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests_dir), "src")
        base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests_dir, os.environ.get("PYTHONPATH")]))
        rows = [
            subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                           timeout=300).stdout
            for env in (base, {**base, "OPENBLAS_NUM_THREADS": "1"})
        ]
        assert rows[0] == rows[1]

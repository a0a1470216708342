import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from cate_al import acquisition, active_loop, blas, evaluation, gp
from cate_al.acquisition import AcquisitionMethod
from cate_al.active_loop import (
    LabelOracle,
    LoopConfig,
    run_active_learning,
    select_batch,
)
from cate_al.beliefs import HeldMomentBundle
from cate_al.dgp import gen_causalbald
from cate_al.ensemble import EnsembleLinearModel
from cate_al.errors import InputError, NumericalError
from cate_al.gp import GpCateModel, SearchConfig

from conftest import HeldEnsemble, assert_bundles_close, stdout_at_default_and_one_blas_thread


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

    @pytest.mark.parametrize("failing_fit, stage", [(1, "warm-start"), (3, "round 2")])
    def test_a_non_finite_pehe_fails_its_round_and_keeps_earlier_rounds(self, monkeypatch, failing_fit, stage):
        fits = []

        def fit(*args, **kw):
            fits.append(original(*args, **kw))
            if len(fits) == failing_fit:
                fits[-1].tau_mean = lambda x: np.full(len(x), np.nan)
            return fits[-1]

        original = active_loop.fit_ensemble
        monkeypatch.setattr(active_loop, "fit_ensemble", fit)
        pool, test = small_pools()
        rec = run_active_learning(fast_config(), pool, test, np.random.default_rng(0))
        assert rec.failed and len(fits) == failing_fit
        assert rec.failure_reason == f"{stage} evaluation failed: root PEHE is not finite (pool nan, test nan)"
        assert [e.step for e in rec.entries] == list(range(failing_fit - 1))

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_ensemble_contrast_cell_equals_one_scored_from_held_matrices(self, monkeypatch, seed):
        # the standardized deviations give the correlations of the held
        # covariance rows up to rounding: the same acquisitions and PEHE,
        # bit for bit, with every block of both cells settled
        pool, test = small_pools(seed, n=80)
        config = fast_config(method="causal_epig_tau", n_init=10, n_b=5, n_budget=40, seed=seed)
        routed, exact = [], acquisition._scalar_mi_exact
        monkeypatch.setattr(acquisition, "_scalar_mi_exact", lambda *args: routed.append(1) or exact(*args))
        records = [run_active_learning(config, pool, test, np.random.default_rng(seed))]
        fit = active_loop.fit_ensemble

        def held_fit(*args, **kw):
            model = fit(*args, **kw)
            return HeldEnsemble(model.mu_weights, model.tau_weights, model.noise_variance)

        monkeypatch.setattr(active_loop, "fit_ensemble", held_fit)
        records.append(run_active_learning(config, pool, test, np.random.default_rng(seed)))
        assert not routed and not any(r.failed for r in records)
        assert entry_bits(records[0]) == entry_bits(records[1])

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


def fixed_gp_config(estimator="cmgp", method="causal_epig_mu", n_b=5, rounds=4, **kw):
    """A fixed-hyperparameter GP cell of ``rounds`` acquisition rounds."""
    settings = dict(estimator=estimator, n_init=12, n_b=n_b, n_budget=12 + rounds * n_b, refit_hyperparams=False)
    return fast_config(method=method, **(settings | kw))


@pytest.fixture
def bundle_builds(monkeypatch):
    """Weak references to the bundle of each GpCateModel.moment_bundle call."""
    built = []
    original = GpCateModel.moment_bundle

    def recording(self, *args):
        bundle = original(self, *args)
        built.append(weakref.ref(bundle))
        return bundle

    monkeypatch.setattr(GpCateModel, "moment_bundle", recording)
    return built


@pytest.fixture
def scored_bundles(monkeypatch):
    """Whether each score_pool call of the loop was handed a bundle."""
    handed = []
    original = active_loop.score_pool

    def recording(method, model, pool_x, pool_t, ctx):
        handed.append(ctx.bundle is not None)
        return original(method, model, pool_x, pool_t, ctx)

    monkeypatch.setattr(active_loop, "score_pool", recording)
    return handed


def traced_peak(config, pool, test):
    """The tracemalloc peak of one run of the cell."""
    tracemalloc.start()
    try:
        run_active_learning(config, pool, test, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def without_conditioning(monkeypatch):
    monkeypatch.setattr(active_loop, "_keeps_prior", lambda config: False)


def without_contrast_rows(monkeypatch):
    monkeypatch.setattr(active_loop, "ContrastRows", lambda x, capacity: None)


class TestPoolBundle:
    """The loop builds the pool bundle of the causal_epig_* methods; a GP
    cell with fixed hyperparameters conditions the last round's on the
    batch it acquired."""

    @pytest.mark.parametrize("estimator, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 2)])
    @pytest.mark.parametrize("n_b", [1, 7, 20])
    def test_every_round_scores_the_fresh_bundle(self, monkeypatch, estimator, n_components, n_b):
        monkeypatch.setattr(active_loop, "SEARCH_CONFIG", SearchConfig(n_components=n_components))
        fresh = GpCateModel.moment_bundle
        original = active_loop.score_pool
        seen = []

        def checking_score_pool(method, model, pool_x, pool_t, ctx):
            seen.append(ctx.bundle)
            assert_bundles_close(ctx.bundle, fresh(model, pool_x, pool_t, ctx.targets))
            return original(method, model, pool_x, pool_t, ctx)

        monkeypatch.setattr(active_loop, "score_pool", checking_score_pool)
        pool, test = small_pools(n=100)
        rec = run_active_learning(fixed_gp_config(estimator, n_b=n_b), pool, test, np.random.default_rng(0))
        assert not rec.failed and len(seen) == 4
        assert all(b is seen[0] for b in seen)  # one bundle, conditioned round after round

    def test_a_fixed_cell_builds_once_and_a_refit_cell_every_round(self, bundle_builds, scored_bundles):
        # only the fixed cell hands its scorer a bundle; the refit cell's
        # scorer builds its own
        pool, test = small_pools(n=60)
        for refit, builds in ((False, 1), (True, 4)):
            bundle_builds.clear()
            scored_bundles.clear()
            rec = run_active_learning(fixed_gp_config(refit_hyperparams=refit), pool, test, np.random.default_rng(0))
            assert not rec.failed and len(bundle_builds) == builds
            assert scored_bundles == [not refit] * 4

    def test_an_ensemble_cell_hands_its_scorer_no_bundle(self, monkeypatch, scored_bundles):
        builds = []
        original = EnsembleLinearModel.moment_bundle

        def counting(self, *args):
            builds.append(1)
            return original(self, *args)

        monkeypatch.setattr(EnsembleLinearModel, "moment_bundle", counting)
        pool, test = small_pools()
        rec = run_active_learning(fast_config(method="causal_epig_tau"), pool, test, np.random.default_rng(0))
        assert not rec.failed and len(builds) == 2 and scored_bundles == [False] * 2

    def test_a_changed_jitter_builds_afresh(self, monkeypatch, bundle_builds):
        # the second fit's new 5-row block does not factorize, so that fit
        # falls back to a fresh one, and from then on fresh fits start at a
        # larger jitter: round 2 builds its bundle afresh, and rounds 3 and 4
        # extend its fit and condition its bundle
        jitters = []
        original, dpotrf, start = active_loop.fit_gp, gp.dpotrf, gp.JITTER_START

        def failing(a, **kw):
            return (a, 1) if a.shape[0] == 5 else dpotrf(a, **kw)

        def fit(*args):
            if len(jitters) == 1:
                monkeypatch.setattr(gp, "JITTER_START", 1e-6)
                monkeypatch.setattr(gp, "dpotrf", failing)
            model = original(*args)
            monkeypatch.setattr(gp, "dpotrf", dpotrf)
            jitters.append(model.jitter_used)
            return model

        monkeypatch.setattr(active_loop, "fit_gp", fit)
        pool, test = small_pools(n=60)
        rec = run_active_learning(fixed_gp_config(), pool, test, np.random.default_rng(0))
        assert not rec.failed and len(bundle_builds) == 2
        assert jitters == [start] + [1e-6] * 4

    @pytest.mark.parametrize("estimator", ["cmgp", "nsgp"])
    def test_each_conditioning_factorizes_the_batch_with_the_fits_new_block(self, monkeypatch, estimator):
        # the factor block each round's fit appends for the batch is, bit for
        # bit, the factor the conditioning of that round's bundle receives;
        # the final round's fit has no round to condition
        appended, received = [], []
        fit, condition = active_loop.fit_gp, HeldMomentBundle.condition

        def recording_fit(x, t, y, params, last):
            model = fit(x, t, y, params, last)
            if last is not None:
                appended.append(model.L[last.train_t.size :, last.train_t.size :].copy())
            return model

        def recording_condition(self, batch, low):
            received.append(np.array(low))
            return condition(self, batch, low)

        monkeypatch.setattr(active_loop, "fit_gp", recording_fit)
        monkeypatch.setattr(HeldMomentBundle, "condition", recording_condition)
        pool, test = small_pools(n=60)
        rec = run_active_learning(fixed_gp_config(estimator), pool, test, np.random.default_rng(0))
        assert not rec.failed and len(received) == 3 and len(appended) == 4
        for got, want in zip(received, appended[:3], strict=True):
            assert got.shape == (5, 5) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kw", [dict(method=AcquisitionMethod("causal_epig_tau", target_cap=20)),
                                    dict(target_mode="test")])
    def test_capped_or_test_targets_build_every_round(self, bundle_builds, scored_bundles, kw):
        pool, test = small_pools(n=60)
        config = replace(fixed_gp_config(), **kw)
        rec = run_active_learning(config, pool, test, np.random.default_rng(0))
        assert not rec.failed and len(bundle_builds) == 4 and scored_bundles == [False] * 4

    @pytest.mark.parametrize("estimator", ["cmgp", "nsgp"])
    @pytest.mark.parametrize("temperature", [0.0, 0.25])
    def test_acquisitions_and_pehe_equal_those_without_conditioning(self, monkeypatch, estimator, temperature):
        pool, test = small_pools(n=80)
        config = fixed_gp_config(estimator, method="causal_epig_tau", n_b=6, temperature=temperature)
        # only the bundle is conditioned: every fit is fresh, and PEHE comes
        # from tau_mean, so the records are bitwise those of fresh builds
        fit = active_loop.fit_gp
        monkeypatch.setattr(active_loop, "fit_gp", lambda x, t, y, params, last: fit(x, t, y, params))
        without_contrast_rows(monkeypatch)
        records = [run_active_learning(config, pool, test, np.random.default_rng(3))]
        without_conditioning(monkeypatch)
        records.append(run_active_learning(config, pool, test, np.random.default_rng(3)))
        a, b = ([(e.acquired, e.sqrt_pehe_pool, e.sqrt_pehe_test) for e in r.entries] for r in records)
        assert a == b and len(a) == 5

    @pytest.mark.parametrize("estimator", ["cmgp", "nsgp"])
    @pytest.mark.parametrize("temperature", [0.0, 0.25])
    def test_the_kept_prior_path_equals_fresh_builds_to_12_digits(self, monkeypatch, estimator, temperature):
        # the conditioned bundle, the extended fits and the kept contrast
        # rows against a fresh build of each, every round: the acquisitions
        # are the same, and the fits and the rows round differently
        pool, test = small_pools(n=80)
        config = fixed_gp_config(estimator, method="causal_epig_tau", n_b=6, temperature=temperature)
        records = [run_active_learning(config, pool, test, np.random.default_rng(3))]
        without_conditioning(monkeypatch)
        records.append(run_active_learning(config, pool, test, np.random.default_rng(3)))
        assert acquired(records[0]) == acquired(records[1]) and len(records[0].entries) == 5
        pehe = [[(e.sqrt_pehe_pool, e.sqrt_pehe_test) for e in r.entries] for r in records]
        np.testing.assert_allclose(pehe[0], pehe[1], rtol=1e-12, atol=0)

    def test_conditioning_holds_no_more_memory_than_fresh_builds(self, monkeypatch):
        # the tracemalloc peak of a fixed cell with a 580 x 580 pool bundle:
        # a square temporary in the conditioning would raise it above the
        # peak of building afresh every round (the contrast rows, which only
        # the fixed cell keeps, are left out on both sides)
        without_contrast_rows(monkeypatch)
        pool, test = small_pools(n=600)
        config = fixed_gp_config(method="causal_epig_tau", n_init=20, n_b=20, n_budget=80)

        run_active_learning(config, pool, test, np.random.default_rng(0))  # one-time allocations
        conditioned = traced_peak(config, pool, test)
        without_conditioning(monkeypatch)
        assert conditioned <= traced_peak(config, pool, test)

    @pytest.mark.parametrize("refit", [False, True])
    def test_no_bundle_outlives_the_rounds_that_read_it(self, monkeypatch, bundle_builds, refit):
        # a refit cell drops each bundle after scoring, a fixed cell before
        # the final round's PEHE: no bundle is alive at a PEHE it could not
        # be carried past
        alive_at_pehe = []
        original = evaluation.model_sqrt_pehe

        def pehe(model, dataset, held):
            alive_at_pehe.append(sum(ref() is not None for ref in bundle_builds))
            return original(model, dataset, held)

        monkeypatch.setattr(evaluation, "model_sqrt_pehe", pehe)
        pool, test = small_pools(n=60)
        rec = run_active_learning(fixed_gp_config(refit_hyperparams=refit), pool, test, np.random.default_rng(0))
        assert not rec.failed
        # pool and test PEHE of the warm start, of rounds 1-3 and of the final round
        assert alive_at_pehe == [0, 0] + [0 if refit else 1] * 6 + [0, 0]


class TestLastModel:
    """Each round's GP fit is offered the last round's model, and its search
    starts from that model's hyperparameters; the fit extends the model only
    under the same ``params`` object, so a refit cell's fits build afresh."""

    @pytest.mark.parametrize("estimator", ["cmgp", "nsgp"])
    def test_a_refit_cell_equals_one_whose_fits_are_not_offered_the_last_model(self, monkeypatch, estimator):
        pool, test = small_pools(n=60)
        config = fixed_gp_config(estimator, method="causal_epig_tau", refit_hyperparams=True)
        records = [run_active_learning(config, pool, test, np.random.default_rng(0))]
        fit = active_loop.fit_gp
        monkeypatch.setattr(active_loop, "fit_gp", lambda x, t, y, params, last: fit(x, t, y, params))
        records.append(run_active_learning(config, pool, test, np.random.default_rng(0)))
        assert not records[0].failed and len(records[0].entries) == 5
        assert entry_bits(records[0]) == entry_bits(records[1])

    @pytest.mark.parametrize("refit, searches", [(True, 5), (False, 1)])
    def test_each_search_and_fit_gets_the_last_model(self, monkeypatch, refit, searches):
        warm, offered, models = [], [], []
        search, fit = active_loop.optimize_hyperparams, active_loop.fit_gp

        def recording_search(*args, warm_params):
            warm.append(warm_params)
            return search(*args, warm_params=warm_params)

        def recording_fit(x, t, y, params, last):
            offered.append(last)
            models.append(fit(x, t, y, params, last))
            return models[-1]

        monkeypatch.setattr(active_loop, "optimize_hyperparams", recording_search)
        monkeypatch.setattr(active_loop, "fit_gp", recording_fit)
        pool, test = small_pools(n=60)
        rec = run_active_learning(fixed_gp_config(refit_hyperparams=refit), pool, test, np.random.default_rng(0))
        assert not rec.failed and len(models) == 5 and len(warm) == searches
        assert warm[0] is None and all(w is m.params for w, m in zip(warm[1:], models))
        assert offered[0] is None and all(a is b for a, b in zip(offered[1:], models))


class TestContrastRows:
    """A fixed-hyperparameter GP cell keeps the pool's and the test set's
    contrast rows for PEHE, each round adding the rows of its batch."""

    @pytest.mark.parametrize("estimator, n_components", [("cmgp", 1), ("cmgp", 2), ("nsgp", 2)])
    def test_each_round_pehe_equals_the_pehe_from_tau_mean(self, monkeypatch, estimator, n_components):
        monkeypatch.setattr(active_loop, "SEARCH_CONFIG", SearchConfig(n_components=n_components))
        original = evaluation.model_sqrt_pehe
        compared, buffers = [], set()

        def pehe(model, dataset, held):
            got, want = original(model, dataset, held), original(model, dataset)
            assert got == want
            compared.append(model.train_t.size)
            buffers.add((id(held), held._rows.ctypes.data))
            return got

        monkeypatch.setattr(evaluation, "model_sqrt_pehe", pehe)
        pool, test = small_pools(n=100)
        rec = run_active_learning(fixed_gp_config(estimator, n_b=7), pool, test, np.random.default_rng(0))
        assert not rec.failed and compared == [n for n in (12, 19, 26, 33, 40) for _ in "pt"]
        assert len(buffers) == 2  # one buffer per evaluation set, written in place

    @pytest.mark.parametrize("config", [fixed_gp_config(refit_hyperparams=True), fast_config()],
                             ids=["refit", "ensemble"])
    def test_refit_and_ensemble_cells_keep_no_rows(self, monkeypatch, config):
        built, held_args = [], []
        monkeypatch.setattr(active_loop, "ContrastRows", lambda *args: built.append(args))
        original = evaluation.model_sqrt_pehe

        def pehe(model, dataset, held):
            held_args.append(held)
            return original(model, dataset)

        monkeypatch.setattr(evaluation, "model_sqrt_pehe", pehe)
        pool, test = small_pools(n=60)
        assert not run_active_learning(config, pool, test, np.random.default_rng(0)).failed
        assert built == [] and held_args and set(held_args) == {None}

    def test_the_rows_add_no_more_than_their_bytes_to_the_peak(self, monkeypatch):
        # the rows are allocated once, n_budget of them per evaluation set,
        # so they cost at most their own bytes (and 4 KiB for the two
        # holding objects); random scoring builds no bundle, so they are a
        # large share of the peak. The test above checks they stay in place
        pool, test = small_pools(n=600)
        config = fixed_gp_config(method="random", n_init=20, n_b=20, n_budget=80)

        run_active_learning(config, pool, test, np.random.default_rng(0))  # one-time allocations
        with_rows = traced_peak(config, pool, test)
        without_contrast_rows(monkeypatch)
        assert with_rows <= traced_peak(config, pool, test) + config.n_budget * (600 + 600) * 8 + 4096


class TestBlasThreads:
    def test_a_cell_runs_on_one_thread_and_restores_the_callers_count(self, two_blas_threads, monkeypatch):
        seen = []

        def counting_fit(*args, **kw):
            seen.append(two_blas_threads())
            return original(*args, **kw)

        original = active_loop.fit_ensemble
        monkeypatch.setattr(active_loop, "fit_ensemble", counting_fit)
        pool, test = small_pools()
        assert not run_active_learning(fast_config(), pool, test, np.random.default_rng(0)).failed
        assert len(seen) == 3 and all(set(counts) == {1} for counts in seen)
        assert set(two_blas_threads()) == {2}

    def test_a_raising_cell_restores_the_callers_count(self, two_blas_threads, monkeypatch):
        def broken_score_pool(*args):
            raise RuntimeError("scorer bug")

        monkeypatch.setattr(active_loop, "score_pool", broken_score_pool)
        pool, test = small_pools()
        with pytest.raises(RuntimeError, match="scorer bug"):
            run_active_learning(fast_config(), pool, test, np.random.default_rng(0))
        assert set(two_blas_threads()) == {2}

    def test_a_cell_without_openblas_runs_unchanged(self, monkeypatch):
        pool, test = small_pools()
        cfg = fast_config(method="causal_epig_tau", estimator="cmgp", n_init=8, n_budget=14)
        expected = run_active_learning(cfg, pool, test, np.random.default_rng(0))
        monkeypatch.setattr(blas, "openblas_thread_controls", lambda: ())
        assert entry_bits(run_active_learning(cfg, pool, test, np.random.default_rng(0))) == entry_bits(expected)

    def test_cell_rows_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS's multi-threaded potrf and gemm round differently from its
        # single-threaded ones once the fits reach n >= 150
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: OpenBLAS runs single-threaded either way")
        if not blas.openblas_thread_controls():
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
        rows = stdout_at_default_and_one_blas_thread(code)
        assert rows[0] == rows[1]

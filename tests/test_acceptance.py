"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The suite is deterministic: every data draw, search,
and loop below is seeded.
"""

import sys
import time

import numpy as np
import pytest

from cate_al.acquisition import (
    AcquisitionMethod,
    ScoringContext,
    score_pool,
)
from cate_al.active_loop import LoopConfig, run_active_learning
from cate_al.cli import load_manifest_config, parse_config, run_cell, run_matrix, _record_rows
from cate_al.dgp import (
    gen_actg_outcomes,
    gen_causalbald,
    gen_hahn,
    gen_ihdp_outcomes,
    rng_stream,
)
from cate_al.evaluation import sqrt_pehe
from cate_al.gp import CmgpParams, fit_gp
from cate_al.kernels import CoregionalizationConfig, KernelConfig

from conftest import random_fitted_gp
from oracles import (
    JointGaussianBelief,
    gaussian_mi_block,
    gaussian_mi_scalar,
    latent_mean,
    mc_mi_oracle,
    predictive_belief,
)
from test_dgp import ihdp_covariates


def report(num, text):
    print(f"\nACCEPTANCE CRITERION {num}: PASS - {text}", file=sys.stderr)


def random_belief(rng, k):
    a = rng.normal(size=(k, k))
    cov = a @ a.T
    w, v = np.linalg.eigh(cov)
    w = np.maximum(w, 0.05 * w.max())
    cov = v @ np.diag(w) @ v.T
    return JointGaussianBelief(labels=tuple(f"q{i}" for i in range(k)), mean=np.zeros(k), cov=cov)


@pytest.mark.slow
def test_criterion_1_mi_matches_monte_carlo_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(100):
        k = 2 if trial < 50 else 3
        belief = random_belief(rng, k)
        if k == 2:
            exact = gaussian_mi_scalar(belief.cov[0, 0], belief.cov[1, 1], belief.cov[0, 1])
            est = mc_mi_oracle(belief, ["q0"], ["q1"], 10_000_000, rng)
        else:
            exact = gaussian_mi_block(belief, ["q0"], ["q1", "q2"])
            est = mc_mi_oracle(belief, ["q0"], ["q1", "q2"], 10_000_000, rng)
        worst = max(worst, abs(exact - est))
        assert abs(exact - est) < 0.01, f"trial {trial}: exact {exact}, mc {est}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(1, f"100 beliefs within 0.01 nats of the 1e7-sample oracle "
              f"(worst {worst:.2e}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_2_nested_conditioning_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(200)
    x = rng.normal(size=(5, 1))
    t = np.array([0, 1, 0, 1, 1])
    y = rng.normal(size=5) + t * (1.0 + x[:, 0])
    params = CmgpParams(
        kernel=KernelConfig(family="rbf", lengthscales=[0.8], signal_variance=1.0, noise_variance=0.4),
        coreg=CoregionalizationConfig(task_covariance=np.array([[1.6, 0.7], [0.7, 1.3]])),
    )
    model = fit_gp(x, t, y, params)
    target = np.array([[0.3]])
    h_before = 0.5 * np.log(2 * np.pi * np.e * model.tau_sd(target)[0] ** 2)

    worst = 0.0
    for _ in range(10):
        cand_x = rng.normal(size=(1, 1))
        arm = int(rng.integers(0, 2))
        mu_y = latent_mean(model, cand_x, [arm])[0]
        var_y = model.latent_var(cand_x, [arm])[0] + model.noise_variance
        x2 = np.vstack([model.train_x, cand_x])
        t2 = np.concatenate([model.train_t, [arm]])
        h_after = np.empty(10_000)
        for j in range(10_000):
            y_draw = rng.normal(mu_y, np.sqrt(var_y))
            refit = fit_gp(x2, t2, np.concatenate([y, [y_draw]]), params)
            h_after[j] = 0.5 * np.log(2 * np.pi * np.e * refit.tau_sd(target)[0] ** 2)
        oracle = h_before - float(h_after.mean())
        ctx = ScoringContext(targets=target, labeled_x=x, labeled_t=t, rng=rng)
        closed = score_pool(AcquisitionMethod("causal_epig_tau"), model, cand_x, [arm], ctx)[0]
        worst = max(worst, abs(closed - oracle))
        assert abs(closed - oracle) < 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(2, f"10 candidates within 0.02 nats of the 1e4-draw nested oracle "
              f"(worst {worst:.2e}, {elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_3_informative_methods_beat_random():
    # property-based stand-in for the benchmark's learning curves: the
    # final-step mean error must favor the contrast-targeted method, and the
    # per-seed paired difference (averaged over the acquisition rounds of the
    # curve, which is what the benchmark figures compare) must favor it on at
    # least 8 of 10 seeds, with the surface-targeted variant at >= 7
    start = time.perf_counter()
    methods = ("random", "causal_epig_tau", "causal_epig_mu")
    curves = {m: [] for m in methods}
    for seed in range(10):
        pool = gen_causalbald(500, rng=rng_stream(seed, "accept3", "pool"))
        test = gen_causalbald(500, rng=rng_stream(seed, "accept3", "test"))
        warm = int(rng_stream(seed, "accept3", "warm").integers(2**31))
        for m in methods:
            cfg = LoopConfig(n_init=50, n_b=20, n_budget=250, estimator="cmgp",
                             method=AcquisitionMethod(m), seed=seed, warm_start_seed=warm)
            rec = run_active_learning(cfg, pool, test, rng_stream(seed, "accept3", m, "loop"))
            assert not rec.failed, rec.failure_reason
            assert len(rec.entries) == 11  # warm start + 10 rounds
            curves[m].append([e.sqrt_pehe_pool for e in rec.entries])

    rand = np.array(curves["random"])
    tau = np.array(curves["causal_epig_tau"])
    mu = np.array(curves["causal_epig_mu"])
    assert tau[:, -1].mean() < rand[:, -1].mean(), (tau[:, -1].mean(), rand[:, -1].mean())
    per_seed = lambda c: c[:, 1:].mean(axis=1)  # curve level, acquisition rounds only
    tau_wins = int(np.sum(per_seed(tau) < per_seed(rand)))
    mu_wins = int(np.sum(per_seed(mu) < per_seed(rand)))
    elapsed = time.perf_counter() - start
    assert tau_wins >= 8, f"contrast-targeted variant won only {tau_wins}/10 seeds"
    assert mu_wins >= 7, f"surface-targeted variant won only {mu_wins}/10 seeds"
    assert elapsed < 900.0
    report(3, f"final sqrt-PEHE means random {rand[:, -1].mean():.3f} vs tau {tau[:, -1].mean():.3f} "
              f"vs mu {mu[:, -1].mean():.3f}; per-seed curve wins tau {tau_wins}/10, mu {mu_wins}/10 "
              f"({elapsed:.0f}s)")


def test_criterion_4_complexity_ordering():
    start = time.perf_counter()
    train = gen_causalbald(200, rng=rng_stream(0, "accept4", "train"))
    params = CmgpParams(
        kernel=KernelConfig(family="rbf", lengthscales=[0.6], signal_variance=1.0, noise_variance=1.0),
        coreg=CoregionalizationConfig(task_covariance=np.array([[2.0, -1.0], [-1.0, 2.5]])),
    )
    model = fit_gp(train.covariates, train.treatments, train.outcomes, params)
    pool = gen_causalbald(200, rng=rng_stream(0, "accept4", "pool"))
    targets = gen_causalbald(500, rng=rng_stream(0, "accept4", "targets")).covariates

    def context(tgt):
        return ScoringContext(targets=tgt, labeled_x=train.covariates,
                              labeled_t=train.treatments, rng=np.random.default_rng(0))

    def seconds(method, ctx):
        t0 = time.perf_counter()
        score_pool(AcquisitionMethod(method), model, pool.covariates, pool.treatments, ctx)
        return time.perf_counter() - t0

    # the 500- and 250-target calls alternate, so a slow spell of the box
    # slows both; the minimum is the robust estimator for timing
    ctx_500, ctx_250 = context(targets), context(targets[:250])
    pairs = [(seconds("causal_epig_tau", ctx_500), seconds("causal_epig_tau", ctx_250)) for _ in range(9)]
    t_tau_500, t_tau_250 = (min(times) for times in zip(*pairs))
    t_global = min(seconds("causal_epig_tau_global", ctx_500) for _ in range(3))
    ratio_linear = t_tau_500 / t_tau_250
    ratio_global = t_global / t_tau_500
    elapsed = time.perf_counter() - start
    assert ratio_global >= 3.0, f"global/marginal ratio {ratio_global:.2f}"
    assert 1.6 <= ratio_linear <= 2.6, f"target-scaling ratio {ratio_linear:.2f}"
    assert elapsed < 300.0
    report(4, f"global costs {ratio_global:.1f}x the mean-marginal variant; doubling targets "
              f"scales time by {ratio_linear:.2f} ({elapsed:.0f}s)")


def test_criterion_5_pehe_oracle_zero_on_all_dgps(rng):
    cb = gen_causalbald(300, rng=rng_stream(0, "accept5", "cb"))
    hh = gen_hahn(300, rng=rng_stream(0, "accept5", "hahn"))
    xi, ti = ihdp_covariates(np.random.default_rng(50), n=120)
    ih = gen_ihdp_outcomes(xi, ti, rng=rng_stream(0, "accept5", "ihdp"))
    xa = np.random.default_rng(51).normal(size=(120, 12))
    ac = gen_actg_outcomes(xa, np.random.default_rng(52).integers(0, 2, 120), rng=rng_stream(0, "accept5", "actg"))
    for ds in (cb, hh, ih, ac):
        assert sqrt_pehe(ds.tau_true, ds.tau_true) == 0.0
    report(5, "feeding the true contrast yields sqrt-PEHE exactly 0 on all four generators")


def test_criterion_6_dgp_moment_checks():
    cb = gen_causalbald(100_000, rng=rng_stream(0, "accept6", "cb"))
    assert abs(cb.tau_true.mean() - 2.0) < 0.05

    hh = gen_hahn(100_000, rng=rng_stream(0, "accept6", "hahn"))
    signal = hh.mu0 + hh.treatments * hh.tau_true
    snr = np.std(signal, ddof=1) / np.std(hh.outcomes - signal, ddof=1)
    assert abs(snr - 3.0) < 0.05

    xi, ti = ihdp_covariates(np.random.default_rng(60), n=400)
    ih = gen_ihdp_outcomes(xi, ti, rng=rng_stream(0, "accept6", "ihdp"))
    att = ih.tau_true[ti == 1].mean()
    assert abs(att - 4.0) <= 1e-9

    xa = np.random.default_rng(61).normal(size=(300, 12))
    ac = gen_actg_outcomes(xa, np.random.default_rng(62).integers(0, 2, 300), rng=rng_stream(0, "accept6", "actg"))
    assert ac.noise_sd == (ac.mu0.max() - ac.mu0.min()) / 8.0

    report(6, f"mean contrast {cb.tau_true.mean():.3f}, signal-to-noise {snr:.3f}, "
              f"treated-group effect {att:.10f}, noise sd exact")


ACCEPT7_CONFIG = """
[dataset]
name = causalbald
pool_size = 40
val_size = 5
test_size = 20

[loop]
n_init = 6
batch_size = 4
budget = 14

[run]
estimators = ensemble
methods = random, causal_epig_tau
seeds = 0, 1
out_dir = {out}
"""


def test_criterion_7_cell_rerun_determinism(tmp_path):
    config_path = tmp_path / "exp.ini"
    config_path.write_text(ACCEPT7_CONFIG.format(out=tmp_path / "out"))
    config = parse_config(config_path)
    assert run_matrix(config) == 0

    import csv as _csv
    import os as _os

    with open(_os.path.join(config.out_dir, "results.csv"), newline="") as fh:
        rows = list(_csv.reader(fh))[1:]

    reloaded = load_manifest_config(_os.path.join(config.out_dir, "manifest.json"))
    for estimator, method, seed in reloaded.cells():
        record = run_cell(reloaded, estimator, method, seed)
        fresh = [r for r in _record_rows(record)]
        old = [r for r in rows if (r[2], r[3], r[4]) == (estimator, method, str(seed))]
        assert len(fresh) == len(old)
        for a, b in zip(fresh, old):
            # every formatted value must match bitwise; the wall-clock column
            # is the one quantity that cannot be reproduced by re-execution
            assert a[:9] == b[:9]
            assert a[10] == b[10]
    report(7, "re-running every manifest cell reproduced identical formatted result rows")


class AuditedDataset:
    """Attribute proxy recording which module reads which dataset field."""

    COUNTERFACTUAL = ("mu0", "mu1", "tau_true", "propensity_true")

    def __init__(self, dataset):
        object.__setattr__(self, "_dataset", dataset)
        object.__setattr__(self, "accesses", [])

    def __getattr__(self, name):
        caller = sys._getframe(1).f_globals.get("__name__", "?")
        self.accesses.append((name, caller))
        return getattr(self._dataset, name)


def test_criterion_8_no_counterfactual_leakage():
    pool = AuditedDataset(gen_causalbald(60, rng=rng_stream(0, "accept8", "pool")))
    test = AuditedDataset(gen_causalbald(40, rng=rng_stream(0, "accept8", "test")))
    cfg = LoopConfig(n_init=10, n_b=5, n_budget=25, estimator="cmgp",
                     method=AcquisitionMethod("causal_epig_tau"), seed=0)
    rec = run_active_learning(cfg, pool, test, np.random.default_rng(0))
    assert not rec.failed

    touched = pool.accesses + test.accesses
    assert touched, "the audit saw no accesses at all"
    offenders = {
        (name, caller)
        for name, caller in touched
        if name in AuditedDataset.COUNTERFACTUAL and caller != "cate_al.evaluation"
    }
    assert not offenders, f"counterfactual reads outside evaluation: {offenders}"
    n_truth = sum(1 for name, _ in touched if name in AuditedDataset.COUNTERFACTUAL)
    assert n_truth > 0  # evaluation did consult the ground truth
    report(8, f"{len(touched)} field reads audited; all {n_truth} ground-truth reads "
              f"came from the evaluation module")


def test_criterion_9_invariance_suite(rng):
    checked = []

    # model posteriors: symmetric PSD beliefs, Cauchy-Schwarz, noise split
    for _ in range(50):
        kind = "cmgp" if rng.uniform() < 0.5 else "nsgp"
        model = random_fitted_gp(rng, n=int(rng.integers(4, 9)), kind=kind)
        belief = predictive_belief(model, (rng.normal(size=1), int(rng.integers(0, 2))), rng.normal(size=(3, 1)))
        assert np.abs(belief.cov - belief.cov.T).max() <= 1e-10
        scale = max(np.abs(belief.cov).max(), 1.0)
        assert np.linalg.eigvalsh(belief.cov).min() >= -1e-8 * scale
        iy = belief.index("y")
        for j in range(3):
            it = belief.index(f"tau@{j}")
            assert belief.cov[iy, it] ** 2 <= belief.cov[iy, iy] * belief.cov[it, it] + 1e-10
    checked.append("posterior beliefs symmetric, PSD, Cauchy-Schwarz (50 models)")

    # acquiring an observation never inflates the observed arm's variance
    for _ in range(20):
        model = random_fitted_gp(rng, n=6, kind="cmgp" if rng.uniform() < 0.5 else "nsgp")
        p = rng.normal(size=(1, 1))
        arm = int(rng.integers(0, 2))
        before = model.latent_var(p, [arm])[0]
        refit = fit_gp(np.vstack([model.train_x, p]), np.concatenate([model.train_t, [arm]]),
                       np.concatenate([model.train_y, [rng.normal()]]), model.params)
        assert refit.latent_var(p, [arm])[0] <= before + 1e-8
    checked.append("observed-arm variance monotone under new labels (20 refits)")

    # every MI-based utility is nonnegative on every candidate
    for _ in range(50):
        model = random_fitted_gp(rng, n=6, kind="cmgp" if rng.uniform() < 0.5 else "nsgp")
        px = rng.normal(size=(6, 1))
        pt = rng.integers(0, 2, 6)
        ctx = ScoringContext(targets=rng.normal(size=(3, 1)), labeled_x=model.train_x,
                             labeled_t=model.train_t, rng=rng)
        for name in ("causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive",
                     "causal_epig_tau_global", "causal_epig_mu_global", "epig_factual",
                     "mu_bald", "tau_bald", "causal_eig"):
            assert score_pool(AcquisitionMethod(name), model, px, pt, ctx).min() >= -1e-9
    checked.append("all MI-based utilities nonnegative (50 models x 9 methods)")

    # MI block symmetry, target permutation, singleton equivalence
    for _ in range(50):
        model = random_fitted_gp(rng, n=5)
        belief = predictive_belief(model, (rng.normal(size=1), 1), rng.normal(size=(2, 1)))
        a = gaussian_mi_block(belief, ["y"], ["tau@0", "tau@1"])
        b = gaussian_mi_block(belief, ["tau@0", "tau@1"], ["y"])
        assert a == b
        ctx0 = ScoringContext(targets=np.array([[0.2]]), labeled_x=model.train_x,
                              labeled_t=model.train_t, rng=rng)
        g = score_pool(AcquisitionMethod("causal_epig_tau_global"), model,
                       np.array([[0.1]]), np.array([1]), ctx0)[0]
        m = score_pool(AcquisitionMethod("causal_epig_tau"), model,
                       np.array([[0.1]]), np.array([1]), ctx0)[0]
        assert abs(g - m) <= 1e-10
    checked.append("MI symmetry and singleton global equivalence (50 models)")

    # generators: consistency under zeroed noise and determinism in the seed
    for gen in (lambda r: gen_causalbald(200, rng=r, noise_scale=0.0),
                lambda r: gen_hahn(200, rng=r, noise_scale=0.0)):
        ds = gen(np.random.default_rng(0))
        np.testing.assert_array_equal(ds.outcomes, np.where(ds.treatments == 1, ds.mu1, ds.mu0))
        again = gen(np.random.default_rng(0))
        np.testing.assert_array_equal(ds.covariates, again.covariates)
    checked.append("generator consistency and determinism")

    # evaluation metric invariances
    for _ in range(50):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        perm = rng.permutation(12)
        assert sqrt_pehe(a, b) == pytest.approx(sqrt_pehe(a[perm], b[perm]), rel=1e-12)
        assert sqrt_pehe(a, b) == pytest.approx(sqrt_pehe(-a, -b), rel=1e-12)
    checked.append("metric permutation and negation invariance (50 cases)")

    # labeled set growth is monotone with exact batch arithmetic
    pool = gen_causalbald(30, rng=rng_stream(0, "accept9", "pool"))
    test = gen_causalbald(20, rng=rng_stream(0, "accept9", "test"))
    cfg = LoopConfig(n_init=5, n_b=4, n_budget=19, estimator="ensemble",
                     method=AcquisitionMethod("causal_epig_mu"), seed=0)
    rec = run_active_learning(cfg, pool, test, np.random.default_rng(1))
    counts = [e.n_labeled for e in rec.entries]
    assert counts == [5, 9, 13, 17, 19]
    checked.append("budget arithmetic and monotone labeled growth")

    report(9, "; ".join(checked))

"""Fixed-size layer probes of the traced run.

Each probe times one layer at a fixed labeled-set size (n = 250 and 850) on
``hahn_nonlinear`` draws with fixed hyperparameters, so a layer's speed can
be compared apart from any change in the acquisition trajectory. GP probes
use the two-component cmgp the loop searches over by default. Every value is
the median of repeated calls.
"""

from __future__ import annotations

import csv
import os
import statistics
import time

import numpy as np

SIZES = (250, 850)
POOL = 1000          # candidates and targets of moment_bundle and score_pool
PEHE_POINTS = 2000   # the paper split's pool size



def median_time(fn, min_repeats: int = 3, budget_s: float = 0.3, max_repeats: int = 50) -> float:
    """Median wall seconds of ``fn()`` over at least ``min_repeats`` calls,
    repeated until ``budget_s`` has passed."""
    times = []
    start = time.perf_counter()
    while len(times) < max_repeats and (len(times) < min_repeats or time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _params(d: int):
    from cate_al import CmgpParams, CoregionalizationConfig, KernelConfig, NsgpParams

    def kernel(scale, variance=1.0):
        return KernelConfig(family="matern52", lengthscales=np.full(d, scale),
                            signal_variance=variance, noise_variance=0.5)

    cmgp = CmgpParams(
        kernel=kernel(1.0), coreg=CoregionalizationConfig.from_cholesky(1.0, 0.5, 0.8),
        kernel2=kernel(3.0), coreg2=CoregionalizationConfig.from_cholesky(0.7, 0.3, 0.6),
    )
    nsgp = NsgpParams(kernel0=kernel(1.5), kernel1=kernel(2.0, 1.5), cross_rho=0.5)
    return cmgp, nsgp


def layer_probes(seed: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Run every probe; ``scale`` < 1 shrinks all sizes for a quick check."""
    from cate_al import AcquisitionMethod, fit_gp, gen_hahn, optimize_hyperparams
    from cate_al import SearchConfig, fit_propensity, score_pool, select_batch
    from cate_al import gp, kernels
    from cate_al.acquisition import METHOD_NAMES, ScoringContext
    from cate_al.dgp import rng_stream
    from cate_al.evaluation import model_sqrt_pehe

    sizes = [max(10, int(n * scale)) for n in SIZES]
    pool_n = max(20, int(POOL * scale))
    data = gen_hahn(max(sizes) + pool_n + PEHE_POINTS, prognostic="nonlinear", rng=rng_stream(seed, "probe"))
    x, t, y = data.covariates, data.treatments, data.outcomes
    cand = slice(max(sizes), max(sizes) + pool_n)
    eval_set = data.subset(np.arange(max(sizes) + pool_n, data.n)[: max(20, int(PEHE_POINTS * scale))])
    cmgp, nsgp = _params(x.shape[1])
    out: dict[str, tuple[float, str]] = {}

    for label, n in zip(SIZES, sizes):
        xs, ts, ys = x[:n], t[:n], y[:n]
        out[f"kernels.cmgp_gram_s.n{label}"] = (median_time(
            lambda: kernels.cmgp_gram(xs, ts, xs, ts, cmgp.kernel, cmgp.coreg)
            + kernels.cmgp_gram(xs, ts, xs, ts, cmgp.kernel2, cmgp.coreg2)), "s")
        out[f"kernels.nsgp_gram_s.n{label}"] = (median_time(
            lambda: kernels.nsgp_gram(xs, ts, xs, ts, nsgp.kernel0, nsgp.kernel1, nsgp.cross_rho)), "s")
        noisy = (kernels.cmgp_gram(xs, ts, xs, ts, cmgp.kernel, cmgp.coreg)
                 + kernels.cmgp_gram(xs, ts, xs, ts, cmgp.kernel2, cmgp.coreg2)
                 + cmgp.noise_variance * np.eye(n))
        out[f"gp.chol_s.n{label}"] = (median_time(
            lambda: gp._chol_with_escalating_jitter(noisy, cmgp.kernel.jitter)), "s")
        out[f"gp.lml_s.n{label}"] = (median_time(lambda: gp.log_marginal_likelihood(xs, ts, ys, cmgp)), "s")
        model = fit_gp(xs, ts, ys, cmgp)
        out[f"gp.moment_bundle_s.n{label}"] = (median_time(
            lambda: model.moment_bundle(x[cand], t[cand], x[cand]), min_repeats=2, budget_s=0.5), "s")

    n250 = sizes[0]
    evals = []
    original = gp.log_marginal_likelihood
    gp.log_marginal_likelihood = lambda *a: evals.append(1) or original(*a)
    try:
        t0 = time.perf_counter()
        optimize_hyperparams(x[:n250], t[:n250], y[:n250], "cmgp", SearchConfig(n_components=2))
        out["gp.search_s.n250"] = (time.perf_counter() - t0, "s")
    finally:
        gp.log_marginal_likelihood = original
    out["gp.search_lml_evals.n250"] = (len(evals), "count")

    n850 = sizes[1]
    model = fit_gp(x[:n850], t[:n850], y[:n850], cmgp)
    out["evaluation.pehe_s.n850"] = (median_time(lambda: model_sqrt_pehe(model, eval_set)), "s")
    scores = rng_stream(seed, "probe", "scores").normal(size=pool_n)
    select_rng = np.random.default_rng(0)
    out["active_loop.select_s.n1000"] = (median_time(
        lambda: select_batch(scores, 20, 0.0, select_rng), min_repeats=20), "s")

    propensity = fit_propensity(x[cand], t[cand])
    # the *_global scorers factorize per candidate by design and are left out
    for name in (m for m in METHOD_NAMES if not m.endswith("_global")):
        method = AcquisitionMethod(name)

        def score():
            ctx = ScoringContext(targets=x[cand], labeled_x=x[:n850], labeled_t=t[:n850],
                                 rng=rng_stream(seed, "probe", name), propensity=propensity)
            return score_pool(method, model, x[cand], t[cand], ctx)

        out[f"acquisition.score_s.{name}.n850"] = (median_time(score, min_repeats=1, budget_s=0.5), "s")
    return out


# -- paper-sized summarize ----------------------------------------------------

PAPER_ESTIMATORS = ("cmgp", "nsgp", "ensemble")
PAPER_SEEDS = 10
PAPER_STEPS = 41


def summarize_probe(seed: int, out_dir: str, scale: float = 1.0):
    """Time ``emit_summary`` on a synthetic results.csv of the paper's size:
    3 estimators x 14 methods x 10 seeds x 41 steps (34,440 rows).

    Returns the metrics and the list of failed output checks."""
    from cate_al.acquisition import METHOD_NAMES
    from cate_al.cli import RESULTS_HEADER, emit_summary
    from cate_al.dgp import rng_stream

    steps = max(3, int(PAPER_STEPS * scale))
    seeds = max(2, int(PAPER_SEEDS * scale))
    rng = rng_stream(seed, "summarize")
    os.makedirs(out_dir, exist_ok=True)
    results = os.path.join(out_dir, "results.csv")
    with open(results, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for est in PAPER_ESTIMATORS:
            for method in METHOD_NAMES:
                for s in range(seeds):
                    curve = np.sort(rng.uniform(0.2, 2.0, size=steps))[::-1]
                    for step in range(steps):
                        writer.writerow(["hahn_nonlinear", "standard", est, method, s, step, 50 + 20 * step,
                                         f"{curve[step]:.12g}", f"{curve[step] * 1.05:.12g}", "0.01", "ok"])
    t0 = time.perf_counter()
    summary = emit_summary(results)
    elapsed = time.perf_counter() - t0
    with open(summary, newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    # seven metrics (three curves, two mean-curve and two per-seed improvements)
    # per estimator, method and step
    expected = 7 * len(PAPER_ESTIMATORS) * len(METHOD_NAMES) * steps
    errors = [] if rows == expected else [f"paper-sized summary.csv has {rows} rows, expected {expected}"]
    return {"cli.summarize_paper_s": (elapsed, "s"), "cli.summarize_paper_rows": (rows, "count")}, errors

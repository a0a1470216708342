"""Every entry point that takes caller data rejects what the input contract
forbids: a treatment other than exactly 0 or 1, a non-finite covariate or
outcome, arrays of different lengths or widths, and a method parameter the
method never reads."""

import numpy as np
import pytest

from cate_al import (
    AcquisitionMethod,
    fit_ensemble,
    fit_gp,
    fit_propensity,
    gen_actg_outcomes,
    gen_ihdp_outcomes,
    optimize_hyperparams,
    score_pool,
)
from cate_al.acquisition import ScoringContext
from cate_al.errors import InputError

from conftest import random_cmgp_params

N = 8
X = np.random.default_rng(0).normal(size=(N, 2))
T = np.tile([0, 1], N // 2)
Y = np.random.default_rng(1).normal(size=N)
GP_PARAMS = random_cmgp_params(np.random.default_rng(2), dim=2)


def gp_model():
    return fit_gp(X, T, Y, GP_PARAMS)


def ensemble_model():
    return fit_ensemble(X, T, Y, n_members=4, rng=3)


def context(labeled_t=T, targets=X, labeled_x=X):
    return ScoringContext(targets=targets, labeled_x=labeled_x, labeled_t=labeled_t, rng=np.random.default_rng(4))


TREATMENT_ENTRY_POINTS = {
    "gen_ihdp_outcomes": lambda t: gen_ihdp_outcomes(np.zeros((N, 25)), t),
    "gen_actg_outcomes": lambda t: gen_actg_outcomes(np.zeros((N, 12)), t),
    "fit_gp": lambda t: fit_gp(X, t, Y, GP_PARAMS),
    "optimize_hyperparams": lambda t: optimize_hyperparams(X, t, Y, "cmgp"),
    "fit_ensemble": lambda t: fit_ensemble(X, t, Y, n_members=4, rng=3),
    "score_pool": lambda t: score_pool(AcquisitionMethod("random"), ensemble_model(), X, t, context()),
    "score_pool_labeled_t": lambda t: score_pool(AcquisitionMethod("coreset_qhte"), gp_model(), X, T, context(t)),
    "gp_latent_var": lambda t: gp_model().latent_var(X, t),
    "gp_moment_bundle": lambda t: gp_model().moment_bundle(X, t, X[:3]),
    "ensemble_latent_var": lambda t: ensemble_model().latent_var(X, t),
    "ensemble_moment_bundle": lambda t: ensemble_model().moment_bundle(X, t, X[:3]),
}


def with_first(a, value):
    a = np.array(a, dtype=float)
    a.flat[0] = value
    return a


INVALID_INPUTS = {
    **{f"{name}-t={bad}": (lambda call=call, bad=bad: call(with_first(T, bad)))
       for name, call in TREATMENT_ENTRY_POINTS.items() for bad in (0.5, np.nan)},
    "fit_ensemble-short_t": lambda: fit_ensemble(X, T[:-1], Y),
    "fit_ensemble-nan_y": lambda: fit_ensemble(X, T, with_first(Y, np.nan)),
    "fit_propensity-inf_x": lambda: fit_propensity(with_first(X, np.inf), T),
    "score_pool-short_x": lambda: score_pool(AcquisitionMethod("random"), ensemble_model(), X[:-1], T, context()),
    "score_pool-nan_x": lambda: score_pool(AcquisitionMethod("mu_bald"), ensemble_model(), with_first(X, np.nan), T, context()),
    "score_pool-short_labeled_x": lambda: score_pool(AcquisitionMethod("coreset_qhte"), gp_model(), X, T,
                                                     context(labeled_x=X[:5])),
    "score_pool-nan_target": lambda: score_pool(AcquisitionMethod("causal_epig_tau"), gp_model(), X, T,
                                                context(targets=with_first(X, np.nan))),
    "score_pool-wide_targets": lambda: score_pool(AcquisitionMethod("causal_epig_tau"), ensemble_model(), X, T,
                                                  context(targets=np.hstack([X, X]))),
    # checked for every method, including those that never read the context
    "score_pool-1d_targets": lambda: score_pool(AcquisitionMethod("random"), gp_model(), X, T, context(targets=X[0])),
    "score_pool-inf_labeled_x": lambda: score_pool(AcquisitionMethod("random"), gp_model(), X, T,
                                                   context(labeled_x=with_first(X, np.inf))),
    "score_pool-narrow_labeled_x": lambda: score_pool(AcquisitionMethod("random"), gp_model(), X, T,
                                                      context(labeled_x=X[:, :1])),
    "AcquisitionMethod-unread_param": lambda: AcquisitionMethod("random", sundin_samples=7),
    "AcquisitionMethod-unread_target_cap": lambda: AcquisitionMethod("sundin", target_cap=3),
}


# as errors: a cast to int ahead of the check warns on a NaN treatment
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_entry_point_rejects_invalid_input(case):
    with pytest.raises(InputError):
        INVALID_INPUTS[case]()


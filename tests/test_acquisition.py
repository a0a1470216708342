import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import norm

import cate_al
from cate_al import acquisition, blas
from cate_al.acquisition import (
    METHOD_NAMES,
    AcquisitionMethod,
    ScoringContext,
    bernoulli_entropy,
    fit_propensity,
    predict_pi,
    score_pool,
    sign_ambiguity_score,
)
from cate_al.beliefs import HeldMomentBundle, MomentBundle
from cate_al.dgp import gen_causalbald
from cate_al.ensemble import EnsembleLinearModel, fit_ensemble
from cate_al.errors import InputError, NumericalError
from cate_al.gp import CmgpParams, fit_gp
from cate_al.kernels import CoregionalizationConfig, KernelConfig

from conftest import StubModel, random_fitted_gp, stdout_at_default_and_one_blas_thread
from oracles import _mi_scalar_vec, gaussian_mi_block, gaussian_mi_scalar, latent_mean, predictive_belief


def scores(name, model, pool_x, pool_t, targets=None, labeled=None, propensity=None, rng=0, **params):
    """score_pool with a fresh context; targets default to the pool."""
    pool_x = np.atleast_2d(np.asarray(pool_x, dtype=float))
    lx, lt = labeled if labeled is not None else (np.zeros((0, pool_x.shape[1])), np.zeros(0, dtype=int))
    ctx = ScoringContext(targets=pool_x if targets is None else np.atleast_2d(targets), labeled_x=lx,
                         labeled_t=lt, rng=np.random.default_rng(rng), propensity=propensity)
    return score_pool(AcquisitionMethod(name, **params), model, pool_x, pool_t, ctx)


def score_one(name, model, candidate, targets=None, **kw):
    """Utility of one (x, t) candidate: score_pool over a pool of one."""
    cx, ct = candidate
    return float(scores(name, model, np.atleast_1d(cx)[None, :], [ct], targets, **kw)[0])


def fitted_toy(rng=None, noise=0.4, n=6, b=None, ls=0.7):
    rng = np.random.default_rng(0) if rng is None else rng
    x = rng.normal(size=(n, 1))
    t = (np.arange(n) % 2).astype(int)
    y = rng.normal(size=n) + 1.5 * x[:, 0] * t
    params = CmgpParams(
        kernel=KernelConfig(family="rbf", lengthscales=[ls], signal_variance=1.0, noise_variance=noise),
        coreg=CoregionalizationConfig(task_covariance=np.array([[2.0, 0.8], [0.8, 1.5]]) if b is None else b),
    )
    return fit_gp(x, t, y, params)


def prior_like_model(b):
    # training data far outside kernel support: posterior == prior near 0
    params = CmgpParams(
        kernel=KernelConfig(family="rbf", lengthscales=[0.7], signal_variance=1.0, noise_variance=0.3),
        coreg=CoregionalizationConfig(task_covariance=b),
    )
    x = np.array([[1e5], [1.00001e5]])
    return fit_gp(x, [0, 1], [0.1, -0.1], params)


class TestCausalEpigTau:
    def test_disjoint_support_candidate_scores_zero(self):
        model = fitted_toy()
        far = (np.array([500.0]), 1)
        assert score_one("causal_epig_tau", model, far, np.linspace(-1, 1, 5)[:, None]) < 1e-12

    def test_singleton_target_reduces_to_scalar_mi(self, rng):
        model = fitted_toy(rng)
        cand = (np.array([0.2]), 1)
        target = np.array([[0.5]])
        bundle = model.moment_bundle(np.array([[0.2]]), np.array([1]), target)
        expected = gaussian_mi_scalar(bundle.y_var[0], bundle.tau_var[0], bundle.cy_tau[0, 0])
        assert score_one("causal_epig_tau", model, cand, target) == pytest.approx(expected, abs=1e-14)

    def test_matches_nested_conditioning_oracle(self, rng):
        # entropy-reduction oracle: draw y, refit on the augmented set, and
        # average the drop in contrast entropy (exact conditioning per draw)
        model = fitted_toy(rng, n=5)
        target = np.array([0.1])
        for arm in (0, 1):
            cand_x = np.array([rng.normal()])
            mu_y = latent_mean(model, cand_x[None, :], [arm])[0]
            var_y = model.latent_var(cand_x[None, :], [arm])[0] + model.noise_variance
            h_before = 0.5 * np.log(2 * np.pi * np.e * model.tau_sd(target[None, :])[0] ** 2)
            x2 = np.vstack([model.train_x, cand_x[None, :]])
            t2 = np.concatenate([model.train_t, [arm]])
            draws_h = []
            for _ in range(64):
                y_draw = rng.normal(mu_y, np.sqrt(var_y))
                refit = fit_gp(x2, t2, np.concatenate([model.train_y, [y_draw]]), model.params)
                draws_h.append(0.5 * np.log(2 * np.pi * np.e * refit.tau_sd(target[None, :])[0] ** 2))
            oracle = h_before - float(np.mean(draws_h))
            closed = score_one("causal_epig_tau", model, (cand_x, arm), target[None, :])
            assert closed == pytest.approx(oracle, abs=2e-7)

    def test_invariant_to_target_permutation(self, rng):
        model = fitted_toy(rng)
        targets = rng.normal(size=(7, 1))
        cand = (np.array([0.4]), 0)
        a = score_one("causal_epig_tau", model, cand, targets)
        b = score_one("causal_epig_tau", model, cand, targets[rng.permutation(7)])
        assert a == pytest.approx(b, abs=1e-12)

    def test_empty_targets_rejected(self):
        with pytest.raises(InputError):
            score_one("causal_epig_tau", fitted_toy(), (np.array([0.0]), 0), np.zeros((0, 1)))


class TestCausalEpigMu:
    def test_identity_tasks_make_joint_equal_additive_single_term(self):
        model = prior_like_model(np.eye(2))
        cand = (np.array([0.0]), 1)
        targets = np.array([[0.2], [-0.4]])
        joint = score_one("causal_epig_mu", model, cand, targets)
        additive = score_one("causal_epig_mu_additive", model, cand, targets)
        assert joint == pytest.approx(additive, abs=1e-10)
        # the control surface carries nothing for an arm-1 candidate here
        bundle = model.moment_bundle(np.array([[0.0]]), np.array([1]), targets)
        assert np.abs(bundle.cy0).max() < 1e-10

    def test_degenerate_target_variances_score_zero(self):
        stub = StubModel(y_var=[1.0], f0_var=[0.0], f1_var=[0.0], f01_cov=[0.0], cy0=[[0.0]], cy1=[[0.0]])
        assert score_one("causal_epig_mu", stub, (np.zeros(1), 0), np.zeros((1, 1))) == 0.0

    def test_matches_block_mi_on_fitted_model(self, rng):
        model = fitted_toy(rng)
        cand = (np.array([-0.3]), 1)
        targets = rng.normal(size=(3, 1))
        belief = predictive_belief(model, cand, targets)
        expected = np.mean([
            gaussian_mi_block(belief, ["y"], [f"f0@{j}", f"f1@{j}"]) for j in range(3)
        ])
        assert score_one("causal_epig_mu", model, cand, targets) == pytest.approx(expected, abs=1e-9)


    @pytest.mark.parametrize("n_c, m", [(1, 1), (5, 3), (300, 150), (40, 20000)])
    def test_pool_scores_bitwise_equal_to_whole_matrix_expression(self, rng, n_c, m):
        # the pre-blocking expression over all candidate rows at once, with
        # degenerate targets and candidates at the variance floor; (300, 150)
        # and (40, 20000) span several row blocks, the last one ragged
        f0, f1 = rng.uniform(0.0, 2.0, m), rng.uniform(0.0, 2.0, m)
        f0[::4], f1[::8] = 0.0, 0.0
        f01 = rng.uniform(-0.9, 0.9, m) * np.sqrt(f0 * f1)
        y_var = rng.uniform(0.0, 2.0, n_c)
        y_var[::6] = 0.0
        cy0, cy1 = 0.3 * rng.normal(size=(n_c, m)), 0.3 * rng.normal(size=(n_c, m))
        stub = StubModel(y_var=y_var, f0_var=f0, f1_var=f1, f01_cov=f01, cy0=cy0, cy1=cy1)

        vy = y_var[:, None]
        eps = 1e-12 * np.maximum(np.maximum(f0, f1), 1.0)
        v0, v1 = f0 + eps, f1 + eps
        det2 = np.maximum(v0 * v1 - f01**2, 1e-300)[None, :]
        q = cy0**2 * v1[None, :] - 2.0 * cy0 * cy1 * f01[None, :] + cy1**2 * v0[None, :]
        ratio = np.clip(q / np.maximum(det2 * vy, 1e-300), 0.0, 1.0 - 1e-15)
        out = -0.5 * np.log1p(-ratio)
        degenerate = ((f0 <= 1e-12) & (f1 <= 1e-12))[None, :]
        out = np.where(degenerate | (vy <= 1e-12), 0.0, out)
        expected = np.mean(np.maximum(out, 0.0), axis=1)

        got = scores("causal_epig_mu", stub, np.zeros((n_c, 1)), np.zeros(n_c, dtype=int), np.zeros((m, 1)))
        np.testing.assert_array_equal(got, expected)


class TestAdditiveVariant:
    def test_joint_minus_additive_is_the_surface_interaction_gap(self, rng):
        # exact decomposition: joint - additive = I(f0; f1 | y) - I(f0; f1);
        # the two agree exactly when the surfaces are independent both
        # marginally and given the outcome
        for _ in range(25):
            vy = rng.uniform(0.5, 2.0)
            v0, v1 = rng.uniform(0.5, 2.0, 2)
            cy0 = rng.uniform(-0.6, 0.6) * np.sqrt(vy * v0)
            cy1 = rng.uniform(-0.6, 0.6) * np.sqrt(vy * v1)
            c01 = rng.uniform(-0.5, 0.5) * np.sqrt(v0 * v1)
            cov = np.array([[vy, cy0, cy1], [cy0, v0, c01], [cy1, c01, v1]])
            if np.linalg.eigvalsh(cov).min() < 1e-6:
                continue
            stub = StubModel(y_var=[vy], f0_var=[v0], f1_var=[v1], f01_cov=[c01],
                             cy0=[[cy0]], cy1=[[cy1]])
            joint = score_one("causal_epig_mu", stub, (np.zeros(1), 0), np.zeros((1, 1)))
            additive = score_one("causal_epig_mu_additive", stub, (np.zeros(1), 0), np.zeros((1, 1)))
            mi_marginal = gaussian_mi_scalar(v0, v1, c01)
            c01_given_y = c01 - cy0 * cy1 / vy
            mi_conditional = gaussian_mi_scalar(v0 - cy0**2 / vy, v1 - cy1**2 / vy, c01_given_y)
            assert joint - additive == pytest.approx(mi_conditional - mi_marginal, abs=1e-10)

    def test_fully_independent_surfaces_make_additive_equal_joint(self):
        stub = StubModel(y_var=[1.0], f0_var=[1.0], f1_var=[1.0], f01_cov=[0.0],
                         cy0=[[0.0]], cy1=[[0.2]])
        joint = score_one("causal_epig_mu", stub, (np.zeros(1), 0), np.zeros((1, 1)))
        additive = score_one("causal_epig_mu_additive", stub, (np.zeros(1), 0), np.zeros((1, 1)))
        assert additive == pytest.approx(joint, abs=1e-12)

    def test_hand_built_belief_values(self):
        # direct evaluation on cov [[1,.4,.2],[.4,1,.5],[.2,.5,1]] (y,f0,f1)
        stub = StubModel(y_var=[1.0], f0_var=[1.0], f1_var=[1.0], f01_cov=[0.5],
                         cy0=[[0.4]], cy1=[[0.2]])
        additive = score_one("causal_epig_mu_additive", stub, (np.zeros(1), 0), np.zeros((1, 1)))
        expected_additive = gaussian_mi_scalar(1, 1, 0.4) + gaussian_mi_scalar(1, 1, 0.2)
        assert additive == pytest.approx(expected_additive, abs=1e-12)

        sigma = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.5], [0.2, 0.5, 1.0]])
        det3 = np.linalg.det(sigma)
        det_bb = 1.0 - 0.25
        expected_joint = 0.5 * np.log(1.0 * det_bb / det3)
        joint = score_one("causal_epig_mu", stub, (np.zeros(1), 0), np.zeros((1, 1)))
        assert joint == pytest.approx(expected_joint, abs=1e-12)


class TestGlobalVariants:
    def test_singleton_target_equals_mean_marginal(self, rng):
        model = fitted_toy(rng)
        cand = (np.array([0.3]), 0)
        target = np.array([[0.1]])
        assert score_one("causal_epig_tau_global", model, cand, target) == pytest.approx(
            score_one("causal_epig_tau", model, cand, target), abs=1e-10
        )
        assert score_one("causal_epig_mu_global", model, cand, target) == pytest.approx(
            score_one("causal_epig_mu", model, cand, target), abs=1e-10
        )

    def test_duplicated_target_matches_deduplicated(self, rng):
        model = fitted_toy(rng)
        cand = (np.array([0.3]), 1)
        base = rng.normal(size=(4, 1))
        dup = np.vstack([base, base[2:3]])
        a = score_one("causal_epig_tau_global", model, cand, base)
        b = score_one("causal_epig_tau_global", model, cand, dup)
        assert a == pytest.approx(b, abs=1e-6)

    def test_bad_estimand_rejected(self):
        # the global estimand is part of the method name
        with pytest.raises(InputError):
            AcquisitionMethod("causal_epig_effect_global")


class TestFactualEpig:
    # the (x*, t*) sample is drawn from the pool, so a pool of one pairs the
    # candidate with itself
    def test_self_pair_scores_positive(self, rng):
        model = fitted_toy(rng)
        assert score_one("epig_factual", model, (np.array([0.2]), 1)) > 0.0

    def test_disjoint_support_pair_scores_zero(self):
        # a one-point sample of a two-point pool: the candidate left out of
        # the sample pairs only with the other, far outside its support
        model = fitted_toy()
        got = scores("epig_factual", model, [[0.1], [900.0]], [0, 0], epig_sample_size=1)
        assert got.min() < 1e-12

    def test_composition_matches_scalar_mi(self, rng):
        model = fitted_toy(rng)
        xs = rng.normal(size=(4, 1))
        ts = rng.integers(0, 2, 4)
        cross = model.latent_cov(xs, ts, xs, ts)
        star = model.latent_var(xs, ts) + model.noise_variance
        expected = [np.mean([gaussian_mi_scalar(star[i], star[j], cross[i, j]) for j in range(4)]) for i in range(4)]
        got = scores("epig_factual", model, xs, ts, epig_sample_size=4)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(InputError):
            AcquisitionMethod("epig_factual", epig_sample_size=0)


def factor_moments(rng, n_c, m):
    """StubModel moments of a three-factor Gaussian model, so every
    covariance is within its Cauchy-Schwarz bound. Every sixth candidate and
    every fourth target sit below the variance floor with small nonzero
    covariances, which score only through the floor rule; f1 alone does so
    at every eighth target from the second; a grid of covariances is 0."""
    a = rng.normal(size=(n_c, 3))
    a[::6] *= 1e-7
    b0, b1 = rng.normal(size=(m, 3)), rng.normal(size=(m, 3))
    b0[::4], b1[::4], b1[1::8] = 1e-7 * b0[::4], 1e-7 * b1[::4], 1e-7 * b1[1::8]
    noise = rng.uniform(0.1, 1.0, n_c)
    noise[::6] = 0.0
    y_var = np.sum(a * a, axis=1) + noise
    cy0, cy1 = a @ b0.T, a @ b1.T
    cy0[::3, ::5], cy1[::3, ::5] = 0.0, 0.0
    return dict(y_var=y_var, f0_var=np.sum(b0 * b0, axis=1), f1_var=np.sum(b1 * b1, axis=1),
                f01_cov=np.sum(b0 * b1, axis=1), cy0=cy0, cy1=cy1)


def mean_over_targets(name, stub):
    """``name``'s scores of a StubModel pool against its own targets."""
    n_c, m = stub._cy0.shape
    return scores(name, stub, np.zeros((n_c, 1)), np.zeros(n_c, dtype=int), np.zeros((m, 1)))


class IndexedLatentStub(StubModel):
    """Latent moments looked up by the index each point carries as its
    covariate, for the factual-outcome scorer."""

    def __init__(self, latent_var, latent_cross):
        super().__init__([1.0], [1.0], [1.0], [0.0], [[0.0]], [[0.0]], noise=0.0)
        self._var, self._cross = latent_var, latent_cross

    def latent_var(self, x, t):
        return self._var[x[:, 0].astype(int)]

    def latent_cov(self, xa, ta, xb, tb):
        return self._cross[np.ix_(xa[:, 0].astype(int), xb[:, 0].astype(int))]


class TestBlockedMeanOverTargets:
    # the blocked scorers against the whole-matrix scalar-MI oracle; (300,
    # 150) and (40, 20000) span several row blocks, the last one ragged, and
    # (40, 20000) has one row per block
    SHAPES = [(1, 1), (5, 3), (300, 150), (40, 20000)]

    @pytest.mark.parametrize("n_c, m", SHAPES)
    def test_contrast_scores_bitwise_equal_to_whole_matrix_oracle(self, rng, n_c, m):
        mo = factor_moments(rng, n_c, m)
        tau_var = mo["f0_var"] + mo["f1_var"] - 2.0 * mo["f01_cov"]
        expected = np.mean(_mi_scalar_vec(mo["y_var"][:, None], tau_var[None, :], mo["cy1"] - mo["cy0"]), axis=1)
        np.testing.assert_array_equal(mean_over_targets("causal_epig_tau", StubModel(**mo)), expected)

    @pytest.mark.parametrize("n_c, m", SHAPES)
    def test_additive_scores_bitwise_equal_to_whole_matrix_oracle(self, rng, n_c, m):
        mo = factor_moments(rng, n_c, m)
        vy = mo["y_var"][:, None]
        mi0 = _mi_scalar_vec(vy, mo["f0_var"][None, :], mo["cy0"])
        mi1 = _mi_scalar_vec(vy, mo["f1_var"][None, :], mo["cy1"])
        expected = np.mean(mi0 + mi1, axis=1)
        np.testing.assert_array_equal(mean_over_targets("causal_epig_mu_additive", StubModel(**mo)), expected)

    @pytest.mark.parametrize("n, m", [(1, 1), (5, 3), (300, 150), (600, 500)])
    def test_factual_scores_bitwise_equal_to_whole_matrix_oracle(self, rng, n, m):
        # the sample is drawn from the pool, so m <= n; (600, 500) spans
        # ragged blocks of 32 rows
        a = rng.normal(size=(n, 3))
        a[::6] *= 1e-7  # latent variance ~1e-14 and no noise: below the floor
        var, cross = np.sum(a * a, axis=1), a @ a.T
        cross[::3, ::5] = 0.0
        pick = np.random.default_rng(0).choice(n, size=m, replace=False)
        expected = np.mean(_mi_scalar_vec(var[:, None], var[pick][None, :], cross[:, pick]), axis=1)
        got = scores("epig_factual", IndexedLatentStub(var, cross), np.arange(n, dtype=float)[:, None],
                     np.zeros(n, dtype=int), epig_sample_size=m)
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def oracle_message(var_a, var_b, cov):
        with pytest.raises(NumericalError) as caught:
            _mi_scalar_vec(var_a[:, None], var_b[None, :], cov)
        return str(caught.value)

    def test_contrast_bound_violation_in_the_last_ragged_block_only(self, rng):
        # 109 rows per block at m = 150: rows 218..299 form the ragged last block
        mo = factor_moments(rng, 300, 150)
        mo["cy1"][299, 7] += 10.0
        tau_var = mo["f0_var"] + mo["f1_var"] - 2.0 * mo["f01_cov"]
        message = self.oracle_message(mo["y_var"], tau_var, mo["cy1"] - mo["cy0"])
        with pytest.raises(NumericalError) as caught:
            mean_over_targets("causal_epig_tau", StubModel(**mo))
        assert str(caught.value) == message

    def test_contrast_bound_reports_the_worst_excess_over_all_blocks(self, rng):
        mo = factor_moments(rng, 300, 150)
        mo["cy1"][1, 7] += 3.0
        mo["cy1"][299, 7] += 10.0
        mo["cy1"][150, 9] += 5.0
        tau_var = mo["f0_var"] + mo["f1_var"] - 2.0 * mo["f01_cov"]
        message = self.oracle_message(mo["y_var"], tau_var, mo["cy1"] - mo["cy0"])
        with pytest.raises(NumericalError) as caught:
            mean_over_targets("causal_epig_tau", StubModel(**mo))
        assert str(caught.value) == message

    def test_additive_bound_violation_in_the_last_ragged_block_only(self, rng):
        mo = factor_moments(rng, 300, 150)
        mo["cy1"][299, 7] += 10.0
        message = self.oracle_message(mo["y_var"], mo["f1_var"], mo["cy1"])
        with pytest.raises(NumericalError) as caught:
            mean_over_targets("causal_epig_mu_additive", StubModel(**mo))
        assert str(caught.value) == message

    def test_additive_reports_the_control_violation_before_the_treated_one(self, rng):
        # the larger treated-arm excess sits in an earlier block, yet the
        # control arm's is the one reported, as the whole-matrix order does
        mo = factor_moments(rng, 300, 150)
        mo["cy0"][299, 7] += 2.0
        mo["cy1"][1, 7] += 10.0
        message = self.oracle_message(mo["y_var"], mo["f0_var"], mo["cy0"])
        assert message != self.oracle_message(mo["y_var"], mo["f1_var"], mo["cy1"])
        with pytest.raises(NumericalError) as caught:
            mean_over_targets("causal_epig_mu_additive", StubModel(**mo))
        assert str(caught.value) == message

    @pytest.mark.parametrize("name", ["causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive"])
    def test_scoring_holds_the_bundle_plus_a_block(self, rng, name):
        # the bundle's cy0 and cy1 are the only (n_c, m) arrays scoring makes
        stub = StubModel(**factor_moments(rng, 1500, 1500))
        bundle_bytes = 2 * 1500 * 1500 * 8
        tracemalloc.start()
        try:
            mean_over_targets(name, stub)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bundle_bytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def scalar_mi_block(va, vb, c):
    """``_scalar_mi_block`` of one (r, m) block: its returned excess and its
    ``out`` (unset buffers hold NaN)."""
    out, work, prod = np.full((3,) + c.shape, np.nan)
    return acquisition._scalar_mi_block(out, work, prod, va[:, None], vb, c), out


def assert_block_is_the_oracle(va, vb, c) -> bool:
    """The block against the whole-matrix oracle: the same bits where the
    oracle scores, the same worst excess where it raises. True if it raised."""
    excess, out = scalar_mi_block(va, vb, c)
    try:
        with np.errstate(all="ignore"):
            expected = _mi_scalar_vec(va[:, None], vb[None, :], c)
    except NumericalError as err:
        assert str(err) == f"covariance exceeds the variance bound by up to {excess}"
        return True
    assert excess == -np.inf
    np.testing.assert_array_equal(np.isnan(out), np.isnan(expected))
    finite = ~np.isnan(expected)
    np.testing.assert_array_equal(out[finite].view(np.uint64), expected[finite].view(np.uint64))
    return False


def edge_block(rng):
    """A small block of variances and covariances within the bound, with one
    kind of edge at random: entries just inside or just outside the 1e-6
    slack, a NaN covariance, a zero, sub-floor or negative variance,
    variances near 1e-160 (products under DET_FLOOR), or a grid of zero
    covariances."""
    r, m = int(rng.integers(1, 9)), int(rng.integers(1, 41))
    va = rng.uniform(0.0, 1.0, r) * 10.0 ** rng.uniform(-3, 3)
    vb = rng.uniform(0.0, 1.0, m) * 10.0 ** rng.uniform(-3, 3)
    root = np.sqrt(va[:, None] * vb)
    c = rng.uniform(-1.0, 1.0, (r, m)) * root
    kind = rng.integers(8)
    if kind == 1:
        pick = rng.random((r, m)) < 0.2
        c[pick] = (root * (1.0 + rng.uniform(-3e-6, 3e-6, (r, m))) * rng.choice([-1.0, 1.0], (r, m)))[pick]
    elif kind == 2:
        c[rng.integers(r), rng.integers(m)] = np.nan
    elif kind == 3:
        va[rng.integers(r)] = rng.choice([0.0, 1e-13, -1e-3])
    elif kind == 4:
        vb[rng.integers(m)] = rng.choice([0.0, 1e-13, -1e-3])
    elif kind == 5:
        va[:] = 10.0 ** rng.uniform(-170, -150, r)
        c = rng.uniform(-1.0, 1.0, (r, m)) * np.sqrt(va[:, None] * vb)
    elif kind == 6:
        c[rng.random((r, m)) < 0.3] = 0.0
    return va, vb, c


class TestScalarMiBlock:
    # the screened block against the whole-matrix oracle, edge by edge
    BASE_VA, BASE_VB = np.array([0.5, 2.0, 1.3]), np.array([1.0, 0.25, 4.0, 0.9])

    def base_block(self):
        root = np.sqrt(self.BASE_VA[:, None] * self.BASE_VB)
        return self.BASE_VA.copy(), self.BASE_VB.copy(), 0.6 * root * np.array([1.0, -0.5, 0.3, -0.9]), root

    def test_ordinary_block(self):
        assert not assert_block_is_the_oracle(*self.base_block()[:3])

    @pytest.mark.parametrize("factor", [1.0, 1.0 + 2e-7, 1.0 + 9e-7])
    def test_entry_just_inside_the_slack(self, factor):
        va, vb, c, root = self.base_block()
        c[1, 2] = -factor * root[1, 2]
        assert not assert_block_is_the_oracle(va, vb, c)

    @pytest.mark.parametrize("factor", [1.0 + 1.1e-6, 1.0 + 5e-6, 1.5])
    def test_entry_just_outside_the_slack(self, factor):
        va, vb, c, root = self.base_block()
        c[1, 2] = factor * root[1, 2]
        c[2, 0] = -1.2 * factor * root[2, 0]
        assert assert_block_is_the_oracle(va, vb, c)

    def test_nan_covariance(self):
        va, vb, c, _ = self.base_block()
        c[0, 3] = np.nan
        assert not assert_block_is_the_oracle(va, vb, c)

    @pytest.mark.parametrize("value", [0.0, 1e-13, -1e-3])
    def test_variance_at_or_below_the_floor(self, value):
        for side in (0, 1):
            va, vb, c, _ = self.base_block()
            if side == 0:
                va[1] = value
                c[1] = 0.0 if value < 0 else np.sqrt(max(value, 0.0) * vb) * 0.5
            else:
                vb[2] = value
                c[:, 2] = 0.0 if value < 0 else np.sqrt(max(value, 0.0) * va) * 0.5
            assert not assert_block_is_the_oracle(va, vb, c)

    def test_negative_variance_with_a_covariance_raises(self):
        va, vb, c, _ = self.base_block()
        va[0] = -1e-3
        assert assert_block_is_the_oracle(va, vb, c)

    def test_products_under_the_determinant_floor(self):
        va, vb, c, _ = self.base_block()
        va[:], vb[:] = [1e-160, 3e-161, 2e-155], [1e-160, 5e-158, 1e-170, 2e-160]
        c = 0.7 * np.sqrt(va[:, None] * vb)
        assert not assert_block_is_the_oracle(va, vb, c)

    def test_random_edge_blocks(self):
        rng = np.random.default_rng(17)
        raised = sum(assert_block_is_the_oracle(*edge_block(rng)) for _ in range(20_000))
        assert raised >= 1_000

    def test_ordinary_pools_never_take_the_exact_path(self, monkeypatch):
        # the screen settles every block of a fitted model's pool, so an edit
        # that sent ordinary blocks down the exact path would show here
        calls = {"block": 0, "exact": 0}
        block, exact = acquisition._scalar_mi_block, acquisition._scalar_mi_exact

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        monkeypatch.setattr(acquisition, "_scalar_mi_block", counted("block", block))
        monkeypatch.setattr(acquisition, "_scalar_mi_exact", counted("exact", exact))
        rng = np.random.default_rng(3)
        data = gen_causalbald(260, rng=rng)
        x, t, y = data.covariates, data.treatments, data.outcomes
        models = [fit_ensemble(x[:60], t[:60], y[:60], rng=1)]
        for kind in ("cmgp2", "nsgp"):
            models.append(fit_gp(x[:60], t[:60], y[:60], random_fitted_gp(rng, kind=kind).params))
        for model in models:
            for name in ("causal_epig_tau", "causal_epig_mu_additive", "epig_factual"):
                scores(name, model, x[60:], t[60:])
        assert calls["block"] >= 9 and calls["exact"] == 0


class HeldEnsemble(EnsembleLinearModel):
    """The same ensemble with its bundle's covariance matrices computed whole
    and held, as the bundle served them before it computed rows per block."""

    def moment_bundle(self, cand_x, cand_t, target_x):
        b = super().moment_bundle(cand_x, cand_t, target_x)
        moments = {f.name: getattr(b, f.name) for f in fields(MomentBundle)}
        return HeldMomentBundle(**moments, cy0=b.cy0, cy1=b.cy1)


class TestRowServedBundle:
    @staticmethod
    def ensemble(rng):
        x = rng.normal(size=(200, 3))
        t = rng.integers(0, 2, 200)
        return fit_ensemble(x, t, x[:, 0] + t * x[:, 1] + rng.normal(size=200), rng=1)

    @pytest.mark.parametrize("n_c, m", [(1, 5), (301, 150), (37, 9000)])
    def test_ensemble_scores_equal_scores_from_held_matrices(self, rng, n_c, m):
        # (301, 150) ends in a ragged block; at m = 9000 every block is one row
        model = self.ensemble(rng)
        held = HeldEnsemble(model.mu_weights, model.tau_weights, model.noise_variance)
        px, pt, tx = rng.normal(size=(n_c, 3)), rng.integers(0, 2, n_c), rng.normal(size=(m, 3))
        for name in ("causal_epig_mu", "causal_epig_mu_additive"):
            np.testing.assert_array_equal(scores(name, model, px, pt, tx), scores(name, held, px, pt, tx))
        # the contrast rows come from one product, not a difference of two
        np.testing.assert_allclose(scores("causal_epig_tau", model, px, pt, tx),
                                   scores("causal_epig_tau", held, px, pt, tx), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", ["causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive"])
    def test_ensemble_scoring_holds_no_candidate_by_target_matrix(self, rng, name):
        model = self.ensemble(rng)
        px, pt = rng.normal(size=(2000, 3)), rng.integers(0, 2, 2000)
        tracemalloc.start()
        try:
            scores(name, model, px, pt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = 2000 * 2000 * 8
        assert peak < matrix_bytes / 4, f"peak {peak / 2**20:.1f} MB"


class TestOneBlasThread:
    def test_scoring_runs_on_one_thread_and_restores_the_callers_count(self, two_blas_threads):
        seen = []

        class CountingStub(StubModel):
            def moment_bundle(self, *args):
                seen.append(two_blas_threads())
                return super().moment_bundle(*args)

        stub = CountingStub([2.0], [1.0], [1.0], [0.5], [[0.3]], [[0.4]])
        scores("causal_epig_tau", stub, [[0.0]], [1], [[0.0]])
        assert len(seen) == 1 and set(seen[0]) == {1}
        assert set(two_blas_threads()) == {2}

    def test_scores_do_not_depend_on_the_blas_thread_count(self):
        # a GP's moment bundle rounds differently under a multi-threaded gemm
        if (os.cpu_count() or 1) < 2:
            pytest.skip("one core: OpenBLAS runs single-threaded either way")
        if not blas.openblas_thread_controls():
            pytest.skip("no OpenBLAS with a thread setter is loaded")
        code = (
            "import numpy as np\n"
            "from conftest import random_fitted_gp\n"
            "from test_acquisition import scores\n"
            "rng = np.random.default_rng(3)\n"
            "model = random_fitted_gp(rng, n=60, dim=4, kind='cmgp2')\n"
            "px, pt, tx = rng.normal(size=(401, 4)), rng.integers(0, 2, 401), rng.normal(size=(300, 4))\n"
            "for name in ('causal_epig_tau', 'causal_epig_mu'):\n"
            "    print([v.hex() for v in scores(name, model, px, pt, tx)])\n"
        )
        rows = stdout_at_default_and_one_blas_thread(code)
        assert rows[0] == rows[1]


class TestBaldVariants:
    def test_zero_latent_variance_scores_zero(self):
        stub = StubModel(y_var=[1.0], f0_var=[0.0], f1_var=[0.0], f01_cov=[0.0],
                         cy0=[[0.0]], cy1=[[0.0]], noise=1.0)
        assert score_one("mu_bald", stub, (np.zeros(1), 1)) == 0.0

    def test_variance_equal_noise_gives_half_log_two(self):
        stub = StubModel(y_var=[0.8], f0_var=[0.4], f1_var=[0.4], f01_cov=[0.0],
                         cy0=[[0.0]], cy1=[[0.0]], noise=0.4)
        assert score_one("mu_bald", stub, (np.zeros(1), 0)) == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_ranking_matches_latent_variance_order(self, rng):
        model = fitted_toy(rng)
        pool_x = rng.normal(size=(12, 1))
        pool_t = rng.integers(0, 2, 12)
        got = scores("mu_bald", model, pool_x, pool_t)
        variances = model.latent_var(pool_x, pool_t)
        assert np.array_equal(np.argsort(got), np.argsort(variances))

    def test_tau_bald_uses_doubled_noise(self):
        stub = StubModel(y_var=[1.5], f0_var=[0.5], f1_var=[0.7], f01_cov=[0.1],
                         cy0=[[0.0]], cy1=[[0.0]], noise=0.5)
        v_tau = 0.5 + 0.7 - 0.2
        assert score_one("tau_bald", stub, (np.zeros(1), 0)) == pytest.approx(0.5 * np.log1p(v_tau / 1.0), abs=1e-12)


class TestCombinedBald:
    def test_balanced_propensity_halves_the_score(self, rng):
        model = fitted_toy(rng)
        x = rng.normal(size=(200, 1))
        prop = fit_propensity(x, rng.integers(0, 2, 200))
        # neutralize the fit so every prediction is exactly 0.5
        prop.weights[:] = 0.0
        cand = (np.array([0.2]), 1)
        assert score_one("mu_pi_bald", model, cand, propensity=prop) == pytest.approx(
            0.5 * score_one("mu_bald", model, cand), abs=1e-12)

    def test_max_spread_candidate_keeps_full_score(self, rng):
        model = fitted_toy(rng)
        pool_x = rng.normal(size=(8, 1))
        pool_t = rng.integers(0, 2, 8)
        top = int(np.argmax(model.tau_sd(pool_x)))
        got = scores("mu_rho_bald", model, pool_x, pool_t)
        assert got[top] == pytest.approx(scores("mu_bald", model, pool_x, pool_t)[top], abs=1e-12)

    def test_pool_weights_stay_in_unit_interval(self, rng):
        model = fitted_toy(rng)
        pool = gen_causalbald(100, rng=rng)
        prop = fit_propensity(pool.covariates, pool.treatments)
        ctx = ScoringContext(targets=pool.covariates, labeled_x=model.train_x,
                             labeled_t=model.train_t, rng=rng, propensity=prop)
        base = score_pool(AcquisitionMethod("mu_bald"), model, pool.covariates, pool.treatments, ctx)
        weighted = score_pool(AcquisitionMethod("mu_pi_bald"), model, pool.covariates, pool.treatments, ctx)
        ratio = weighted[base > 0] / base[base > 0]
        assert np.all(ratio >= 0.0) and np.all(ratio <= 1.0)

    def test_missing_propensity_rejected(self):
        with pytest.raises(InputError):
            score_one("mu_pi_bald", fitted_toy(), (np.zeros(1), 1))


class TestSignAmbiguity:
    def test_identical_draws_score_zero(self):
        assert sign_ambiguity_score(np.full((1, 16), 0.7))[0] == 0.0

    def test_symmetric_two_draw_case_by_hand(self):
        # sd of {-a, +a} is a, so both gammas equal Phi(-1) and the Jensen
        # gap closes exactly
        gamma = norm.cdf(-1.0)
        assert gamma == pytest.approx(0.15866, abs=5e-6)
        assert sign_ambiguity_score(np.array([[-0.8, 0.8]]))[0] == 0.0

    def test_two_unequal_draws_match_hand_entropy(self):
        draws = np.array([-1.0, 2.0])
        sd = draws.std()
        gam = norm.cdf(-np.abs(draws) / sd)
        expected = bernoulli_entropy(gam.mean()) - bernoulli_entropy(gam).mean()
        assert sign_ambiguity_score(draws[None, :])[0] == pytest.approx(float(expected), abs=1e-14)

    def test_score_bounded_by_log_two(self, rng):
        for _ in range(200):
            s = sign_ambiguity_score(rng.normal(size=(1, rng.integers(2, 40))))[0]
            assert 0.0 <= s <= np.log(2.0) + 1e-12

    def test_model_level_wrapper(self, rng):
        model = fitted_toy(rng)
        score = score_one("sundin", model, (np.array([0.1]), 1), sundin_samples=100)
        assert 0.0 <= score <= np.log(2.0)
        with pytest.raises(InputError):
            AcquisitionMethod("sundin", sundin_samples=1)

    def test_bitwise_equal_to_the_norm_cdf_build(self, rng):
        draws = rng.normal(size=(200, 50)) * rng.uniform(0.01, 5.0, size=(200, 1))
        gamma = norm.cdf(-np.abs(draws) / draws.std(axis=1, keepdims=True))
        gap = bernoulli_entropy(gamma.mean(axis=1)) - bernoulli_entropy(gamma).mean(axis=1)
        np.testing.assert_array_equal(sign_ambiguity_score(draws), np.maximum(gap, 0.0))


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone costs more than the rest of the package's import
    src = os.path.dirname(os.path.dirname(cate_al.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, cate_al; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestCoreset:
    def test_candidate_on_labeled_point_scores_zero(self, rng):
        model = fitted_toy(rng)
        lx = model.train_x
        lt = model.train_t
        got = scores("coreset_qhte", model, lx[:1], lt[:1], labeled=(lx, lt))
        assert got[0] == pytest.approx(0.0, abs=1e-6)

    def test_matches_brute_force_on_small_pool(self, rng):
        model = fitted_toy(rng)
        px = rng.normal(size=(5, 1))
        pt = rng.integers(0, 2, 5)
        lx, lt = model.train_x, model.train_t
        got = scores("coreset_qhte", model, px, pt, labeled=(lx, lt))
        for i in range(5):
            anchors = np.flatnonzero(lt == pt[i])
            dists = []
            for j in anchors:
                va = model.latent_var(px[i : i + 1], pt[i : i + 1])[0]
                vb = model.latent_var(lx[j : j + 1], lt[j : j + 1])[0]
                cab = model.latent_cov(px[i : i + 1], pt[i : i + 1], lx[j : j + 1], lt[j : j + 1])[0, 0]
                dists.append(np.sqrt(max(va + vb - 2 * cab, 0.0)))
            assert got[i] == pytest.approx(min(dists), abs=1e-10)

    def test_unlabeled_arm_gets_sentinel_above_pool_max(self, rng):
        model = fitted_toy(rng)
        px = rng.normal(size=(6, 1))
        pt = np.array([0, 0, 0, 1, 1, 1])
        lx = model.train_x[model.train_t == 0]
        got = scores("coreset_qhte", model, px, pt, labeled=(lx, np.zeros(len(lx), dtype=int)))
        assert np.all(got[3:] > got[:3].max())


class TestCausalEig:
    # the reference grid is the first eig_grid_size pool covariates
    def test_single_point_grid_reduces_to_singleton_contrast_gain(self, rng):
        model = fitted_toy(rng)
        pool_x = np.array([[0.6], [0.25]])
        got = scores("causal_eig", model, pool_x, [0, 1], eig_grid_size=1)
        assert got[1] == pytest.approx(score_one("causal_epig_tau", model, (pool_x[1], 1), pool_x[:1]), abs=1e-10)

    def test_disjoint_grid_scores_zero(self):
        model = fitted_toy()
        got = scores("causal_eig", model, [[700.0], [710.0], [0.0]], [0, 0, 0], eig_grid_size=2)
        assert got[2] < 1e-10

    def test_three_point_grid_matches_block_mi(self, rng):
        model = fitted_toy(rng)
        grid = rng.normal(size=(3, 1))
        cand = (np.array([-0.2]), 0)
        belief = predictive_belief(model, cand, grid)
        expected = gaussian_mi_block(belief, ["y"], ["tau@0", "tau@1", "tau@2"])
        got = scores("causal_eig", model, np.vstack([grid, cand[0][None, :]]), [1, 1, 1, 0], eig_grid_size=3)
        assert got[3] == pytest.approx(expected, abs=1e-8)


class TestRandomScores:
    @staticmethod
    def random_scores(n, seed):
        return scores("random", StubModel([1.0], [1.0], [1.0], [0.0], [[0.0]], [[0.0]]),
                      np.zeros((n, 1)), np.zeros(n, dtype=int), rng=seed)

    def test_reproducible_per_seed(self):
        np.testing.assert_array_equal(self.random_scores(10, 5), self.random_scores(10, 5))

    def test_open_unit_interval(self):
        s = self.random_scores(100_000, 0)
        assert s.min() > 0.0 and s.max() < 1.0

    def test_mean_converges_to_half(self):
        s = self.random_scores(100_000, 1)
        assert abs(s.mean() - 0.5) < 0.01


class TestPropensity:
    def test_all_treated_clamps_high(self, rng):
        x = rng.normal(size=(50, 1))
        model = fit_propensity(x, np.ones(50))
        assert np.all(predict_pi(model, x) == 0.99)

    def test_independent_balanced_treatments_predict_half(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10_000, 1))
        t = rng.integers(0, 2, 10_000)
        model = fit_propensity(x, t)
        probe = np.linspace(-2, 2, 21)[:, None]
        assert np.abs(predict_pi(model, probe) - 0.5).max() < 0.03

    def test_recovers_logistic_assignment_rule(self):
        # generate-and-recover against the sinusoidal design's rule
        pool = gen_causalbald(10_000, rng=np.random.default_rng(11))
        model = fit_propensity(pool.covariates, pool.treatments)
        grid = np.linspace(-2, 2, 81)[:, None]
        truth = 1.0 / (1.0 + np.exp(-(2.0 * grid[:, 0] + 0.5)))
        assert np.abs(predict_pi(model, grid) - np.clip(truth, 0.01, 0.99)).max() < 0.05


class TestPoolScoring:
    def make_ctx(self, model, rng, targets):
        return ScoringContext(targets=targets, labeled_x=model.train_x,
                              labeled_t=model.train_t, rng=rng)

    def test_the_bundle_readers_are_the_causal_epig_methods(self):
        readers = {name for name in METHOD_NAMES if AcquisitionMethod(name).reads_target_bundle}
        assert readers == {"causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive",
                           "causal_epig_tau_global", "causal_epig_mu_global"}

    def test_a_given_bundle_is_scored_and_must_fit_the_pool_and_targets(self, rng):
        model = random_fitted_gp(rng, n=20, dim=1, kind="cmgp2")
        px, pt, targets = rng.normal(size=(7, 1)), rng.integers(0, 2, 7), rng.normal(size=(5, 1))
        bundle = model.moment_bundle(px, pt, targets)
        ctx = replace(self.make_ctx(model, np.random.default_rng(0), targets), bundle=bundle)
        for name in ("causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive",
                     "causal_epig_tau_global", "causal_epig_mu_global"):
            method = AcquisitionMethod(name)
            np.testing.assert_array_equal(score_pool(method, model, px, pt, ctx), scores(name, model, px, pt, targets))
            for bad in (model.moment_bundle(px[:6], pt[:6], targets), model.moment_bundle(px, pt, targets[:4])):
                with pytest.raises(InputError, match="shape"):
                    score_pool(method, model, px, pt, replace(ctx, bundle=bad))

    def test_vectorized_scores_match_per_candidate_ops(self, rng):
        # the global scorers against the block MI of each candidate's belief
        model = fitted_toy(rng)
        px = rng.normal(size=(6, 1))
        pt = rng.integers(0, 2, 6)
        targets = rng.normal(size=(4, 1))
        for name, block in (("causal_epig_tau_global", ["tau@{}"]), ("causal_epig_mu_global", ["f0@{}", "f1@{}"])):
            labels = [lab.format(j) for j in range(4) for lab in block]
            want = [gaussian_mi_block(predictive_belief(model, (px[i], pt[i]), targets), ["y"], labels)
                    for i in range(6)]
            np.testing.assert_allclose(scores(name, model, px, pt, targets), want, atol=1e-8)

    @pytest.mark.parametrize("kind", ["cmgp", "nsgp", "ensemble"])
    @pytest.mark.parametrize("name", ["causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive",
                                      "mu_bald", "tau_bald", "mu_pi_bald"])
    def test_pool_scores_equal_one_candidate_calls(self, rng, kind, name):
        x = rng.normal(size=(12, 1))
        t = np.tile([0, 1], 6)
        if kind == "ensemble":
            model = fit_ensemble(x, t, rng.normal(size=12) + x[:, 0] * t, n_members=8, rng=1)
        else:
            model = random_fitted_gp(rng, n=8, kind=kind)
        px = rng.normal(size=(7, 1))
        pt = rng.integers(0, 2, 7)
        targets = rng.normal(size=(5, 1))
        prop = fit_propensity(x, t)
        pool = scores(name, model, px, pt, targets, propensity=prop)
        single = [score_one(name, model, (px[i], pt[i]), targets, propensity=prop) for i in range(7)]
        np.testing.assert_allclose(pool, single, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", ["cmgp", "nsgp", "ensemble"])
    def test_sundin_pool_draws_equal_one_candidate_draws(self, rng, kind):
        # the pool call takes each candidate's contrast draws from the shared
        # generator in pool order, as successive one-candidate calls do
        if kind == "ensemble":
            x = rng.normal(size=(12, 1))
            t = np.tile([0, 1], 6)
            model = fit_ensemble(x, t, rng.normal(size=12) + x[:, 0] * t, n_members=8, rng=1)
        else:
            model = random_fitted_gp(rng, n=8, kind=kind)
        px = rng.normal(size=(7, 1))
        pt = rng.integers(0, 2, 7)
        method = AcquisitionMethod("sundin", sundin_samples=25)
        pool_ctx, one_ctx = (ScoringContext(targets=px, labeled_x=np.zeros((0, 1)), labeled_t=np.zeros(0, dtype=int),
                                            rng=np.random.default_rng(5)) for _ in range(2))
        pool = score_pool(method, model, px, pt, pool_ctx)
        single = [score_pool(method, model, px[i : i + 1], pt[i : i + 1], one_ctx)[0] for i in range(7)]
        np.testing.assert_allclose(pool, single, rtol=1e-12, atol=1e-12)
        assert pool.max() > 0.0
        assert pool_ctx.rng.uniform() == one_ctx.rng.uniform()

    def test_all_mi_scores_nonnegative_across_methods(self, rng):
        # every MI-based method on random fitted models stays above -1e-9
        for _ in range(50):
            kind = "cmgp" if rng.uniform() < 0.5 else "nsgp"
            model = random_fitted_gp(rng, n=int(rng.integers(4, 9)), kind=kind)
            px = rng.normal(size=(8, 1))
            pt = rng.integers(0, 2, 8)
            targets = rng.normal(size=(3, 1))
            ctx = self.make_ctx(model, rng, targets)
            for name in ("causal_epig_tau", "causal_epig_mu", "causal_epig_mu_additive",
                         "causal_epig_tau_global", "causal_epig_mu_global", "epig_factual",
                         "mu_bald", "tau_bald", "causal_eig"):
                scores = score_pool(AcquisitionMethod(name), model, px, pt, ctx)
                assert scores.min() >= -1e-9, name

    def test_outcome_rescaling_preserves_argmax(self, rng):
        pool = gen_causalbald(40, rng=rng)
        idx = np.arange(20)
        model = fitted_toy(rng)
        x, t, y = model.train_x, model.train_t, model.train_y
        c = 3.7
        scaled_params = CmgpParams(
            kernel=KernelConfig(family="rbf", lengthscales=model.params.kernel.lengthscales,
                                signal_variance=1.0, noise_variance=model.params.kernel.noise_variance * c**2),
            coreg=CoregionalizationConfig(task_covariance=model.params.coreg.task_covariance * c**2),
        )
        scaled = fit_gp(x, t, y * c, scaled_params)
        targets = pool.covariates[idx]
        ctx = self.make_ctx(model, np.random.default_rng(0), targets)
        ctx2 = self.make_ctx(scaled, np.random.default_rng(0), targets)
        a = score_pool(AcquisitionMethod("causal_epig_tau"), model, pool.covariates, pool.treatments, ctx)
        b = score_pool(AcquisitionMethod("causal_epig_tau"), scaled, pool.covariates, pool.treatments, ctx2)
        assert int(np.argmax(a)) == int(np.argmax(b))

    def test_target_cap_subsamples_deterministically(self, rng):
        model = fitted_toy(rng)
        px = rng.normal(size=(5, 1))
        pt = rng.integers(0, 2, 5)
        targets = rng.normal(size=(50, 1))
        method = AcquisitionMethod("causal_epig_tau", target_cap=10)
        a = score_pool(method, model, px, pt,
                       ScoringContext(targets=targets, labeled_x=model.train_x,
                                      labeled_t=model.train_t, rng=np.random.default_rng(7)))
        b = score_pool(method, model, px, pt,
                       ScoringContext(targets=targets, labeled_x=model.train_x,
                                      labeled_t=model.train_t, rng=np.random.default_rng(7)))
        np.testing.assert_array_equal(a, b)

    def test_unknown_method_name_rejected(self):
        with pytest.raises(InputError):
            AcquisitionMethod("entropy_search")

    def test_method_parameter_validation(self):
        with pytest.raises(InputError):
            AcquisitionMethod("sundin", sundin_samples=1)
        with pytest.raises(InputError):
            AcquisitionMethod("causal_eig", eig_grid_size=0)
        with pytest.raises(InputError):
            AcquisitionMethod("causal_epig_tau", target_cap=0)

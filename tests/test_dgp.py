import csv
import hashlib

import numpy as np
import pytest
from scipy.integrate import quad

from cate_al.dgp import (
    ACTG_COLUMNS,
    DATASET_NAMES,
    IHDP_BINARY,
    IHDP_CONTINUOUS,
    Dataset,
    SplitSpec,
    gen_actg_outcomes,
    gen_causalbald,
    gen_hahn,
    gen_ihdp_outcomes,
    load_covariates_csv,
    make_benchmark,
    make_splits,
    rng_stream,
)
from cate_al.errors import InputError


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestCausalbald:
    def test_ground_truth_formulas_per_row(self):
        ds = gen_causalbald(500, rng=0)
        x = ds.covariates[:, 0]
        np.testing.assert_allclose(ds.mu0, 1 + 2 * np.sin(2 * x), atol=1e-12)
        np.testing.assert_allclose(ds.mu1, 2 * x + 3 - 2 * np.sin(2 * x), atol=1e-12)
        np.testing.assert_allclose(ds.tau_true, 2 * x + 2 - 4 * np.sin(2 * x), atol=1e-12)
        np.testing.assert_allclose(ds.propensity_true, sigmoid(2 * x + 0.5), atol=1e-12)

    def test_contrast_and_assignment_at_origin(self):
        assert 2 * 0 + 2 - 4 * np.sin(0) == 2.0
        assert sigmoid(0.5) == pytest.approx(0.62246, abs=5e-6)

    def test_mean_contrast_over_many_draws(self):
        ds = gen_causalbald(100_000, rng=1)
        assert abs(ds.tau_true.mean() - 2.0) < 0.05

    def test_treated_fraction_matches_integration_oracle(self):
        expected, _ = quad(lambda x: sigmoid(2 * x + 0.5) * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi), -10, 10)
        ds = gen_causalbald(100_000, rng=2)
        assert abs(ds.treatments.mean() - expected) < 0.01

    def test_shift_variant_draws_narrow_uniform_covariates(self):
        ds = gen_causalbald(5_000, shift=True, rng=3)
        assert ds.covariates.min() >= 0.2 and ds.covariates.max() <= 0.5

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            gen_causalbald(0, rng=0)


class TestHahn:
    def test_contrast_formula_per_row(self):
        ds = gen_hahn(2_000, rng=4)
        x2, x4 = ds.covariates[:, 1], ds.covariates[:, 3]
        np.testing.assert_allclose(ds.tau_true, 1 + 2 * x2 * x4, atol=1e-12)
        assert 1 + 2 * 1.0 * 1.0 == 3.0
        assert 1 + 2 * 1.0 * 0.0 == 1.0

    def test_nonlinear_prognostic_formula(self):
        ds = gen_hahn(2_000, prognostic="nonlinear", rng=5)
        g = np.select([ds.covariates[:, 4] == k for k in (1, 2, 3)], [2.0, -1.0, -4.0])
        np.testing.assert_allclose(ds.mu0, -6 + g + 6 * np.abs(ds.covariates[:, 2] - 1), atol=1e-12)
        # spot value: x3 = 1 kills the absolute term, level 1 contributes +2
        assert -6 + 2 + 6 * abs(1.0 - 1.0) == -4.0

    def test_linear_prognostic_formula(self):
        ds = gen_hahn(2_000, prognostic="linear", rng=6)
        g = np.select([ds.covariates[:, 4] == k for k in (1, 2, 3)], [2.0, -1.0, -4.0])
        np.testing.assert_allclose(ds.mu0, 1 + g + ds.covariates[:, 0] * ds.covariates[:, 2], atol=1e-12)

    def test_assignment_probabilities_clamped(self):
        ds = gen_hahn(20_000, rng=7)
        assert ds.propensity_true.min() >= 0.01 and ds.propensity_true.max() <= 0.99

    def test_realized_signal_to_noise_ratio(self):
        ds = gen_hahn(100_000, rng=8)
        signal = ds.mu0 + ds.treatments * ds.tau_true
        noise = ds.outcomes - signal
        ratio = np.std(signal, ddof=1) / np.std(noise, ddof=1)
        assert abs(ratio - 3.0) < 0.05

    def test_shift_variant_continuous_covariates_only(self):
        ds = gen_hahn(5_000, shift=True, rng=9)
        cont = ds.covariates[:, :3]
        assert cont.min() >= 0.2 and cont.max() <= 0.5
        assert set(np.unique(ds.covariates[:, 3])) <= {0.0, 1.0}

    def test_requires_two_rows(self):
        with pytest.raises(InputError):
            gen_hahn(1, rng=0)


def ihdp_covariates(rng, n=80):
    x = rng.normal(size=(n, 25))
    x[:, 6:] = (rng.uniform(size=(n, 19)) < 0.4).astype(float)
    t = (rng.uniform(size=n) < 0.3).astype(int)
    t[0] = 1
    return x, t


class TestIhdp:
    def test_zero_coefficients_collapse_the_surfaces(self, rng):
        x, t = ihdp_covariates(rng)
        ds = gen_ihdp_outcomes(x, t, rng=0, beta=np.zeros(25))
        np.testing.assert_allclose(ds.mu0, 1.0, atol=1e-12)
        # the treated-group constraint pins mu1 at a constant offset
        np.testing.assert_allclose(ds.mu1, ds.mu1[0], atol=1e-12)
        assert ds.mu1[t == 1].mean() - ds.mu0[t == 1].mean() == pytest.approx(4.0, abs=1e-12)

    def test_treated_group_effect_pinned_to_four(self, rng):
        x, t = ihdp_covariates(rng, n=200)
        ds = gen_ihdp_outcomes(x, t, rng=1)
        att = ds.tau_true[t == 1].mean()
        assert att == pytest.approx(4.0, abs=1e-9)

    def test_shift_contrast_recomputed_per_row(self, rng):
        x, t = ihdp_covariates(rng)
        ds = gen_ihdp_outcomes(x, t, shift=True, rng=2)
        np.testing.assert_allclose(ds.tau_true, 3.0 * x[:, 0] * x[:, 1], atol=1e-12)

    def test_column_count_enforced(self, rng):
        with pytest.raises(InputError):
            gen_ihdp_outcomes(rng.normal(size=(10, 24)), np.zeros(10, dtype=int), rng=0)

    def test_needs_a_treated_row_for_the_constraint(self, rng):
        x, _ = ihdp_covariates(rng)
        with pytest.raises(InputError):
            gen_ihdp_outcomes(x, np.zeros(len(x), dtype=int), rng=0)


class TestActg:
    def make(self, rng, n=120):
        x = rng.normal(size=(n, 12))
        for name in ("hemo", "homo", "drugs", "oprior", "z30", "race", "gender", "str2", "karnof_hi"):
            x[:, ACTG_COLUMNS.index(name)] = (rng.uniform(size=n) < 0.5).astype(float)
        t = (rng.uniform(size=n) < 0.35).astype(int)
        return x, t

    def test_zero_row_values(self):
        x = np.zeros((2, 12))
        x[1, 0] = 1.0  # keep the prognostic range positive
        ds = gen_actg_outcomes(x, [0, 1], rng=0, noise_scale=0.0)
        assert ds.mu0[0] == pytest.approx(6.0)
        assert ds.tau_true[0] == pytest.approx(1.0)

    def test_contrast_is_surface_difference(self, rng):
        x, t = self.make(rng)
        ds = gen_actg_outcomes(x, t, rng=1)
        np.testing.assert_allclose(ds.tau_true, ds.mu1 - ds.mu0, atol=1e-12)

    def test_noise_scale_is_an_eighth_of_the_prognostic_range(self, rng):
        x, t = self.make(rng)
        ds = gen_actg_outcomes(x, t, rng=2)
        assert ds.noise_sd == pytest.approx((ds.mu0.max() - ds.mu0.min()) / 8.0)
        assert ds.noise_sd > 0

    def test_column_count_enforced(self, rng):
        with pytest.raises(InputError):
            gen_actg_outcomes(rng.normal(size=(5, 11)), np.zeros(5, dtype=int), rng=0)


class TestConsistency:
    def test_zeroed_noise_reproduces_the_factual_surface(self, rng):
        cb = gen_causalbald(300, rng=10, noise_scale=0.0)
        np.testing.assert_array_equal(cb.outcomes, np.where(cb.treatments == 1, cb.mu1, cb.mu0))
        hh = gen_hahn(300, rng=11, noise_scale=0.0)
        np.testing.assert_array_equal(hh.outcomes, np.where(hh.treatments == 1, hh.mu1, hh.mu0))
        x, t = ihdp_covariates(rng)
        ih = gen_ihdp_outcomes(x, t, rng=12, noise_scale=0.0)
        np.testing.assert_array_equal(ih.outcomes, np.where(t == 1, ih.mu1, ih.mu0))
        xa, ta = TestActg().make(rng)
        ac = gen_actg_outcomes(xa, ta, rng=13, noise_scale=0.0)
        np.testing.assert_array_equal(ac.outcomes, np.where(ta == 1, ac.mu1, ac.mu0))

    def test_generators_deterministic_in_seed(self):
        a = gen_hahn(200, rng=rng_stream(5, "hahn"))
        b = gen_hahn(200, rng=rng_stream(5, "hahn"))
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_dataset_invariants_enforced(self):
        with pytest.raises(InputError):
            Dataset(covariates=np.zeros((2, 1)), treatments=[0, 2], outcomes=[0.0, 1.0],
                    mu0=[0.0, 0.0], mu1=[1.0, 1.0], tau_true=[1.0, 1.0])
        with pytest.raises(InputError):
            Dataset(covariates=np.zeros((2, 1)), treatments=[0, 1], outcomes=[0.0, 1.0],
                    mu0=[0.0, 0.0], mu1=[1.0, 1.0], tau_true=[1.0, 2.0])


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def ihdp_csv(path, rng, n=40):
    header = ["t", *IHDP_CONTINUOUS, *IHDP_BINARY]
    rows = []
    for i in range(n):
        t = 1 if i < n // 3 else 0
        cont = rng.normal(size=6)
        binary = (rng.uniform(size=19) < 0.4).astype(int)
        rows.append([t, *np.round(cont, 6), *binary])
    write_csv(path, header, rows)
    return path


def actg_csv(path, rng, n=30):
    header = ["t", *ACTG_COLUMNS]
    binaries = ("hemo", "homo", "drugs", "oprior", "z30", "race", "gender", "str2", "karnof_hi")
    rows = []
    for i in range(n):
        row = [i % 2, *np.round(rng.normal(size=12), 5)]
        for name in binaries:
            row[1 + ACTG_COLUMNS.index(name)] = int(rng.uniform() < 0.5)
        rows.append(row)
    write_csv(path, header, rows)
    return path


class TestCsvLoader:
    def test_fixture_roundtrip_and_standardization(self, tmp_path, rng):
        path = ihdp_csv(tmp_path / "ihdp.csv", rng)
        covs, t = load_covariates_csv(path, "ihdp")
        assert covs.shape == (40, 25)
        assert set(np.unique(t)) <= {0, 1}
        for j in range(6):
            assert abs(covs[:, j].mean()) < 1e-10
            assert covs[:, j].std() == pytest.approx(1.0, abs=1e-10)
        # binary columns pass through untouched
        assert set(np.unique(covs[:, 6:])) <= {0.0, 1.0}

    def test_missing_column_named(self, tmp_path):
        write_csv(tmp_path / "bad.csv", ["t", "age"], [[0, 1.0]])
        with pytest.raises(InputError, match="missing columns"):
            load_covariates_csv(tmp_path / "bad.csv", "actg")

    def test_eleven_column_fixture_rejected(self, tmp_path, rng):
        header = ["t", *ACTG_COLUMNS[:-1]]  # drop karnof_hi
        rows = [[0, *np.arange(11)] for _ in range(3)]
        write_csv(tmp_path / "actg.csv", header, rows)
        with pytest.raises(InputError, match="karnof_hi"):
            load_covariates_csv(tmp_path / "actg.csv", "actg")

    def test_non_numeric_cell_diagnosed_with_row_and_column(self, tmp_path):
        header = ["t", *ACTG_COLUMNS]
        good = [0, *np.linspace(0, 1, 12)]
        bad = [0, *np.linspace(0, 1, 12)]
        bad[2] = "heavy"
        write_csv(tmp_path / "actg.csv", header, [good, bad, good])
        with pytest.raises(InputError, match=r"row 3.*wtkg"):
            load_covariates_csv(tmp_path / "actg.csv", "actg")

    def test_bad_treatment_value_diagnosed(self, tmp_path):
        header = ["t", *ACTG_COLUMNS]
        rows = [[0, *np.linspace(0, 1, 12)], [2, *np.linspace(0, 1, 12)]]
        write_csv(tmp_path / "actg.csv", header, rows)
        with pytest.raises(InputError, match="row 3"):
            load_covariates_csv(tmp_path / "actg.csv", "actg")

    def test_repeated_column_rejected(self, tmp_path, rng):
        path = ihdp_csv(tmp_path / "ihdp.csv", rng)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        write_csv(path, header + ["bw"], [row + [row[header.index("bw")]] for row in rows])
        with pytest.raises(InputError, match="repeated columns \\['bw'\\]"):
            load_covariates_csv(path, "ihdp")

    def test_unknown_column_rejected(self, tmp_path):
        header = ["t", "extra", *ACTG_COLUMNS]
        rows = [[0, 1.0, *np.linspace(0, 1, 12)]]
        write_csv(tmp_path / "actg.csv", header, rows)
        with pytest.raises(InputError, match="extra"):
            load_covariates_csv(tmp_path / "actg.csv", "actg")


class TestSplits:
    def test_exact_partition_without_overlap(self):
        ds = gen_causalbald(4_200, rng=20)
        pool, val, test = make_splits(ds, SplitSpec(2_000, 200, 2_000), rng=0)
        assert (pool.n, val.n, test.n) == (2_000, 200, 2_000)

    def test_same_seed_gives_identical_partitions(self):
        ds = gen_causalbald(100, rng=21)
        a = make_splits(ds, SplitSpec(50, 20, 30), rng=np.random.default_rng(3))
        b = make_splits(ds, SplitSpec(50, 20, 30), rng=np.random.default_rng(3))
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.covariates, db.covariates)

    def test_partitions_disjoint_subsets_of_source(self):
        ds = gen_causalbald(120, rng=22)
        key = ds.covariates[:, 0]
        pool, val, test = make_splits(ds, SplitSpec(50, 20, 30), rng=1)
        taken = np.concatenate([pool.covariates[:, 0], val.covariates[:, 0], test.covariates[:, 0]])
        assert len(np.unique(taken)) == 100
        assert set(taken) <= set(key)

    def test_oversized_request_rejected(self):
        ds = gen_causalbald(10, rng=23)
        with pytest.raises(InputError):
            make_splits(ds, SplitSpec(8, 2, 5), rng=0)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            SplitSpec(0, 10, 10)


class TestBenchmarks:
    def test_standard_synthetic_benchmark_shapes(self):
        bench = make_benchmark("causalbald", shift=False, spec=SplitSpec(100, 20, 50), seed=0)
        assert (bench.pool.n, bench.validation.n, bench.test.n) == (100, 20, 50)
        assert bench.variant == "standard"

    def test_shift_benchmark_regenerates_test_from_shifted_law(self):
        bench = make_benchmark("hahn_linear", shift=True, spec=SplitSpec(80, 10, 60), seed=1)
        cont = bench.test.covariates[:, :3]
        assert cont.min() >= 0.2 and cont.max() <= 0.5
        assert bench.pool.covariates[:, :3].std() > 0.5  # pool keeps the wide law

    def test_ihdp_benchmark_from_fixture(self, tmp_path, rng):
        path = ihdp_csv(tmp_path / "ihdp.csv", rng, n=60)
        bench = make_benchmark("ihdp", shift=False, spec=SplitSpec(40, 0, 20), seed=2, covariates_csv=path)
        assert bench.pool.n == 40 and bench.test.n == 20
        att = np.concatenate([bench.pool.tau_true[bench.pool.treatments == 1],
                              bench.test.tau_true[bench.test.treatments == 1]])

    def test_ihdp_shift_installs_new_contrast_on_test(self, tmp_path, rng):
        path = ihdp_csv(tmp_path / "ihdp.csv", rng, n=60)
        bench = make_benchmark("ihdp", shift=True, spec=SplitSpec(30, 0, 20), seed=3, covariates_csv=path)
        x = bench.test.covariates
        np.testing.assert_allclose(bench.test.tau_true, 3.0 * x[:, 0] * x[:, 1], atol=1e-12)
        assert x[:, 0].min() >= 0.0 and x[:, 0].max() <= 0.5

    def test_actg_has_no_shift_variant(self, tmp_path, rng):
        path = actg_csv(tmp_path / "actg.csv", rng)
        with pytest.raises(InputError):
            make_benchmark("actg", shift=True, spec=SplitSpec(20, 0, 10), seed=0, covariates_csv=path)

    def test_partitions_are_pinned(self, tmp_path):
        # sha256 over every partition array of every dataset and variant,
        # seeds 0-3, with and without a validation partition: a change that
        # moves any partition value, by a bit or a row, fails here
        rng = np.random.default_rng(2025)
        csvs = {"ihdp": ihdp_csv(tmp_path / "ihdp.csv", rng, n=300),
                "actg": actg_csv(tmp_path / "actg.csv", rng, n=300)}
        digest = hashlib.sha256()
        for name in DATASET_NAMES:
            for shift in (False, True):
                for seed in range(4):
                    spec = SplitSpec(150, 20 * (seed % 2), 80)
                    if name == "actg" and shift:
                        with pytest.raises(InputError, match="no shift variant"):
                            make_benchmark(name, shift, spec, seed=seed, covariates_csv=csvs[name])
                        continue
                    bench = make_benchmark(name, shift, spec, seed=seed, covariates_csv=csvs.get(name))
                    digest.update(f"{bench.name}|{bench.variant}|{seed}".encode())
                    for part in (bench.pool, bench.validation, bench.test):
                        digest.update(dataset_bytes(part))
        assert digest.hexdigest() == PARTITION_DIGEST


PARTITION_DIGEST = "34904519cbf2ad0e7b06aa5a59e147a8e94037776da467a3ee95638c5ddf96d4"


def dataset_bytes(ds):
    if ds is None:
        return b"none"
    fields = [ds.covariates, ds.treatments, ds.outcomes, ds.mu0, ds.mu1, ds.tau_true, ds.propensity_true]
    parts = [f"{ds.name}|{ds.noise_sd!r}|{ds.covariates.shape}".encode()]
    parts += [b"none" if v is None else np.ascontiguousarray(v, dtype=float).tobytes() for v in fields]
    return b"|".join(parts)

"""Benchmark data-generating processes with ground-truth effects attached.

Four families: a one-dimensional sinusoidal design with logistic treatment
assignment, a five-covariate design with a scaled-propensity assignment and a
fixed signal-to-noise ratio, and two semi-synthetic outcome simulators that
run on user-supplied covariate files (infant-health and HIV-trial schemas).
Standard variants draw covariates from the sampling law; shift variants draw
the evaluation partition from a narrow uniform law instead.

Every generator is a deterministic function of (n, flags, rng); ground-truth
potential-outcome means, the true contrast, and (where defined) the true
assignment probability ride along on the returned :class:`Dataset`.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import InputError, as_arms, as_labeled

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass
class Dataset:
    """Covariates, assignments, factual outcomes, and ground truth per row."""

    covariates: np.ndarray
    treatments: np.ndarray
    outcomes: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    tau_true: np.ndarray
    propensity_true: np.ndarray | None = None
    noise_sd: float | None = None
    name: str = ""

    def __post_init__(self):
        self.covariates, self.treatments, self.outcomes = as_labeled(self.covariates, self.treatments, self.outcomes)
        n = self.covariates.shape[0]
        for attr in ("mu0", "mu1", "tau_true"):
            v = np.asarray(getattr(self, attr)).reshape(-1).astype(float)
            if v.size != n:
                raise InputError(f"{attr} has {v.size} rows, covariates have {n}")
            if not np.all(np.isfinite(v)):
                raise InputError(f"{attr} must be finite")
            setattr(self, attr, v)
        if not np.allclose(self.tau_true, self.mu1 - self.mu0, atol=1e-10, rtol=0):
            raise InputError("tau_true must equal mu1 - mu0 elementwise")
        if self.propensity_true is not None:
            p = np.asarray(self.propensity_true, dtype=float).reshape(-1)
            if p.size != n:
                raise InputError("propensity_true length mismatch")
            if not np.all((p >= 0) & (p <= 1)):  # NaN too
                raise InputError("propensity_true must lie in [0, 1]")
            self.propensity_true = p

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=int)
        return Dataset(
            covariates=self.covariates[idx],
            treatments=self.treatments[idx],
            outcomes=self.outcomes[idx],
            mu0=self.mu0[idx],
            mu1=self.mu1[idx],
            tau_true=self.tau_true[idx],
            propensity_true=None if self.propensity_true is None else self.propensity_true[idx],
            noise_sd=self.noise_sd,
            name=self.name,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Sizes of the pool / validation / test partition."""

    pool_size: int
    val_size: int
    test_size: int
    seed: int = 0

    def __post_init__(self):
        if self.pool_size <= 0 or self.test_size <= 0 or self.val_size < 0:
            raise InputError("pool and test sizes must be > 0, validation size >= 0")


def rng_stream(seed: int, *keys) -> np.random.Generator:
    """Independent generator derived by hashing (seed, keys)."""
    payload = "|".join([str(seed), *map(str, keys)]).encode()
    digest = hashlib.sha256(payload).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest[:16], "little")))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


# -- sinusoidal one-dimensional design ----------------------------------------


def gen_causalbald(n: int, shift: bool = False, rng=None, noise_scale: float = 1.0) -> Dataset:
    """One covariate; assignment sigmoid(2x + 0.5); unit outcome noise.

    mu0 = 1 + 2 sin(2x), mu1 = 2x + 3 - 2 sin(2x), so the true contrast is
    2x + 2 - 4 sin(2x). Shift draws covariates from U(0.2, 0.5).
    """
    if n < 1:
        raise InputError("n must be >= 1")
    rng = np.random.default_rng(rng)
    x = rng.uniform(0.2, 0.5, size=n) if shift else rng.standard_normal(n)
    pi = _sigmoid(2.0 * x + 0.5)
    t = (rng.uniform(size=n) < pi).astype(int)
    mu0 = 1.0 + 2.0 * np.sin(2.0 * x)
    mu1 = 2.0 * x + 3.0 - 2.0 * np.sin(2.0 * x)
    eps = rng.standard_normal(n) * noise_scale
    y = np.where(t == 1, mu1, mu0) + eps
    return Dataset(
        covariates=x[:, None], treatments=t, outcomes=y, mu0=mu0, mu1=mu1,
        tau_true=mu1 - mu0, propensity_true=pi, noise_sd=1.0,
        name="causalbald_shift" if shift else "causalbald",
    )


# -- five-covariate design with prognostic-scaled assignment -------------------

_G_LEVELS = {1: 2.0, 2: -1.0, 3: -4.0}


def gen_hahn(n: int, prognostic: str = "nonlinear", shift: bool = False, rng=None, noise_scale: float = 1.0) -> Dataset:
    """Five covariates (three continuous, one binary, one three-level).

    Contrast 1 + 2 x2 x4. Nonlinear prognostic -6 + g(x5) + 6|x3 - 1|;
    linear prognostic 1 + g(x5) + x1 x3. Assignment uses the Gaussian pdf of
    the rescaled prognostic score minus 0.5 x1 plus U(0.05, 0.15) noise,
    clamped into [0.01, 0.99]. Outcome noise is scaled so the realized
    signal-to-noise ratio is 3.
    """
    if n < 2:
        raise InputError("n must be >= 2 (batch statistics need two rows)")
    if prognostic not in ("linear", "nonlinear"):
        raise InputError(f"prognostic must be 'linear' or 'nonlinear', got {prognostic!r}")
    rng = np.random.default_rng(rng)
    if shift:
        xc = rng.uniform(0.2, 0.5, size=(n, 3))
    else:
        xc = rng.standard_normal((n, 3))
    x4 = (rng.uniform(size=n) < 0.5).astype(float)
    x5 = rng.integers(1, 4, size=n).astype(float)
    x = np.column_stack([xc, x4, x5])

    g = np.vectorize(_G_LEVELS.get)(x5.astype(int)).astype(float)
    if prognostic == "nonlinear":
        mu = -6.0 + g + 6.0 * np.abs(x[:, 2] - 1.0)
    else:
        mu = 1.0 + g + x[:, 0] * x[:, 2]
    tau = 1.0 + 2.0 * x[:, 1] * x4

    sigma_mu = float(np.std(mu, ddof=1))
    mu_tilde = 3.0 * mu / sigma_mu if sigma_mu > 0 else np.zeros(n)
    xi = rng.uniform(0.05, 0.15, size=n)
    phi = np.exp(-0.5 * mu_tilde**2) / SQRT_2PI
    pi = np.clip(0.8 * phi - 0.5 * x[:, 0] + xi, 0.01, 0.99)
    t = (rng.uniform(size=n) < pi).astype(int)

    signal = mu + t * tau
    sigma_eps = float(np.std(signal, ddof=1)) / 3.0
    y = signal + sigma_eps * rng.standard_normal(n) * noise_scale
    return Dataset(
        covariates=x, treatments=t, outcomes=y, mu0=mu, mu1=mu + tau,
        tau_true=tau, propensity_true=pi, noise_sd=sigma_eps,
        name=f"hahn_{prognostic}" + ("_shift" if shift else ""),
    )


# -- infant-health outcome simulator -------------------------------------------

IHDP_N_COLUMNS = 25
IHDP_BETA_VALUES = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
IHDP_BETA_PROBS = np.array([0.6, 0.1, 0.1, 0.1, 0.1])


def sample_ihdp_beta(rng, zero_first_two: bool = False) -> np.ndarray:
    beta = np.random.default_rng(rng).choice(IHDP_BETA_VALUES, size=IHDP_N_COLUMNS, p=IHDP_BETA_PROBS)
    if zero_first_two:
        beta = beta.copy()
        beta[:2] = 0.0
    return beta


def gen_ihdp_outcomes(covariates, treatments, shift: bool = False, rng=None, beta=None, noise_scale: float = 1.0) -> Dataset:
    """Simulated outcomes on 25 supplied covariate columns.

    Standard: mu0 = exp((x + 0.5) beta), mu1 = (x + 0.5) beta - omega with
    omega fixing the average effect on the treated to 4. Shift: beta's first
    two entries are zero and mu1 = mu0 + 3 x_bw x_bhead, making the contrast
    3 x_bw x_bhead. Outcome noise is standard normal.
    """
    x, t = as_labeled(covariates, treatments)
    if x.shape[1] != IHDP_N_COLUMNS:
        raise InputError(f"expected {IHDP_N_COLUMNS} covariate columns, got {x.shape[1]}")
    rng = np.random.default_rng(rng)
    if beta is None:
        beta = sample_ihdp_beta(rng, zero_first_two=shift)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size != IHDP_N_COLUMNS:
        raise InputError(f"beta must have {IHDP_N_COLUMNS} entries")

    lin = (x + 0.5) @ beta
    mu0 = np.exp(lin)
    if shift:
        mu1 = mu0 + 3.0 * x[:, 0] * x[:, 1]
    else:
        if not np.any(t == 1):
            raise InputError("the treated-group effect constraint needs at least one treated row")
        omega = float(np.mean(lin[t == 1] - mu0[t == 1])) - 4.0
        mu1 = lin - omega
    eps = rng.standard_normal(t.size) * noise_scale
    y = np.where(t == 1, mu1, mu0) + eps
    return Dataset(
        covariates=x, treatments=t, outcomes=y, mu0=mu0, mu1=mu1,
        tau_true=mu1 - mu0, propensity_true=None, noise_sd=1.0,
        name="ihdp_shift" if shift else "ihdp",
    )


# -- HIV-trial outcome simulator ------------------------------------------------

ACTG_COLUMNS = (
    "age", "wtkg", "hemo", "homo", "drugs", "oprior",
    "z30", "preanti", "race", "gender", "str2", "karnof_hi",
)
ACTG_CONTINUOUS = ("age", "wtkg", "preanti")


def gen_actg_outcomes(covariates, treatments, shift: bool = False, rng=None, noise_scale: float = 1.0) -> Dataset:
    """Simulated outcomes on the 12-column HIV-trial covariate layout.

    mu = 6 + 0.3 wtkg^2 - sin(age)(gender + 1) + 0.6 hemo race - 0.2 z30;
    contrast 1 + 1.5 sin(wtkg)(karnof_hi + 1) + 2 age. Noise sd is one eighth
    of the prognostic range over the batch. There is no shift variant.
    """
    if shift:
        raise InputError("the actg benchmark has no shift variant")
    x, t = as_labeled(covariates, treatments)
    if x.shape[1] != len(ACTG_COLUMNS):
        raise InputError(f"expected {len(ACTG_COLUMNS)} covariate columns, got {x.shape[1]}")
    rng = np.random.default_rng(rng)
    col = {name: x[:, i] for i, name in enumerate(ACTG_COLUMNS)}
    mu = (
        6.0
        + 0.3 * col["wtkg"] ** 2
        - np.sin(col["age"]) * (col["gender"] + 1.0)
        + 0.6 * col["hemo"] * col["race"]
        - 0.2 * col["z30"]
    )
    tau = 1.0 + 1.5 * np.sin(col["wtkg"]) * (col["karnof_hi"] + 1.0) + 2.0 * col["age"]
    sigma_y = float(mu.max() - mu.min()) / 8.0
    y = np.where(t == 1, mu + tau, mu) + sigma_y * rng.standard_normal(t.size) * noise_scale
    return Dataset(
        covariates=x, treatments=t, outcomes=y, mu0=mu, mu1=mu + tau,
        tau_true=tau, propensity_true=None, noise_sd=sigma_y, name="actg",
    )


# -- covariate CSV loading -------------------------------------------------------

IHDP_CONTINUOUS = ("bw", "b.head", "preterm", "birth.o", "nnhealth", "momage")
IHDP_BINARY = (
    "sex", "twin", "b.marr", "mom.lths", "mom.hs", "mom.scoll", "cig", "first",
    "booze", "drugs", "work.dur", "prenatal", "ark", "ein", "har", "mia", "pen",
    "tex", "was",
)

CSV_SCHEMAS = {
    "ihdp": {
        "columns": IHDP_CONTINUOUS + IHDP_BINARY,
        "continuous": set(IHDP_CONTINUOUS),
    },
    "actg": {
        "columns": ACTG_COLUMNS,
        "continuous": set(ACTG_CONTINUOUS),
    },
}


def load_covariates_csv(path, schema: str):
    """Load a covariate file: header-validated, comma-delimited, UTF-8.

    Every cell must be a finite number. Continuous columns are standardized
    over the file; the treatment column ``t`` must hold 0/1 values. Returns
    (covariates in schema order, treatments).
    """
    if schema not in CSV_SCHEMAS:
        raise InputError(f"unknown covariate schema {schema!r}; expected one of {tuple(CSV_SCHEMAS)}")
    spec = CSV_SCHEMAS[schema]
    expected = set(spec["columns"]) | {"t"}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise InputError(f"{path}: repeated columns {repeated}")
        missing = sorted(expected - set(header))
        if missing:
            raise InputError(f"{path}: missing columns {missing}")
        unknown = sorted(set(header) - expected)
        if unknown:
            raise InputError(f"{path}: unexpected columns {unknown}")
        rows = []
        for r, rec in enumerate(reader, start=2):
            if len(rec) != len(header):
                raise InputError(f"{path}: row {r} has {len(rec)} cells, header has {len(header)}")
            bad = next((name for name, v in zip(header, rec) if not _is_finite_number(v)), None)
            if bad is not None:
                raise InputError(f"{path}: row {r}, column {bad!r} is not a finite number")
            rows.append([float(v) for v in rec])
    if not rows:
        raise InputError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    by_name = {name: table[:, i] for i, name in enumerate(header)}

    t = by_name["t"]
    bad_rows = np.flatnonzero((t != 0.0) & (t != 1.0))
    if bad_rows.size:
        raise InputError(f"{path}: row {bad_rows[0] + 2}, column 't' must be 0 or 1, got {t[bad_rows[0]]}")

    cols = []
    for name in spec["columns"]:
        v = by_name[name]
        if name in spec["continuous"]:
            sd = v.std()
            if sd == 0.0:
                raise InputError(f"{path}: continuous column {name!r} is constant and cannot be standardized")
            v = (v - v.mean()) / sd
        elif np.any((v != 0.0) & (v != 1.0)):
            bad = np.flatnonzero((v != 0.0) & (v != 1.0))[0]
            raise InputError(f"{path}: row {bad + 2}, column {name!r} must be binary 0/1")
        cols.append(v)
    return np.column_stack(cols), as_arms(t)


def _is_finite_number(v: str) -> bool:
    try:
        return math.isfinite(float(v))
    except ValueError:
        return False


# -- partitioning and benchmark assembly ------------------------------------------


def make_splits(dataset: Dataset, spec: SplitSpec, rng, shifted_test: Dataset | None = None):
    """Disjoint (pool, validation, test) partition of a dataset.

    A supplied shifted test dataset is the test partition instead of source
    rows.
    """
    rng = np.random.default_rng(rng)
    needed = spec.pool_size + spec.val_size + (0 if shifted_test is not None else spec.test_size)
    if needed > dataset.n:
        raise InputError(f"partition sizes need {needed} rows, dataset has {dataset.n}")
    perm = rng.permutation(dataset.n)
    pool_idx = np.sort(perm[: spec.pool_size])
    val_idx = np.sort(perm[spec.pool_size : spec.pool_size + spec.val_size])
    pool = dataset.subset(pool_idx)
    validation = dataset.subset(val_idx) if spec.val_size else None
    if shifted_test is not None:
        if shifted_test.n != spec.test_size:
            raise InputError(f"shifted test set has {shifted_test.n} rows, spec wants {spec.test_size}")
        test = shifted_test
    else:
        test_idx = np.sort(perm[spec.pool_size + spec.val_size : needed])
        test = dataset.subset(test_idx)
    return pool, validation, test


@dataclass
class Benchmark:
    """Assembled benchmark: named partitions plus provenance."""

    name: str
    variant: str
    pool: Dataset
    validation: Dataset | None
    test: Dataset


@dataclass(frozen=True)
class DatasetInfo:
    """Per-dataset facts: the generator, the default partition sizes and
    acquisition budget, whether outcomes are simulated on a covariate CSV
    file (the generator then takes (covariates, treatments) instead of n),
    and whether the dataset has a shift variant."""

    generator: Callable[..., Dataset]
    pool_size: int
    val_size: int
    test_size: int
    budget: int
    needs_covariates: bool = False
    shift_variant: bool = True


DATASETS = {
    "causalbald": DatasetInfo(gen_causalbald, 2000, 200, 2000, 850),
    "hahn_linear": DatasetInfo(partial(gen_hahn, prognostic="linear"), 2000, 200, 2000, 850),
    "hahn_nonlinear": DatasetInfo(partial(gen_hahn, prognostic="nonlinear"), 2000, 200, 2000, 850),
    "ihdp": DatasetInfo(gen_ihdp_outcomes, 523, 0, 224, 450, needs_covariates=True),
    "actg": DatasetInfo(gen_actg_outcomes, 569, 0, 244, 350, needs_covariates=True, shift_variant=False),
}
DATASET_NAMES = tuple(DATASETS)


def dataset_info(name: str) -> DatasetInfo:
    if name not in DATASETS:
        raise InputError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    return DATASETS[name]


def _dataset_covariates(name: str, covariates_csv):
    if covariates_csv is None:
        raise InputError(f"dataset {name!r} needs a covariate CSV file")
    return load_covariates_csv(covariates_csv, name)


def generate_dataset(name: str, n: int | None = None, shift: bool = False, rng=None, covariates_csv=None) -> Dataset:
    """One draw of the named dataset: n rows (default 2000) of a synthetic
    design, or simulated outcomes on every row of the covariate file, whose
    row count n cannot set."""
    info = dataset_info(name)
    if info.needs_covariates:
        if n is not None:
            raise InputError(f"dataset {name!r} takes every row of its covariate CSV file; n cannot be set")
        covs, t = _dataset_covariates(name, covariates_csv)
        return info.generator(covs, t, shift=shift, rng=rng)
    return info.generator(2000 if n is None else n, shift=shift, rng=rng)


def make_benchmark(name: str, shift: bool, spec: SplitSpec, seed: int = 0, covariates_csv=None) -> Benchmark:
    """Build pool / validation / test partitions for one benchmark run."""
    info = dataset_info(name)
    variant = "shift" if shift else "standard"
    split_rng = rng_stream(seed, name, variant, "split")

    if not info.needs_covariates:
        n_source = spec.pool_size + spec.val_size + (0 if shift else spec.test_size)
        source = info.generator(n_source, shift=False, rng=rng_stream(seed, name, variant, "source"))
        shifted_rng = rng_stream(seed, name, variant, "shifted")
        shifted = info.generator(spec.test_size, shift=True, rng=shifted_rng) if shift else None
        pool, validation, test = make_splits(source, spec, split_rng, shifted_test=shifted)
    else:
        covs, t = _dataset_covariates(name, covariates_csv)
        if name == "actg":
            full = gen_actg_outcomes(covs, t, shift=shift, rng=rng_stream(seed, name, "outcomes"))
        else:
            # infant-health benchmark: one coefficient draw shared by all partitions
            beta = sample_ihdp_beta(rng_stream(seed, name, variant, "beta"), zero_first_two=shift)
            full = gen_ihdp_outcomes(covs, t, shift=False, rng=rng_stream(seed, name, variant, "outcomes"), beta=beta)
        pool, validation, test = make_splits(full, spec, split_rng)
        if shift:
            # the shifted infant-health test partition (actg has no shift
            # variant): the test rows with bw and b.head redrawn from
            # U(0, 0.5), under the shift contrast
            shift_rng = rng_stream(seed, name, variant, "shift_test")
            test_cov = test.covariates.copy()
            test_cov[:, 0] = shift_rng.uniform(0.0, 0.5, size=test.n)
            test_cov[:, 1] = shift_rng.uniform(0.0, 0.5, size=test.n)
            test = gen_ihdp_outcomes(test_cov, test.treatments, shift=True, rng=shift_rng, beta=beta)
    return Benchmark(name=name, variant=variant, pool=pool, validation=validation, test=test)

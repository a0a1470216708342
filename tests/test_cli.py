import csv
import hashlib
import json
import os
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cate_al import active_loop, cli, dgp
from cate_al.acquisition import AcquisitionMethod
from cate_al.cli import (
    RESULTS_HEADER,
    SUMMARY_HEADER,
    cell_id,
    emit_summary,
    load_manifest_config,
    main,
    parse_config,
    run_cell,
    run_matrix,
    serialize_config,
)
from cate_al.dgp import rng_stream
from cate_al.errors import InputError, NumericalError

MINIMAL = """
[dataset]
name = causalbald
pool_size = 30
val_size = 5
test_size = 20

[loop]
n_init = 5
batch_size = 3
budget = 11

[run]
estimators = ensemble
methods = random, causal_epig_tau
seeds = 0, 1
out_dir = {out}
"""


def write_config(tmp_path, text=None, **kw):
    path = tmp_path / "exp.ini"
    out = kw.pop("out", tmp_path / "results")
    path.write_text((text or MINIMAL).format(out=out, **kw))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def one_seed_run(tmp_path):
    """Results of an uninterrupted two-cell run (random, causal_epig_tau)."""
    config = parse_config(write_config(tmp_path, MINIMAL.replace("seeds = 0, 1", "seeds = 0")))
    assert run_matrix(config) == 0
    return config, read_rows(os.path.join(config.out_dir, "results.csv"))


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return str(path)


def messy_results(path):
    """A deterministic results.csv with every case the summary must handle:
    two datasets/variants, several estimators and methods, ten seeds in some
    cells, failed runs (with and without rows, and a cell whose every run
    failed), a killed attempt followed by its rerun, exact-zero random values
    (one random step at 0 for every seed), a method seed with no random run,
    and shuffled cell blocks."""
    rng = np.random.default_rng(20251)
    cells = [("causalbald", "standard", 6, 10), ("hahn_linear", "shift", 4, 3)]
    blocks = []
    for dataset, variant, steps, n_seeds in cells:
        for est in ("cmgp", "ensemble"):
            for method in ("random", "causal_epig_tau", "mu_bald"):
                for seed in range(n_seeds):
                    if method == "random" and seed == 1 and dataset == "causalbald":
                        continue  # the method cells' seed 1 has no random run
                    failed = ((est, method, seed) in (("cmgp", "mu_bald", 2), ("ensemble", "random", 0))
                              or (dataset, est, method) == ("hahn_linear", "cmgp", "causal_epig_tau"))
                    if failed and dataset == "hahn_linear":
                        blocks.append([[dataset, variant, est, method, str(seed), "0", "0",
                                        "nan", "nan", "0", "failed"]])
                        continue
                    block = []
                    for step in range(steps):
                        pool, test = rng.uniform(0.05, 3.0, size=2)
                        if method == "random" and (
                                (dataset, seed, step) == ("causalbald", 2, 3)
                                or (dataset, est, step) == ("hahn_linear", "ensemble", 0)):
                            pool, test = 0.0, 0.0
                        block.append([dataset, variant, est, method, str(seed), str(step),
                                      str(10 + 7 * step), f"{pool:.12g}", f"{test:.12g}",
                                      f"{rng.uniform(0, 0.2):.6g}", "failed" if failed else "ok"])
                    blocks.append(block)
    rows = [r for i in rng.permutation(len(blocks)) for r in blocks[i]]
    killed = [["causalbald", "standard", "ensemble", "causal_epig_tau", "4", str(step), str(10 + 7 * step),
               "9.5", "9.5", "0.5", "ok"] for step in range(3)]
    return write_rows(path, [RESULTS_HEADER] + killed + rows)


def covariate_csv(path, schema, n=60, seed=0):
    """A covariate file in the named schema: standard-normal continuous
    columns, fair-coin binary columns and treatment."""
    spec = dgp.CSV_SCHEMAS[schema]
    rng = np.random.default_rng(seed)
    rows = [["t", *spec["columns"]]]
    for _ in range(n):
        rows.append([int(rng.integers(0, 2))] + [
            f"{rng.normal():.6f}" if c in spec["continuous"] else int(rng.integers(0, 2))
            for c in spec["columns"]
        ])
    return write_rows(path, rows)


# config text after "[dataset] name = causalbald", by the key it gets wrong
MALFORMED_NUMBERS = {
    "pool_size": "pool_size = 1e3\n",
    "budget": "\n[loop]\nbudget = lots\n",
    "temperature": "\n[loop]\ntemperature = warm\n",
    "seeds": "\n[run]\nseeds = x..3\n",
    "jobs": "\n[run]\njobs = 2.5\n",
    "sundin_samples": "\n[run]\nmethods = sundin\n\n[method:sundin]\nsundin_samples = many\n",
}

# settings that every cell would reject, and the rejecting check's message
REJECTED_SETTINGS = {
    "n_init_above_budget": ("\n[loop]\nn_init = 50\nbudget = 20\n", "budget must be >= the warm-start size"),
    "zero_batch": ("\n[loop]\nbatch_size = 0\n", "n_b must be >= 1"),
    "negative_temperature": ("\n[loop]\ntemperature = -0.5\n", "temperature must be >= 0"),
    "nan_temperature": ("\n[loop]\ntemperature = nan\n", "temperature must be >= 0"),
    "unknown_target_mode": ("\n[loop]\ntarget_mode = both\n", "target_mode must be one of"),
    "empty_pool": ("pool_size = 0\n", "pool and test sizes must be > 0"),
    "warm_start_above_pool": ("pool_size = 30\n\n[loop]\nn_init = 40\n", "warm-start size 40 exceeds pool size 30"),
}

# configs whose serialize_config text is pinned, so that a manifest.json
# written by an earlier version still resumes with --append
PINNED_CONFIGS = {
    "minimal": ("[dataset]\nname = causalbald\n",
                "34d2bbcd272f4f33c6899ef18ca97ef335114823ba769d74f0fa643a1fb58245"),
    "shift_with_method_sections": (
        "[dataset]\nname = hahn_nonlinear\nshift = yes\npool_size = 300\nval_size = 0\ntest_size = 150\n\n"
        "[loop]\nn_init = 12\nbatch_size = 7\nbudget = 40\ntemperature = 0.25\nrefit_hyperparams = off\n\n"
        "[run]\nestimators = nsgp, cmgp\nmethods = sundin, causal_epig_mu, random\nseeds = 2..4\n"
        "out_dir = shifted\njobs = 3\nmaster_seed = 17\n\n"
        "[method:sundin]\nsundin_samples = 37\n\n[method:causal_epig_mu]\ntarget_cap = 64\n",
        "28650eba8cbf748671550f15b64e6fbfa8368abf4e0718e4b50d52a5d1334828"),
    "covariates": (
        "[dataset]\nname = ihdp\ncovariates_csv = ihdp.csv\n\n"
        "[run]\nestimators = ensemble\nmethods = random, mu_bald\nseeds = 0, 3\n",
        "948ecbc8e06706da0612298a254a503d597903903b9e277f3c0fcd8e82117c17"),
}

# [run] entries and method sections that would run a cell twice or be
# dropped without a word, and what the rejection names
DROPPED_OR_REPEATED = {
    "misspelled_method_section": ("methods = sundin\n\n[method:sundim]\nsundin_samples = 7\n",
                                  "[method:sundim]", "did you mean [method:sundin]?"),
    "unlisted_method_section": ("methods = random\n\n[method:sundin]\nsundin_samples = 7\n",
                                "[method:sundin]", "no method listed in [run] methods"),
    "key_the_method_never_reads": ("methods = random\n\n[method:random]\nsundin_samples = 7\n",
                                   "[method:random]", "unknown key 'sundin_samples'"),
    "repeated_seed": ("seeds = 0, 0\n", "[run] seeds", "0 twice"),
    "repeated_method": ("methods = random, random\n", "[run] methods", "'random' twice"),
    "repeated_estimator": ("estimators = ensemble, ensemble\n", "[run] estimators", "'ensemble' twice"),
}


# texts configparser itself cannot read, each with what the error names
UNREADABLE_CONFIGS = {
    "repeated_section": ("[dataset]\nname = causalbald\n\n[dataset]\nshift = true\n",
                         "section 'dataset' already exists"),
    "repeated_key": ("[dataset]\nname = causalbald\nname = hahn_linear\n",
                     "option 'name' in section 'dataset' already exists"),
    "line_before_first_section": ("name = causalbald\n[dataset]\nname = causalbald\n",
                                  "no section headers"),
    "unclosed_section_header": ("[dataset\nname = causalbald\n", "no section headers"),
}


class RecordingPool:
    """A stand-in for ProcessPoolExecutor that records each pool's worker
    count and runs every submitted call at once, in the calling process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[dataset]\nname = causalbald\n")
        config = parse_config(path)
        assert config.n_init == 50
        assert config.batch_size == 20
        assert config.budget == 850
        assert config.temperature == 0.0
        assert config.seeds == tuple(range(10))
        assert config.target_mode == "pool"
        assert config.methods[0].name == "random"

    def test_shift_defaults_to_test_targets(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[dataset]\nname = causalbald\nshift = true\n")
        assert parse_config(path).target_mode == "test"

    def test_unknown_key_suggests_correction(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = causalbald\n\n[loop]\nbatchsize = 10\n")
        with pytest.raises(InputError, match="batch_size"):
            parse_config(path)

    def test_unknown_method_suggests_correction(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = causalbald\n\n[run]\nmethods = causal_epig_taus\n")
        with pytest.raises(InputError, match="causal_epig_tau"):
            parse_config(path)

    def test_unknown_dataset_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = simpsons\n")
        with pytest.raises(InputError):
            parse_config(path)

    def test_semi_synthetic_requires_covariates(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = ihdp\n")
        with pytest.raises(InputError, match="covariates_csv"):
            parse_config(path)

    def test_shift_rejected_for_dataset_without_shift_variant(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        covariates = covariate_csv(tmp_path / "covs.csv", "actg")
        path.write_text(f"[dataset]\nname = actg\nshift = true\ncovariates_csv = {covariates}\n\n"
                        f"[run]\nout_dir = {tmp_path / 'out'}\n")
        with pytest.raises(InputError, match="'actg' has no shift variant"):
            parse_config(path)
        assert main(["run", str(path)]) == 2
        assert "no shift variant" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(MALFORMED_NUMBERS))
    def test_malformed_number_exits_with_status_two(self, tmp_path, capsys, key):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = causalbald\n" + MALFORMED_NUMBERS[key])
        assert main(["run", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(REJECTED_SETTINGS))
    def test_settings_every_cell_rejects_fail_at_parse_time(self, tmp_path, capsys, case):
        text, message = REJECTED_SETTINGS[case]
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = causalbald\n" + text + f"\n[run]\nout_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(DROPPED_OR_REPEATED))
    def test_dropped_or_repeated_entries_exit_with_status_two(self, tmp_path, capsys, case):
        text, where, message = DROPPED_OR_REPEATED[case]
        path = tmp_path / "bad.ini"
        path.write_text(f"[dataset]\nname = causalbald\npool_size = 30\nval_size = 0\ntest_size = 20\n\n"
                        f"[loop]\nn_init = 5\nbatch_size = 3\nbudget = 8\n\n"
                        f"[run]\nout_dir = {tmp_path / 'out'}\n" + text)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert where in err and message in err
        assert not (tmp_path / "out").exists()

    def test_jobs_below_one_exit_with_status_two(self, tmp_path, capsys):
        # in the config or on the command line, a count below 1 would run the
        # cells in-process and be written into manifest.json
        path = tmp_path / "bad.ini"
        small = (f"[dataset]\nname = causalbald\npool_size = 30\nval_size = 0\ntest_size = 20\n\n"
                 f"[loop]\nn_init = 5\nbatch_size = 3\nbudget = 8\n\n"
                 f"[run]\nestimators = ensemble\nseeds = 0\nout_dir = {tmp_path / 'out'}\n")
        for text, flags in [(small + "jobs = -3\n", []), (small, ["--jobs", "0"])]:
            path.write_text(text)
            assert main(["run", str(path), *flags]) == 2
            assert "jobs must be >= 1" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(PINNED_CONFIGS))
    def test_serialized_config_bytes_are_pinned(self, tmp_path, monkeypatch, case):
        # the covariate file is read when a cell runs, not when the config is
        # parsed; it is written anyway, so the config is one that runs
        text, digest = PINNED_CONFIGS[case]
        monkeypatch.delenv("CATE_AL_OUT_ROOT", raising=False)
        monkeypatch.chdir(tmp_path)
        covariate_csv(tmp_path / "ihdp.csv", "ihdp")
        path = tmp_path / "exp.ini"
        path.write_text(text)
        serialized = serialize_config(parse_config(path))
        assert hashlib.sha256(serialized.encode()).hexdigest() == digest
        path.write_text(serialized)
        assert serialize_config(parse_config(path)) == serialized

    @pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
    def test_unreadable_config_exits_with_status_two(self, tmp_path, capsys, case):
        text, message = UNREADABLE_CONFIGS[case]
        path = tmp_path / "bad.ini"
        path.write_text(text + f"\n[run]\nout_dir = {tmp_path / 'out'}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config file") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_accepted(self, tmp_path):
        plain = write_config(tmp_path)
        marked = tmp_path / "bom.ini"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config(marked) == parse_config(plain)

    def test_percent_is_literal_in_values_and_out_root(self, tmp_path, monkeypatch):
        # a % is literal text: the run writes its manifest, which gives back
        # the config it ran
        monkeypatch.setenv("CATE_AL_OUT_ROOT", str(tmp_path / "r%oot"))
        path = tmp_path / "pct.ini"
        path.write_text(MINIMAL.replace("methods = random, causal_epig_tau", "methods = random")
                        .replace("seeds = 0, 1", "seeds = 0").format(out="res%ults%%"))
        config = parse_config(path)
        assert config.out_dir == str(tmp_path / "r%oot" / "res%ults%%")
        assert main(["run", str(path)]) == 0
        manifest = os.path.join(config.out_dir, "manifest.json")
        assert load_manifest_config(manifest) == config
        assert json.load(open(manifest))["cells"] == {cell_id("causalbald", "standard", "ensemble", "random", 0): "done"}

    def test_seed_range_syntax(self, tmp_path):
        path = tmp_path / "r.ini"
        path.write_text("[dataset]\nname = causalbald\n\n[run]\nseeds = 3..6\n")
        assert parse_config(path).seeds == (3, 4, 5, 6)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            parse_config(tmp_path / "nope.ini")

    def test_round_trip_is_identity(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        again = tmp_path / "again.ini"
        again.write_text(serialize_config(config))
        assert parse_config(again) == config

    def test_method_params_round_trip(self, tmp_path):
        path = tmp_path / "m.ini"
        path.write_text(
            "[dataset]\nname = causalbald\n\n[run]\nmethods = sundin\n\n"
            "[method:sundin]\nsundin_samples = 37\n"
        )
        config = parse_config(path)
        assert config.methods[0].sundin_samples == 37
        again = tmp_path / "again.ini"
        again.write_text(serialize_config(config))
        assert parse_config(again) == config

    def test_out_root_env_applies_to_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CATE_AL_OUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "e.ini"
        path.write_text("[dataset]\nname = causalbald\n\n[run]\nout_dir = exp1\n")
        assert parse_config(path).out_dir == str(tmp_path / "root" / "exp1")


class TestRunMatrix:
    def test_grid_execution_writes_all_cells(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        assert run_matrix(config) == 0
        rows = read_rows(os.path.join(config.out_dir, "results.csv"))
        assert tuple(rows[0]) == RESULTS_HEADER
        cells = {(r[2], r[3], r[4]) for r in rows[1:]}
        assert len(cells) == 4  # 1 estimator x 2 methods x 2 seeds
        manifest = json.load(open(os.path.join(config.out_dir, "manifest.json")))
        assert len(manifest["cells"]) == 4
        assert all(v == "done" for v in manifest["cells"].values())

    def test_rerun_without_append_refuses(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        run_matrix(config)
        with pytest.raises(InputError, match="--append"):
            run_matrix(config)

    def test_append_skips_completed_cells(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        run_matrix(config)
        before = read_rows(os.path.join(config.out_dir, "results.csv"))
        assert run_matrix(config, append=True) == 0
        after = read_rows(os.path.join(config.out_dir, "results.csv"))
        assert before == after  # idempotent resume adds nothing

    def test_append_refuses_a_changed_config(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL.replace("seeds = 0, 1", "seeds = 0")))
        run_matrix(config)
        manifest = open(os.path.join(config.out_dir, "manifest.json")).read()
        changed = replace(config, budget=14, methods=config.methods + (AcquisitionMethod("mu_bald"),))
        with pytest.raises(InputError, match=r"\(budget, methods differ\)"):
            run_matrix(changed, append=True)
        assert open(os.path.join(config.out_dir, "manifest.json")).read() == manifest
        # how many jobs run the cells is not part of what a manifest pins
        assert run_matrix(replace(config, jobs=2), append=True) == 0

    def test_scoring_failure_fails_only_its_cell(self, tmp_path, monkeypatch):
        calls = []

        def failing_score_pool(method, *args):
            if method.name == "causal_epig_tau":
                calls.append(1)
                if len(calls) == 2:
                    raise NumericalError("covariance exceeds the variance bound")
            return original(method, *args)

        original = active_loop.score_pool
        monkeypatch.setattr(active_loop, "score_pool", failing_score_pool)
        config = parse_config(write_config(tmp_path, MINIMAL.replace("seeds = 0, 1", "seeds = 0")))
        assert run_matrix(config) == 1
        rows = read_rows(os.path.join(config.out_dir, "results.csv"))[1:]
        assert [(r[3], r[5], r[10]) for r in rows] == [
            ("random", "0", "ok"), ("random", "1", "ok"), ("random", "2", "ok"),
            ("causal_epig_tau", "0", "failed"), ("causal_epig_tau", "1", "failed"),
        ]
        manifest = json.load(open(os.path.join(config.out_dir, "manifest.json")))
        failed = cell_id("causalbald", "standard", "ensemble", "causal_epig_tau", 0)
        assert manifest["failures"] == {
            failed: "round 2 scoring failed: covariance exceeds the variance bound"
        }

    def test_any_exception_fails_only_its_cell(self, tmp_path, monkeypatch):
        def raising_score_pool(method, *args):
            if method.name == "causal_epig_tau":
                raise np.linalg.LinAlgError("Singular matrix")
            return original(method, *args)

        original = active_loop.score_pool
        monkeypatch.setattr(active_loop, "score_pool", raising_score_pool)
        config = parse_config(write_config(tmp_path, MINIMAL.replace("seeds = 0, 1", "seeds = 0")))
        assert run_matrix(config) == 1
        rows = read_rows(os.path.join(config.out_dir, "results.csv"))[1:]
        assert [(r[3], r[5], r[10]) for r in rows] == [
            ("random", "0", "ok"), ("random", "1", "ok"), ("random", "2", "ok"),
            ("causal_epig_tau", "0", "failed"),
        ]
        manifest = json.load(open(os.path.join(config.out_dir, "manifest.json")))
        failed = cell_id("causalbald", "standard", "ensemble", "causal_epig_tau", 0)
        assert manifest["cells"][failed] == "failed"
        assert manifest["failures"] == {failed: "LinAlgError: Singular matrix"}

    def test_successful_retry_clears_the_failure_reason(self, tmp_path, monkeypatch):
        def raising_score_pool(method, *args):
            raise FloatingPointError("overflow")

        original = active_loop.score_pool
        monkeypatch.setattr(active_loop, "score_pool", raising_score_pool)
        config = parse_config(write_config(tmp_path, MINIMAL.replace("seeds = 0, 1", "seeds = 0")))
        assert run_matrix(config) == 1
        monkeypatch.setattr(active_loop, "score_pool", original)
        assert run_matrix(config, append=True) == 0
        manifest = json.load(open(os.path.join(config.out_dir, "manifest.json")))
        assert set(manifest["cells"].values()) == {"done"}
        assert manifest["failures"] == {}

    def test_parallel_rows_match_serial(self, tmp_path):
        serial = parse_config(write_config(tmp_path, out=tmp_path / "serial"))
        run_matrix(serial)
        parallel_path = write_config(tmp_path, out=tmp_path / "parallel")
        parallel = parse_config(parallel_path)
        parallel = type(parallel)(**{**parallel.__dict__, "jobs": 4, "out_dir": str(tmp_path / "parallel")})
        run_matrix(parallel)

        def rowset(p):
            rows = read_rows(os.path.join(p, "results.csv"))[1:]
            return sorted(tuple(r[:9]) for r in rows)  # identity + metric columns

        assert rowset(tmp_path / "serial") == rowset(tmp_path / "parallel")

    def test_a_worker_that_dies_fails_only_its_cell(self, tmp_path, monkeypatch):
        # the seed-1 cell's worker exits mid-matrix, taking the pool down;
        # each unfinished cell reruns alone, and the dying one dies again
        text = MINIMAL.replace("methods = random, causal_epig_tau", "methods = random").replace(
            "seeds = 0, 1", "seeds = 0, 1, 2, 3")
        serial = parse_config(write_config(tmp_path, text, out=tmp_path / "serial"))
        assert run_matrix(serial) == 0

        def dying_run_cell(config, estimator, method_name, seed):
            if seed == 1:
                os._exit(9)
            return original(config, estimator, method_name, seed)

        original = cli.run_cell
        monkeypatch.setattr(cli, "run_cell", dying_run_cell)
        parallel = replace(serial, jobs=2, out_dir=str(tmp_path / "parallel"))
        assert run_matrix(parallel) == 1

        dead = cell_id("causalbald", "standard", "ensemble", "random", 1)
        manifest = json.load(open(os.path.join(parallel.out_dir, "manifest.json")))
        assert manifest["failures"] == {dead: "worker died"}
        assert {cid: status for cid, status in manifest["cells"].items() if cid != dead} == {
            cell_id("causalbald", "standard", "ensemble", "random", seed): "done" for seed in (0, 2, 3)}
        assert manifest["cells"][dead] == "failed"

        def rows(config):  # identity, metric and status columns, sorted
            return sorted(r[:9] + r[10:] for r in read_rows(os.path.join(config.out_dir, "results.csv"))[1:])

        survived = [r for r in rows(parallel) if r[4] != "1"]
        assert survived == [r for r in rows(serial) if r[4] != "1"]
        assert [r for r in rows(parallel) if r[4] == "1"] == [
            ["causalbald", "standard", "ensemble", "random", "1", "0", "0", "nan", "nan", "failed"]]

    def test_pool_gets_no_more_workers_than_cells_left(self, tmp_path, monkeypatch):
        # jobs = 64 over 3 cells makes a 3-worker pool, a resume with no
        # cell left makes none, and the rows are those of an in-process run
        made = []
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: RecordingPool(made, max_workers))
        text = MINIMAL.replace("methods = random, causal_epig_tau", "methods = random").replace(
            "seeds = 0, 1", "seeds = 0, 1, 2")
        serial = parse_config(write_config(tmp_path, text, out=tmp_path / "serial"))
        wide = replace(serial, jobs=64, out_dir=str(tmp_path / "wide"))
        assert run_matrix(serial) == 0 and made == []
        assert run_matrix(wide) == 0 and made == [3]
        assert run_matrix(wide, append=True) == 0 and made == [3]

        def rows(config):  # identity and metric columns, sorted
            return sorted(r[:9] for r in read_rows(os.path.join(config.out_dir, "results.csv"))[1:])

        assert rows(wide) == rows(serial)

    def test_cell_rerun_is_bit_identical_on_formatted_values(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        run_matrix(config)
        reloaded = load_manifest_config(os.path.join(config.out_dir, "manifest.json"))
        record = run_cell(reloaded, "ensemble", "causal_epig_tau", 1)
        from cate_al.cli import _record_rows

        fresh = {tuple(r[:9]) for r in _record_rows(record)}
        old = {
            tuple(r[:9])
            for r in read_rows(os.path.join(config.out_dir, "results.csv"))[1:]
            if (r[2], r[3], r[4]) == ("ensemble", "causal_epig_tau", "1")
        }
        assert fresh == old


MESSY_SUMMARY_SHA256 = "1de652940cece73e5e4f49aba13080d50dfa005a85d919795ef69c0fe868feaa"


class TestSummaries:
    def test_empty_results_give_header_only(self, tmp_path):
        results = tmp_path / "results.csv"
        with open(results, "w", newline="") as fh:
            csv.writer(fh).writerow(RESULTS_HEADER)
        out = emit_summary(results)
        rows = read_rows(out)
        assert tuple(rows[0]) == SUMMARY_HEADER
        assert len(rows) == 1

    def test_known_fixture_matches_hand_aggregation(self, tmp_path):
        results = tmp_path / "results.csv"
        with open(results, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RESULTS_HEADER)
            w.writerow(["d", "standard", "e", "random", "0", "0", "10", "2", "2.2", "0.0", "ok"])
            w.writerow(["d", "standard", "e", "random", "1", "0", "10", "4", "4.2", "0.0", "ok"])
            w.writerow(["d", "standard", "e", "m", "0", "0", "10", "1", "1.2", "0.0", "ok"])
            w.writerow(["d", "standard", "e", "m", "1", "0", "10", "3", "3.2", "0.0", "ok"])
        out = emit_summary(results)
        rows = read_rows(out)
        by_key = {(r[3], r[6]): r for r in rows[1:]}
        pool = by_key[("m", "sqrt_pehe_pool")]
        assert float(pool[7]) == pytest.approx(2.0)
        assert float(pool[8]) == pytest.approx(np.sqrt(2.0))
        assert pool[9] == "2"
        # mean-curve improvement: (3 - 2) / 3
        impr = by_key[("m", "rel_impr_pool_meancurve")]
        assert float(impr[7]) == pytest.approx(1.0 / 3.0)
        # per-seed improvement: mean of (1/2, 1/4)
        per_seed = by_key[("m", "rel_impr_pool_perseed")]
        assert float(per_seed[7]) == pytest.approx(0.375)

    def test_summary_column_order_stable(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        run_matrix(config)
        out1 = emit_summary(os.path.join(config.out_dir, "results.csv"), str(tmp_path / "s1.csv"))
        out2 = emit_summary(os.path.join(config.out_dir, "results.csv"), str(tmp_path / "s2.csv"))
        assert read_rows(out1) == read_rows(out2)

    def test_resumed_cell_rows_give_the_uninterrupted_summary(self, tmp_path):
        # killed after a cell's rows were flushed but before the manifest was
        # written: the resumed run appends the same cell again
        config, rows = one_seed_run(tmp_path)
        first = [r for r in rows[1:] if r[3] == "random"]
        assert rows[1 : 1 + len(first)] == first
        resumed = write_rows(tmp_path / "resumed.csv", [rows[0]] + first + rows[1:])
        want = emit_summary(os.path.join(config.out_dir, "results.csv"), str(tmp_path / "want.csv"))
        got = emit_summary(resumed, str(tmp_path / "got.csv"))
        assert open(got, "rb").read() == open(want, "rb").read()

    @pytest.mark.parametrize("killed", ["inside a row", "before the header"])
    def test_append_after_a_kill_mid_write_gives_the_uninterrupted_summary(self, tmp_path, monkeypatch, killed):
        # the kill cut results.csv inside the second cell's first row, before
        # the manifest recorded that cell, or before the header was flushed,
        # before any manifest; --append cuts the fragment off (and writes the
        # header into an empty file) before it appends. The acquisition
        # clock reads 0, so the two runs' rows agree in their timings too
        monkeypatch.setattr(active_loop, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        config, _ = one_seed_run(tmp_path)
        results = os.path.join(config.out_dir, "results.csv")
        manifest_path = os.path.join(config.out_dir, "manifest.json")
        want = open(emit_summary(results, str(tmp_path / "want.csv")), "rb").read()
        if killed == "inside a row":
            text = open(results, "rb").read()
            second = text.index(b"causal_epig_tau")
            with open(results, "wb") as fh:
                fh.write(text[: second + 5])
            manifest = json.load(open(manifest_path))
            del manifest["cells"][cell_id("causalbald", "standard", "ensemble", "causal_epig_tau", 0)]
            json.dump(manifest, open(manifest_path, "w"))
        else:
            open(results, "wb").close()
            os.remove(manifest_path)
        assert run_matrix(config, append=True) == 0
        assert read_rows(results)[0] == list(RESULTS_HEADER)
        assert open(emit_summary(results, str(tmp_path / "got.csv")), "rb").read() == want

    def test_failed_attempt_then_successful_retry_counts_ok(self, tmp_path):
        config, rows = one_seed_run(tmp_path)
        failed = [r[:10] + ["failed"] for r in rows[1:3]]
        retried = write_rows(tmp_path / "retried.csv", [rows[0]] + failed + rows[1:])
        want = emit_summary(os.path.join(config.out_dir, "results.csv"), str(tmp_path / "want.csv"))
        got = emit_summary(retried, str(tmp_path / "got.csv"))
        assert "failed_runs" not in open(got).read()
        assert open(got, "rb").read() == open(want, "rb").read()

    def test_shuffled_cell_blocks_give_the_same_summary(self, tmp_path):
        config = parse_config(write_config(tmp_path))
        run_matrix(config)
        results = os.path.join(config.out_dir, "results.csv")
        header, *rows = read_rows(results)
        blocks: dict[tuple, list] = {}
        for r in rows:
            blocks.setdefault((r[2], r[3], r[4]), []).append(r)
        want = open(emit_summary(results, str(tmp_path / "want.csv")), "rb").read()
        rng = np.random.default_rng(0)
        for k in range(3):
            order = rng.permutation(len(blocks))
            shuffled = [r for i in order for r in list(blocks.values())[i]]
            path = write_rows(tmp_path / f"shuffled{k}.csv", [header] + shuffled)
            assert open(emit_summary(path, str(tmp_path / f"got{k}.csv")), "rb").read() == want

    def test_per_seed_improvement_edge_cases(self, tmp_path):
        def row(est, method, seed, pool, test, status="ok"):
            return ["d", "standard", est, method, str(seed), "0", "10", pool, test, "0", status]

        results = write_rows(tmp_path / "results.csv", [
            RESULTS_HEADER,
            row("e", "random", 0, "2", "4"),
            row("e", "random", 1, "0", "4"),           # random exactly 0: seed 1 skipped for pool
            row("e", "random", 3, "1", "1", "failed"),  # failed random run: seed 3 skipped
            *[row("e", "m", s, "1", "1") for s in range(4)],  # seed 2 has no random run
            *[row("z", "random", s, "0", "0") for s in range(2)],
            *[row("z", "m", s, "1", "1") for s in range(2)],
        ])
        summary = {(r[2], r[3], r[6]): r[7:] for r in read_rows(emit_summary(results))[1:]}
        assert summary[("e", "m", "rel_impr_pool_perseed")] == ["0.5", "", "1"]
        assert summary[("e", "m", "rel_impr_test_perseed")] == ["0.75", "", "2"]
        assert summary[("e", "m", "rel_impr_pool_meancurve")] == ["0", "", "4"]
        assert summary[("e", "random", "failed_runs")] == ["1", "", ""]
        # random mean curve at exactly 0: the mean-curve cells stay empty
        assert summary[("z", "m", "rel_impr_pool_meancurve")] == ["", "", "2"]
        assert summary[("z", "m", "rel_impr_test_meancurve")] == ["", "", "2"]
        assert summary[("z", "m", "rel_impr_pool_perseed")] == ["", "", "0"]

    def test_summary_bytes_are_pinned(self, tmp_path):
        # any change to a summary value's last bit, the line order or the
        # formatting changes this hash
        out = emit_summary(messy_results(tmp_path / "results.csv"))
        assert hashlib.sha256(open(out, "rb").read()).hexdigest() == MESSY_SUMMARY_SHA256

    def test_malformed_results_diagnosed_with_row(self, tmp_path):
        results = tmp_path / "results.csv"
        with open(results, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(RESULTS_HEADER)
            w.writerow(["d", "standard", "e", "m", "zero", "0", "10", "1", "1", "0", "ok"])
        with pytest.raises(InputError, match="row 2"):
            emit_summary(results)

    def test_a_row_cut_mid_status_exits_two(self, tmp_path, capsys):
        # a kill that cut the last row inside its status field
        config, rows = one_seed_run(tmp_path)
        cut = write_rows(tmp_path / "cut.csv", rows[:-1] + [rows[-1][:10] + ["fail"]])
        assert main(["summarize", cut]) == 2
        err = capsys.readouterr().err
        assert f"{cut}: row {len(rows)} is malformed: unknown status 'fail'" in err
        assert not (tmp_path / "summary.csv").exists()


class TestCliEntry:
    def test_run_and_summarize_commands(self, tmp_path, capsys):
        config_path = write_config(tmp_path, out=tmp_path / "cli_out")
        assert main(["run", str(config_path)]) == 0
        results = tmp_path / "cli_out" / "results.csv"
        assert results.exists()
        assert main(["summarize", str(results)]) == 0
        assert (tmp_path / "cli_out" / "summary.csv").exists()

    def test_out_flag_overrides_directory(self, tmp_path):
        config_path = write_config(tmp_path, out=tmp_path / "ignored")
        assert main(["run", str(config_path), "--out", str(tmp_path / "flagged")]) == 0
        assert (tmp_path / "flagged" / "results.csv").exists()

    def test_gen_data_writes_ground_truth_columns(self, tmp_path):
        out_csv = tmp_path / "dump.csv"
        assert main(["gen-data", "causalbald", str(out_csv), "--n", "50", "--seed", "3"]) == 0
        rows = read_rows(out_csv)
        assert rows[0] == ["x1", "t", "y", "mu0", "mu1", "tau", "pi"]
        assert len(rows) == 51
        x = np.array([float(r[0]) for r in rows[1:]])
        tau = np.array([float(r[5]) for r in rows[1:]])
        np.testing.assert_allclose(tau, 2 * x + 2 - 4 * np.sin(2 * x), atol=1e-9)

    @pytest.mark.parametrize("name", ["causalbald", "hahn_linear", "hahn_nonlinear", "ihdp", "actg"])
    def test_gen_data_writes_the_generator_draw(self, tmp_path, name):
        argv = ["gen-data", name, str(tmp_path / "dump.csv"), "--seed", "3"]
        rng = rng_stream(3, name, "dump")
        if name in dgp.CSV_SCHEMAS:
            covariates = covariate_csv(tmp_path / "covs.csv", name)
            argv += ["--covariates", covariates]
            gen = dgp.gen_ihdp_outcomes if name == "ihdp" else dgp.gen_actg_outcomes
            ds = gen(*dgp.load_covariates_csv(covariates, name), rng=rng)
        elif name == "causalbald":
            argv += ["--n", "40"]
            ds = dgp.gen_causalbald(40, rng=rng)
        else:
            argv += ["--n", "40"]
            ds = dgp.gen_hahn(40, prognostic=name.split("_")[1], rng=rng)
        assert main(argv) == 0
        got = np.array(read_rows(tmp_path / "dump.csv")[1:], dtype=float)
        d = ds.covariates.shape[1]
        np.testing.assert_array_equal(got[:, d], ds.treatments)
        want = np.column_stack([ds.covariates, ds.outcomes, ds.mu0, ds.mu1, ds.tau_true]
                               + ([] if ds.propensity_true is None else [ds.propensity_true]))
        np.testing.assert_allclose(np.delete(got, d, axis=1), want, rtol=1e-11, atol=0)

    def test_gen_data_rejects_actg_shift_and_missing_covariates(self, tmp_path, capsys):
        covariates = covariate_csv(tmp_path / "covs.csv", "actg")
        out = str(tmp_path / "dump.csv")
        assert main(["gen-data", "actg", out, "--shift", "--covariates", covariates]) == 2
        assert "no shift variant" in capsys.readouterr().err
        assert main(["gen-data", "ihdp", out]) == 2
        assert "covariate CSV" in capsys.readouterr().err

    def test_gen_data_n_applies_to_synthetic_designs_only(self, tmp_path, capsys):
        out = str(tmp_path / "dump.csv")
        assert main(["gen-data", "hahn_linear", out]) == 0
        assert len(read_rows(out)) == 2001
        for name in ("ihdp", "actg"):
            covariates = covariate_csv(tmp_path / f"{name}.csv", name)
            assert main(["gen-data", name, out, "--n", "40", "--covariates", covariates]) == 2
            assert repr(name) in capsys.readouterr().err

    def test_config_errors_exit_with_status_two(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[dataset]\nname = causalbald\n\n[loop]\nbatchsize = 1\n")
        assert main(["run", str(path)]) == 2
        assert "batch_size" in capsys.readouterr().err

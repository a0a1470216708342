"""Configuration-driven experiment runner.

``run`` executes every (estimator x method x seed) cell of a config against
one dataset variant, appending self-describing rows to results.csv as cells
finish and keeping a manifest that records enough to re-run any cell
bit-identically. ``summarize`` turns a results file into plot-ready long
tables. ``gen-data`` dumps a generated dataset for inspection.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import difflib
import io
import json
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .acquisition import AcquisitionMethod, METHOD_KEYS, METHOD_NAMES
from .active_loop import ESTIMATOR_NAMES, LoopConfig, run_active_learning
from .dgp import DATASET_NAMES, SplitSpec, dataset_info, generate_dataset, make_benchmark, rng_stream
from .errors import InputError
from .evaluation import RunRecord, StepEntry, summarize_runs

OUT_ROOT_ENV = "CATE_AL_OUT_ROOT"

RESULTS_HEADER = (
    "dataset", "variant", "estimator", "method", "seed", "step", "n_labeled",
    "sqrt_pehe_pool", "sqrt_pehe_test", "acq_seconds", "status",
)

SUMMARY_HEADER = (
    "dataset", "variant", "estimator", "method", "step", "n_labeled",
    "metric", "mean", "sd", "count",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run matrix for one dataset variant."""

    dataset: str
    shift: bool
    pool_size: int
    val_size: int
    test_size: int
    covariates_csv: str | None
    n_init: int
    batch_size: int
    budget: int
    temperature: float
    refit_hyperparams: bool
    target_mode: str
    estimators: tuple[str, ...]
    methods: tuple[AcquisitionMethod, ...]
    seeds: tuple[int, ...]
    out_dir: str
    jobs: int
    master_seed: int

    def __post_init__(self):
        # the settings every cell would reject fail here, by the cells' own checks
        self.split_spec()
        self.loop_config(self.estimators[0], self.methods[0], seed=0).check_pool_size(self.pool_size)
        if self.jobs < 1:
            raise InputError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def variant(self) -> str:
        return "shift" if self.shift else "standard"

    def cells(self) -> list[tuple[str, str, int]]:
        return [(e, m.name, s) for e in self.estimators for m in self.methods for s in self.seeds]

    def method_by_name(self, name: str) -> AcquisitionMethod:
        for m in self.methods:
            if m.name == name:
                return m
        raise InputError(f"method {name!r} is not part of this config")

    def split_spec(self) -> SplitSpec:
        return SplitSpec(pool_size=self.pool_size, val_size=self.val_size, test_size=self.test_size)

    def loop_config(self, estimator: str, method: AcquisitionMethod, seed: int,
                    warm_start_seed: int | None = None) -> LoopConfig:
        return LoopConfig(
            n_init=self.n_init, n_b=self.batch_size, n_budget=self.budget,
            temperature=self.temperature, refit_hyperparams=self.refit_hyperparams,
            estimator=estimator, method=method, target_mode=self.target_mode,
            seed=seed, warm_start_seed=warm_start_seed,
        )


def _did_you_mean(word: str, choices, form: str = "{!r}") -> str:
    hint = difflib.get_close_matches(word, list(choices), n=1)
    return f"; did you mean {form.format(hint[0])}?" if hint else ""


def _reject_unknown(section: str, keys, valid) -> None:
    for key in keys:
        if key not in valid:
            raise InputError(f"unknown key {key!r} in section [{section}]{_did_you_mean(key, valid)}")


def _reject_repeats(where: str, values) -> None:
    """A repeated estimator, method or seed would run its cells twice."""
    for v in values:
        if values.count(v) > 1:
            raise InputError(f"{where} lists {v!r} twice")


def _parse_bool(raw: str, where: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "yes", "1", "on"):
        return True
    if v in ("false", "no", "0", "off"):
        return False
    raise InputError(f"{where}: expected a boolean, got {raw!r}")


def _number_parser(kind: type, expected: str):
    def parse(raw: str, where: str):
        try:
            return kind(raw)
        except ValueError:
            raise InputError(f"{where}: expected {expected}, got {raw!r}") from None
    return parse


_parse_int, _parse_float = _number_parser(int, "an integer"), _number_parser(float, "a number")


def _parse_seeds(raw: str, where: str) -> tuple[int, ...]:
    lo, dots, hi = raw.partition("..")
    if dots:
        return tuple(range(_parse_int(lo, where), _parse_int(hi, where) + 1))
    return tuple(_parse_int(v, where) for v in raw.split(",") if v.strip())


def _parse_list(raw: str, where: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


def _parse_text(raw: str, where: str) -> str:
    return raw.strip()


def _parse_optional_text(raw: str, where: str) -> str | None:
    return raw.strip() or None


# The run config's keys, by section and in file order. Each has a parser of
# (raw text, "[section] key"), whose None takes the default, and a default: a
# value, or a function of the settings before it. Each key names its
# ExperimentConfig field, but [dataset] name is `dataset`.
_SETTINGS = {
    "dataset": {
        "name": (_parse_text, None),  # required
        "shift": (_parse_bool, False),
        "pool_size": (_parse_int, lambda s: dataset_info(s["name"]).pool_size),
        "val_size": (_parse_int, lambda s: dataset_info(s["name"]).val_size),
        "test_size": (_parse_int, lambda s: dataset_info(s["name"]).test_size),
        "covariates_csv": (_parse_optional_text, None),
    },
    "loop": {
        "n_init": (_parse_int, LoopConfig.n_init),
        "batch_size": (_parse_int, LoopConfig.n_b),
        "budget": (_parse_int, lambda s: dataset_info(s["name"]).budget),
        "temperature": (_parse_float, LoopConfig.temperature),
        "refit_hyperparams": (_parse_bool, LoopConfig.refit_hyperparams),
        "target_mode": (_parse_optional_text, lambda s: "test" if s["shift"] else "pool"),
    },
    "run": {
        "estimators": (_parse_list, ("cmgp",)),
        "methods": (_parse_list, ("random",)),
        "seeds": (_parse_seeds, tuple(range(10))),
        "out_dir": (_parse_text, "results"),
        "jobs": (_parse_int, 1),
        "master_seed": (_parse_int, 0),
    },
}


def _config_parser(text: str = "", source: str = "<config>") -> configparser.ConfigParser:
    """A parser of run-config text: every value is literal (a ``%`` is just
    a character), and text configparser cannot read is an input error."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        raise InputError(f"malformed config file: {' '.join(str(exc).split())}") from None
    return parser


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a sectioned key-value config file (UTF-8, with or
    without a byte-order mark)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        raise InputError(f"config file {path} does not exist or is unreadable") from None
    return _validated_config(_config_parser(text, str(path)))


def _validated_config(parser: configparser.ConfigParser) -> ExperimentConfig:
    for section in parser.sections():
        if section not in _SETTINGS and not section.startswith("method:"):
            raise InputError(f"unknown section [{section}]{_did_you_mean(section, _SETTINGS, '[{}]')}")
    given = {section: dict(parser.items(section)) if parser.has_section(section) else {} for section in _SETTINGS}
    for section, keys in _SETTINGS.items():
        _reject_unknown(section, given[section], keys)
    if "name" not in given["dataset"]:
        raise InputError("section [dataset] must set 'name'")

    settings = {}
    for section, keys in _SETTINGS.items():
        for key, (parse, default) in keys.items():
            raw = given[section].get(key)
            value = None if raw is None else parse(raw, f"[{section}] {key}")
            if value is None:
                value = default(settings) if callable(default) else default
            settings[key] = value

    name = settings["name"]
    info = dataset_info(name)
    if settings["shift"] and not info.shift_variant:
        raise InputError(f"dataset {name!r} has no shift variant")
    if info.needs_covariates and settings["covariates_csv"] is None:
        raise InputError(f"dataset {name!r} requires [dataset] covariates_csv")

    estimators, method_names = settings["estimators"], settings["methods"]
    for est in estimators:
        if est not in ESTIMATOR_NAMES:
            raise InputError(f"unknown estimator {est!r}{_did_you_mean(est, ESTIMATOR_NAMES)}")
    if not estimators or not method_names:
        raise InputError("estimators and methods must be non-empty")
    _reject_repeats("[run] estimators", estimators)
    _reject_repeats("[run] methods", method_names)

    methods = []
    for mname in method_names:
        if mname not in METHOD_NAMES:
            raise InputError(f"unknown method {mname!r}{_did_you_mean(mname, METHOD_NAMES)}")
        msec = f"method:{mname}"
        items = dict(parser.items(msec)) if parser.has_section(msec) else {}
        _reject_unknown(msec, items, METHOD_KEYS[mname])
        extra = {key: _parse_int(raw, f"[{msec}] {key}") for key, raw in items.items()}
        methods.append(AcquisitionMethod(mname, **extra))
    settings["methods"] = tuple(methods)
    method_sections = [f"method:{m}" for m in method_names]
    for section in parser.sections():
        if section.startswith("method:") and section not in method_sections:
            hint = _did_you_mean(section, method_sections, "[{}]")
            raise InputError(f"section [{section}] configures no method listed in [run] methods{hint}")

    if not settings["seeds"]:
        raise InputError("seeds must be non-empty")
    _reject_repeats("[run] seeds", settings["seeds"])
    root = os.environ.get(OUT_ROOT_ENV, "")
    if root and not os.path.isabs(settings["out_dir"]):
        settings["out_dir"] = os.path.join(root, settings["out_dir"])
    return ExperimentConfig(dataset=settings.pop("name"), **settings)


def serialize_config(config: ExperimentConfig) -> str:
    """Config text that parses back to an equal ExperimentConfig."""
    parser = _config_parser()
    for section, keys in _SETTINGS.items():
        parser[section] = {}
        for key in keys:
            value = getattr(config, "dataset" if key == "name" else key)
            if isinstance(value, tuple):  # a list, joined by ", "; methods by name
                value = ", ".join(v.name if isinstance(v, AcquisitionMethod) else str(v) for v in value)
            if value is not None:  # an absent covariates_csv
                parser[section][key] = str(value).lower() if isinstance(value, bool) else str(value)
    for m in config.methods:
        default = AcquisitionMethod(m.name)
        overrides = {k: str(getattr(m, k)) for k in METHOD_KEYS[m.name] if getattr(m, k) != getattr(default, k)}
        if overrides:
            parser[f"method:{m.name}"] = overrides
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# -- cell execution --------------------------------------------------------------


def cell_id(dataset: str, variant: str, estimator: str, method: str, seed: int) -> str:
    return f"{dataset}|{variant}|{estimator}|{method}|{seed}"


def _benchmark_for(config: ExperimentConfig, seed: int):
    return make_benchmark(
        config.dataset, config.shift, config.split_spec(),
        seed=config.master_seed * 1000003 + seed, covariates_csv=config.covariates_csv,
    )


def run_cell(config: ExperimentConfig, estimator: str, method_name: str, seed: int) -> RunRecord:
    """Execute one cell; RNG streams depend only on the cell identity."""
    method = config.method_by_name(method_name)
    bench = _benchmark_for(config, seed)
    data_key = (config.master_seed, config.dataset, config.variant, seed)
    warm_seed = int(rng_stream(0, *data_key, "warm").integers(2**31))
    loop_rng = rng_stream(0, *data_key, estimator, method_name, "loop")
    loop_config = config.loop_config(estimator, method, seed, warm_seed)
    record = run_active_learning(loop_config, bench.pool, bench.test, loop_rng)
    record.dataset = config.dataset
    record.variant = config.variant
    return record


def _record_rows(record: RunRecord) -> list[list[str]]:
    status = "failed" if record.failed else "ok"
    rows = []
    for e in record.entries:
        rows.append([
            record.dataset, record.variant, record.estimator, record.method,
            str(record.seed), str(e.step), str(e.n_labeled),
            f"{e.sqrt_pehe_pool:.12g}", f"{e.sqrt_pehe_test:.12g}",
            f"{e.acq_seconds:.6g}", status,
        ])
    if record.failed and not record.entries:
        rows.append([
            record.dataset, record.variant, record.estimator, record.method,
            str(record.seed), "0", "0", "nan", "nan", "0", status,
        ])
    return rows


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(path: str, config: ExperimentConfig, statuses: dict[str, str],
                    reasons: dict[str, str]) -> None:
    payload = {
        "version": __version__,
        "config": serialize_config(config),
        "cells": statuses,
        "failures": reasons,
    }
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True))


def load_manifest_config(manifest_path: str) -> ExperimentConfig:
    """Reconstruct the validated config embedded in a run manifest."""
    with open(manifest_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return _validated_config(_config_parser(payload["config"], manifest_path))


def _check_resumable(recorded: ExperimentConfig, config: ExperimentConfig) -> None:
    """A resumed run must have the manifest's config, apart from how many
    jobs run the cells and where they write."""
    differ = [
        f.name for f in fields(ExperimentConfig)
        if f.name not in ("jobs", "out_dir") and getattr(recorded, f.name) != getattr(config, f.name)
    ]
    if differ:
        raise InputError(
            f"{config.out_dir} was run with another config ({', '.join(differ)} differ); "
            "--append resumes only the config in its manifest.json"
        )


def _failed_cell(config: ExperimentConfig, estimator: str, method_name: str, seed: int, reason: str):
    """A cell's id and the record of its failure for ``reason``."""
    return cell_id(config.dataset, config.variant, estimator, method_name, seed), RunRecord(
        method=method_name, estimator=estimator, dataset=config.dataset, variant=config.variant,
        seed=seed, failed=True, failure_reason=reason)


def _cell_worker(args):
    """Run one cell; whatever it raises fails that cell, never the matrix."""
    config, estimator, method_name, seed = args
    try:
        record = run_cell(config, estimator, method_name, seed)
    except Exception as exc:
        traceback.print_exc()
        return _failed_cell(config, estimator, method_name, seed, f"{type(exc).__name__}: {exc}")
    return cell_id(config.dataset, config.variant, estimator, method_name, seed), record


def _cell_alone(config: ExperimentConfig, estimator: str, method_name: str, seed: int):
    """Run one cell in a fresh single-worker pool: a worker that dies there
    fails this cell only."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(_cell_worker, (config, estimator, method_name, seed))
        try:
            return future.result()
        except BrokenProcessPool:
            pass
    return _failed_cell(config, estimator, method_name, seed, "worker died")


def _cut_partial_row(path: str) -> int:
    """Cuts the file back to just after its last newline, so a row that a
    kill left half written is dropped before rows are appended; returns
    the size left. Only the last line can lack its newline."""
    with open(path, "rb+") as fh:
        end = sum(len(line) for line in fh if line.endswith(b"\n"))
        fh.truncate(end)
        return end


def run_matrix(config: ExperimentConfig, append: bool = False) -> int:
    """Execute the full cell grid; returns a nonzero status iff a cell failed."""
    os.makedirs(config.out_dir, exist_ok=True)
    results_path = os.path.join(config.out_dir, "results.csv")
    manifest_path = os.path.join(config.out_dir, "manifest.json")

    statuses: dict[str, str] = {}
    reasons: dict[str, str] = {}
    if os.path.exists(results_path) or os.path.exists(manifest_path):
        if not append:
            raise InputError(
                f"output directory {config.out_dir} already holds results; pass --append to resume"
            )
        if os.path.exists(manifest_path):
            _check_resumable(load_manifest_config(manifest_path), config)
            with open(manifest_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            statuses = payload.get("cells", {})
            reasons = payload.get("failures", {})

    todo = [
        (est, mname, seed)
        for est, mname, seed in config.cells()
        if statuses.get(cell_id(config.dataset, config.variant, est, mname, seed)) != "done"
    ]

    new_file = not os.path.exists(results_path) or _cut_partial_row(results_path) == 0
    failures = 0
    with open(results_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(RESULTS_HEADER)
            fh.flush()

        def consume(cid: str, record: RunRecord) -> None:
            nonlocal failures
            for row in _record_rows(record):
                writer.writerow(row)
            fh.flush()
            statuses[cid] = "failed" if record.failed else "done"
            reasons.pop(cid, None)
            if record.failed:
                failures += 1
                reasons[cid] = record.failure_reason
                print(f"cell {cid}: FAILED ({record.failure_reason})", file=sys.stderr)
            _write_manifest(manifest_path, config, statuses, reasons)

        # a pool starts all its workers at once, so it gets no more than
        # there are cells left; each cell's streams come from its identity
        workers = min(config.jobs, len(todo))
        if workers <= 1:
            for est, mname, seed in todo:
                cid, record = _cell_worker((config, est, mname, seed))
                consume(cid, record)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(_cell_worker, (config, *cell)): cell for cell in todo}
                for fut in as_completed(futures):
                    if not isinstance(fut.exception(), BrokenProcessPool):
                        consume(*fut.result())
            # a worker that dies breaks the pool and every cell it has not
            # finished: each of those runs again alone, so only a cell whose
            # own worker dies fails
            for fut, cell in futures.items():
                if isinstance(fut.exception(), BrokenProcessPool):
                    consume(*_cell_alone(config, *cell))

    _write_manifest(manifest_path, config, statuses, reasons)
    return 1 if failures else 0


# -- summaries --------------------------------------------------------------------


def _read_results(results_path: str):
    records: dict[tuple, RunRecord] = {}
    with open(results_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{results_path}: file is empty") from None
        if tuple(header) != RESULTS_HEADER:
            raise InputError(f"{results_path}: unexpected header {header}")
        for r, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise InputError(f"{results_path}: row {r} has {len(row)} cells, expected {len(RESULTS_HEADER)}")
            try:
                dataset, variant, estimator, method, seed, step, n_labeled, pool, test, secs, status = row
                if status not in ("ok", "failed"):
                    # a row cut short by a kill can end mid-status
                    raise ValueError(f"unknown status {status!r}")
                key = (dataset, variant, estimator, method, int(seed))
                if key not in records or int(step) == 0:
                    # a step-0 row starts a new attempt at the cell (a resumed
                    # or retried run); only the last attempt counts
                    records[key] = RunRecord(method=method, estimator=estimator, dataset=dataset,
                                             variant=variant, seed=int(seed))
                rec = records[key]
                if status == "failed":
                    rec.failed = True
                rec.entries.append(
                    StepEntry(step=int(step), n_labeled=int(n_labeled),
                              sqrt_pehe_pool=float(pool), sqrt_pehe_test=float(test),
                              acq_seconds=float(secs))
                )
            except (ValueError, IndexError) as exc:
                raise InputError(f"{results_path}: row {r} is malformed: {exc}") from None
    for rec in records.values():
        rec.entries.sort(key=lambda e: e.step)
    return list(records.values())


def _fmt(v) -> str:
    """One summary field: text as is, integers exactly, floats to 12
    significant digits, and an absent or NaN value as an empty cell."""
    if isinstance(v, str):
        return v
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return ""
    return str(v) if isinstance(v, int) else f"{v:.12g}"


def emit_summary(results_path: str, out_path: str | None = None) -> str:
    """Aggregate curves plus relative improvement over the random baseline.

    Long-format rows, one per metric, as :func:`summarize_runs` yields them;
    undefined improvements (random curve at exactly 0) are left as empty
    cells. Written atomically.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SUMMARY_HEADER)
    writer.writerows([_fmt(v) for v in line] for line in summarize_runs(_read_results(results_path)))
    out_path = out_path or os.path.join(os.path.dirname(os.path.abspath(results_path)), "summary.csv")
    _atomic_write(out_path, buf.getvalue())
    return out_path


# -- dataset dumps -------------------------------------------------------------------


def dump_dataset(name: str, out_csv: str, n: int | None = None, seed: int = 0, shift: bool = False,
                 covariates_csv: str | None = None) -> None:
    """Write one generated dataset (with ground truth columns) to CSV."""
    ds = generate_dataset(name, n, shift, rng_stream(seed, name, "dump"), covariates_csv)
    d = ds.covariates.shape[1]
    header = [f"x{i + 1}" for i in range(d)] + ["t", "y", "mu0", "mu1", "tau"]
    if ds.propensity_true is not None:
        header.append("pi")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for i in range(ds.n):
        row = [f"{v:.12g}" for v in ds.covariates[i]]
        row += [str(int(ds.treatments[i]))]
        row += [f"{v:.12g}" for v in (ds.outcomes[i], ds.mu0[i], ds.mu1[i], ds.tau_true[i])]
        if ds.propensity_true is not None:
            row.append(f"{ds.propensity_true[i]:.12g}")
        writer.writerow(row)
    _atomic_write(out_csv, buf.getvalue())


# -- entry point ------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cate-al", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the experiment matrix of a config file")
    p_run.add_argument("config")
    p_run.add_argument("--append", action="store_true", help="resume, skipping completed cells")
    p_run.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_sum = sub.add_parser("summarize", help="aggregate a results.csv into summary tables")
    p_sum.add_argument("results")
    p_sum.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen-data", help="dump a generated dataset to CSV")
    p_gen.add_argument("dataset", choices=DATASET_NAMES)
    p_gen.add_argument("out_csv")
    p_gen.add_argument("--n", type=int, default=None, help="rows of a synthetic design (default 2000)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--shift", action="store_true")
    p_gen.add_argument("--covariates", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = parse_config(args.config)
            if args.jobs is not None:
                config = replace(config, jobs=args.jobs)
            if args.out is not None:
                config = replace(config, out_dir=args.out)
            return run_matrix(config, append=args.append)
        if args.command == "summarize":
            path = emit_summary(args.results, args.out)
            print(path)
            return 0
        if args.command == "gen-data":
            dump_dataset(args.dataset, args.out_csv, n=args.n, seed=args.seed,
                         shift=args.shift, covariates_csv=args.covariates)
            print(args.out_csv)
            return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

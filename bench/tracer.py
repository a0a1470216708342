"""Span tracer for the benchmark's traced runs.

The tracer wraps functions of the ``cate_al`` modules at the point where
their callers look them up: a module attribute (``cate_al.active_loop.
score_pool``, ``cate_al.gp.cmgp_gram``) or a class attribute
(``GpCateModel.moment_bundle``). The program's source is not touched.

Every wrapped call becomes a span: name, start, end, parent span, process id
and cell id, plus call attributes such as the Gram entries built or the
acquisition method scored. Spans stay in memory. A tracer given a sink
directory appends its spans to ``spans-<pid>.jsonl`` there each time its
outermost span closes, which is how pool workers of ``cate-al run`` hand
their cells back.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


def _gram_attrs(args, kwargs, result):
    return {"entries": int(result.size)}


def _score_attrs(args, kwargs, result):
    method, _model, _pool_x, pool_t = args[:4]
    return {"method": method.name, "candidates": int(np.size(pool_t))}


def _chol_attrs(args, kwargs, result):
    from cate_al import gp

    _, jitter_used = result
    return {"retried": bool(jitter_used > max(args[1], gp.JITTER_START))}


def _points_attrs(args, kwargs, result):
    return {"points": int(np.size(result))}


def _matrix_attrs(args, kwargs, result):
    return {"jobs": int(args[0].jobs)}


def _run_cell_id(args):
    config, estimator, method, seed = args[:4]
    return f"{config.dataset}|{estimator}|{method}|{seed}"


def boundaries():
    """(owner, attribute, span name, attribute hook, cell-id hook) per layer
    boundary, for the modules of the current ``cate_al``."""
    from cate_al import active_loop, beliefs, cli, ensemble, evaluation, gp

    return [
        (active_loop, "run_active_learning", "active_loop.run", None, None),
        (cli, "run_active_learning", "active_loop.run", None, None),
        (active_loop, "select_batch", "active_loop.select_batch", None, None),
        (active_loop, "score_pool", "acquisition.score_pool", _score_attrs, None),
        (active_loop, "optimize_hyperparams", "gp.optimize_hyperparams", "search", None),
        (active_loop, "fit_gp", "gp.fit_gp", None, None),
        (active_loop, "fit_ensemble", "ensemble.fit_ensemble", None, None),
        (evaluation, "model_sqrt_pehe", "evaluation.model_sqrt_pehe", None, None),
        (gp, "log_marginal_likelihood", "gp.log_marginal_likelihood", None, None),
        (gp, "cmgp_gram", "kernels.cmgp_gram", _gram_attrs, None),
        (gp, "nsgp_gram", "kernels.nsgp_gram", _gram_attrs, None),
        (gp, "_chol_with_escalating_jitter", "gp.cholesky", _chol_attrs, None),
        (gp.GpCateModel, "moment_bundle", "gp.moment_bundle", None, None),
        (ensemble.EnsembleLinearModel, "moment_bundle", "ensemble.moment_bundle", None, None),
        (beliefs.CateModel, "latent_var", "beliefs.latent_var", _points_attrs, None),
        (cli, "run_matrix", "cli.run_matrix", _matrix_attrs, None),
        (cli, "run_cell", "cli.run_cell", None, _run_cell_id),
        (cli, "make_benchmark", "dgp.make_benchmark", None, None),
        (cli, "emit_summary", "cli.emit_summary", None, None),
    ]


class Tracer:
    """Records spans for the wrapped layer boundaries of one process."""

    def __init__(self, sink_dir: str | None = None):
        self.sink_dir = sink_dir
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.cell = ""
        self._stack: list[dict] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._searches: list[tuple] = []
        self._lml = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from cate_al import gp

        self._lml = gp.log_marginal_likelihood
        for owner, attr, name, hook, cell_hook in boundaries():
            if attr not in vars(owner):
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook, cell_hook))
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after_fork(self) -> None:
        # a pool worker starts with its parent's open spans; its own cells
        # are roots in its own file
        self.spans = []
        self._stack = []
        self._searches = []

    def _wrap(self, original, name, hook, cell_hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if cell_hook is not None:
                tracer.cell = cell_hook(args)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                tracer._close(span, time.perf_counter())
                raise
            end = time.perf_counter()
            if hook == "search":
                tracer._searches.append((span, args[:3], result))
            elif hook is not None:
                span.update(hook(args, kwargs, result))
            tracer._close(span, end)
            return result

        return traced

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> dict:
        self._next_id += 1
        span = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "pid": os.getpid(),
            "name": name,
            "cell": self.cell,
            "start": time.perf_counter(),
        }
        self._stack.append(span)
        return span

    def _close(self, span: dict, end: float) -> None:
        span["end"] = end
        self._stack.pop()
        self.spans.append(span)
        if not self._stack and self.sink_dir is not None:
            self.flush()

    def finish(self) -> list[dict]:
        """Attach the log marginal likelihood of each chosen hyperparameter
        set, computed untraced after the fact, and return all spans."""
        for span, (x, t, y), params in self._searches:
            span["lml"] = float(self._lml(x, t, y, params))
        self._searches = []
        return self.spans

    def flush(self) -> None:
        spans = self.finish()
        path = os.path.join(self.sink_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def read_spans(sink_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(sink_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(sink_dir, name), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# -- analysis ------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Span duration minus the time its direct children cover, keyed by
    (pid, id). Children of one span run one after another in its process."""
    covered: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            covered[key] = covered.get(key, 0.0) + s["end"] - s["start"]
    return {
        (s["pid"], s["id"]): s["end"] - s["start"] - covered.get((s["pid"], s["id"]), 0.0)
        for s in spans
    }


def nesting_errors(spans: list[dict], tol: float = 1e-9) -> list[str]:
    """Spans that lie outside their parent's interval or miss their parent."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    errors = []
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_key.get((s["pid"], s["parent"]))
        if parent is None:
            errors.append(f"{s['name']}: parent span missing")
        elif s["start"] < parent["start"] - tol or s["end"] > parent["end"] + tol:
            errors.append(f"{s['name']} lies outside {parent['name']}")
    return errors


def self_time_sum_errors(spans: list[dict], cell_name: str, rel_tol: float = 1e-6) -> list[str]:
    """Cell spans whose subtree's self times do not add up to the cell span."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    own = self_times(spans)
    totals: dict[tuple, float] = {}
    for s in spans:
        node = s
        while node["name"] != cell_name and node["parent"] is not None:
            node = by_key[(node["pid"], node["parent"])]
        if node["name"] == cell_name:
            key = (node["pid"], node["id"])
            totals[key] = totals.get(key, 0.0) + own[(s["pid"], s["id"])]
    errors = []
    for key, total in totals.items():
        cell = by_key[key]
        duration = cell["end"] - cell["start"]
        if abs(total - duration) > rel_tol * max(duration, 1e-9):
            errors.append(f"cell {cell['cell']}: self times sum to {total}, span is {duration}")
    return errors


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[dict], n_cells: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: {name: (value, unit)}.

    Seconds are per cell (the pass total over ``n_cells``), so a layer's
    seconds over the workload's ``cell_s`` is its share of a cell. Counts
    are totals over the pass.
    """
    own = self_times(spans)
    dur = {(s["pid"], s["id"]): s["end"] - s["start"] for s in spans}
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, times=dur):
        return sum(times[(s["pid"], s["id"])] for s in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    per_cell = 1.0 / max(n_cells, 1)
    m: dict[str, tuple[float, str]] = {}

    grams = by_name.get("kernels.cmgp_gram", []) + by_name.get("kernels.nsgp_gram", [])
    gram_s = sum(dur[(s["pid"], s["id"])] for s in grams)
    entries = sum(s.get("entries", 0) for s in grams)
    m["kernels.gram_s"] = (gram_s * per_cell, "s")
    m["kernels.gram_calls"] = (len(grams), "count")
    m["kernels.gram_entries"] = (entries, "count")
    m["kernels.gram_computed_bytes"] = (8 * entries, "B")
    m["kernels.gram_entries_per_s"] = (entries / gram_s if gram_s > 0 else 0.0, "1/s")

    lml = by_name.get("gp.log_marginal_likelihood", [])
    searches = by_name.get("gp.optimize_hyperparams", [])
    m["gp.search_s"] = (total("gp.optimize_hyperparams") * per_cell, "s")
    m["gp.search_calls"] = (len(searches), "count")
    m["gp.lml_evals"] = (len(lml), "count")
    m["gp.lml_s"] = (total("gp.log_marginal_likelihood") / len(lml) if lml else 0.0, "s")
    m["gp.lml_failed_frac"] = (
        sum(1 for s in lml if s.get("error") == "NumericalError") / len(lml) if lml else 0.0, "frac")
    chosen = [s["lml"] for s in searches if "lml" in s]
    m["gp.search_lml"] = (float(np.mean(chosen)) if chosen else 0.0, "nat")
    chol = by_name.get("gp.cholesky", [])
    m["gp.chol_s"] = (total("gp.cholesky") * per_cell, "s")
    m["gp.chol_calls"] = (len(chol), "count")
    m["gp.chol_retry_frac"] = (sum(1 for s in chol if s.get("retried")) / len(chol) if chol else 0.0, "frac")
    m["gp.fit_s"] = (total("gp.fit_gp") * per_cell, "s")
    m["gp.moment_bundle_s"] = (total("gp.moment_bundle") * per_cell, "s")

    m["ensemble.fit_s"] = (total("ensemble.fit_ensemble") * per_cell, "s")
    m["ensemble.moment_bundle_s"] = (total("ensemble.moment_bundle") * per_cell, "s")
    m["beliefs.latent_var_s"] = (total("beliefs.latent_var") * per_cell, "s")
    m["beliefs.latent_var_points"] = (sum(s.get("points", 0) for s in by_name.get("beliefs.latent_var", [])), "count")

    scores = by_name.get("acquisition.score_pool", [])
    m["acquisition.score_s"] = (total("acquisition.score_pool", own) * per_cell, "s")
    for method in sorted({s["method"] for s in scores}):
        own_s = sum(own[(s["pid"], s["id"])] for s in scores if s["method"] == method)
        m[f"acquisition.score_s.{method}"] = (own_s * per_cell, "s")
    m["acquisition.candidates_scored"] = (sum(s["candidates"] for s in scores), "count")

    rounds = _round_seconds(spans, by_name)
    m["active_loop.rounds"] = (len(rounds), "count")
    m["active_loop.round_s.p50"] = (_percentile(rounds, 50), "s")
    m["active_loop.round_s.p90"] = (_percentile(rounds, 90), "s")
    m["active_loop.select_s"] = (total("active_loop.select_batch") * per_cell, "s")
    m["active_loop.self_s"] = (total("active_loop.run", own) * per_cell, "s")

    m["evaluation.pehe_s"] = (total("evaluation.model_sqrt_pehe") * per_cell, "s")
    m["evaluation.pehe_calls"] = (count("evaluation.model_sqrt_pehe"), "count")

    matrices = by_name.get("cli.run_matrix", [])
    if matrices:
        cell_total = total("cli.run_cell")
        busy = sum(s["jobs"] * (s["end"] - s["start"]) for s in matrices)
        m["cli.run_cell_s"] = (cell_total / max(count("cli.run_cell"), 1), "s")
        m["cli.pool_busy_frac"] = (cell_total / busy if busy > 0 else 0.0, "frac")
        m["cli.summarize_s"] = (total("cli.emit_summary"), "s")
    return m


def _round_seconds(spans, by_name) -> list[float]:
    """A round runs from one score_pool call to the next one of its cell,
    and the last round to the end of the cell."""
    runs = {(s["pid"], s["id"]): s for s in by_name.get("active_loop.run", [])}
    starts: dict[tuple, list[float]] = {}
    for s in by_name.get("acquisition.score_pool", []):
        starts.setdefault((s["pid"], s["parent"]), []).append(s["start"])
    out = []
    for key, run in runs.items():
        marks = sorted(starts.get(key, [])) + [run["end"]]
        out.extend(b - a for a, b in zip(marks, marks[1:]))
    return out

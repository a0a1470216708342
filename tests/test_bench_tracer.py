"""The benchmark's per-layer trace still sees every layer boundary, and its
layer probes still run.

``bench/tracer.py`` wraps ``cate_al`` functions where their callers look them
up; a refactor that renames or moves one of them silently drops its span.
``bench/probes.py`` calls library names directly; removing one breaks the
benchmark. Both are imported from their files and used as is.
"""

import importlib.util
import os

import numpy as np
import pytest

from cate_al import active_loop

from conftest import random_cmgp_params, random_nsgp_params

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return load_bench_module("tracer")


def test_every_boundary_exists(tracer_module):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracer_module.boundaries() if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("make_params", [random_cmgp_params, random_nsgp_params])
def test_traced_fit_records_a_kernel_span(tracer_module, rng, make_params):
    x = rng.normal(size=(10, 1))
    t = np.tile([0, 1], 5)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        active_loop.fit_gp(x, t, rng.normal(size=10), make_params(rng))
    finally:
        tracer.uninstall()
    spans = {s["id"]: s for s in tracer.finish()}
    fits = [i for i, s in spans.items() if s["name"] == "gp.fit_gp"]
    kernels = [s for s in spans.values() if s["name"].startswith("kernels.")]
    assert len(fits) == 1
    assert kernels and all(s["parent"] == fits[0] for s in kernels)


def test_layer_probes_run_at_a_small_scale():
    values = load_bench_module("probes").layer_probes(0, scale=0.02)
    assert values and all(np.isfinite(value) for value, _ in values.values())


@pytest.mark.parametrize("make_params", [random_cmgp_params, random_nsgp_params])
def test_traced_latent_var_records_a_kernel_span(tracer_module, rng, make_params):
    # the mixed-arm posterior queries build their Grams with params.gram,
    # so the tracer's Gram layer sees them too
    model = active_loop.fit_gp(rng.normal(size=(10, 1)), np.tile([0, 1], 5), rng.normal(size=10), make_params(rng))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        model.latent_var(rng.normal(size=(4, 1)), [0, 1, 1, 0])
    finally:
        tracer.uninstall()
    assert any(s["name"].startswith("kernels.") for s in tracer.finish())

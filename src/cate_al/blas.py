"""One BLAS thread for the library's cells and scoring.

numpy's and scipy's OpenBLAS keep separate thread pools; on matrices of a
few thousand rows at most, each pool's spinning workers only slow the other's
calls, and a thread count changes the last bits of a Cholesky or a matmul.
A cell and a ``score_pool`` call therefore hold every loaded OpenBLAS at one
thread, so they compute the same rows on any core count, and parallelism
comes from running cells side by side.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable

from numpy.linalg import _umath_linalg
from scipy.linalg import _flapack

# the (prefix, suffix) forms of OpenBLAS's thread getter and setter names, by
# build; the first form a library exports is used
_OPENBLAS_SYMBOL_FORMS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", ""))


@functools.cache
def openblas_thread_controls() -> tuple[tuple[str, Callable[[], int], Callable[[int], None]], ...]:
    """(label, thread getter, thread setter) of the OpenBLAS that each of
    numpy's and scipy's LAPACK extensions links, looked up once per process;
    empty for other BLAS builds (MKL, Accelerate)."""
    controls = []
    for module in (_umath_linalg, _flapack):
        lib = ctypes.CDLL(module.__file__)
        for prefix, suffix in _OPENBLAS_SYMBOL_FORMS:
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((f"{prefix}{suffix} via {module.__name__}", get, set_))
            break
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then restore each count."""
    controls = openblas_thread_controls()
    saved = [get() for _, get, _ in controls]
    try:
        for _, _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, _, set_), count in zip(controls, saved):
            set_(count)

"""Exception types, and the input checks every entry point runs: a treatment
is exactly 0 (control) or 1 (treated), the two arms every estimate contrasts,
and covariates and outcomes are finite; anything else raises InputError."""

import numpy as np


class InputError(ValueError):
    """Raised when caller-supplied data or configuration is invalid."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot produce a usable result."""


def as_arms(t) -> np.ndarray:
    """Treatments as a fresh 1-d int array, each checked to be 0 or 1."""
    t = np.asarray(t)
    if np.any((t != 0) & (t != 1)):
        raise InputError("treatments must be 0 or 1")
    return t.astype(int).reshape(-1)


def as_labeled(x, t, y=None):
    """Fresh copies of a labeled set: ``x`` as finite 2-d floats, ``t``
    through :func:`as_arms` and, when given, ``y`` as finite 1-d floats, all
    of one length. Returns ``(x, t)``, or ``(x, t, y)`` when ``y`` is given."""
    x = np.array(x, dtype=float, ndmin=2)
    t = as_arms(t)
    arrays = (x, t) if y is None else (x, t, np.array(y, dtype=float).reshape(-1))
    if any(a.shape[0] != t.size for a in arrays):
        raise InputError(f"covariate, treatment and outcome lengths disagree: {[a.shape[0] for a in arrays]}")
    if not np.all(np.isfinite(x)):
        raise InputError("covariates must be finite")
    if y is not None and not np.all(np.isfinite(arrays[2])):
        raise InputError("outcomes must be finite")
    return arrays

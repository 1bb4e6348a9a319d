"""The steps of the closed forms that must tell a float from an array.

The probability checks of ``quantum`` and the closed forms of ``channels``,
``protocol`` and ``curves`` take Python floats or 1-D float64 arrays (a
sweep grid, one value per grid point) and run the same code on either: the
same products, and sums from 0 taken left to right, so element k of an
array result equals, bit for bit, the float result for element k. Only the
steps below differ. A float never meets numpy on its way through, which
keeps a single point cheap.
"""

from __future__ import annotations

import math

import numpy as np


def as_floats(values) -> list:
    """Each of ``values`` as a float, or as a float64 array if it is an array."""
    return [
        v.astype(np.float64, copy=False) if isinstance(v, np.ndarray) else float(v)
        for v in values
    ]


def neg_p_log2_p(p):
    """-p log2 p, with 0 log 0 = 0. Arrays take ``math.log2`` per element:
    numpy's vectorised log2 may differ from it in the last bit."""
    if isinstance(p, np.ndarray):
        out = np.zeros_like(p)
        positive = p > 0.0
        x = p[positive]
        out[positive] = -x * np.fromiter(map(math.log2, x.tolist()), np.float64, x.size)
        return out
    return -p * math.log2(p) if p > 0.0 else 0.0


def maximum(a, b):
    """``max(a, b)``, elementwise for an array ``a``. ``np.where`` picks as
    ``max`` does (``a`` unless ``b > a``), so signed zeros and NaNs match."""
    return np.where(b > a, b, a) if isinstance(a, np.ndarray) else max(a, b)


def minimum(a, b):
    """``min(a, b)``, elementwise for an array ``a``, picking as ``min`` does."""
    return np.where(b < a, b, a) if isinstance(a, np.ndarray) else min(a, b)


def first_failure(ok, values):
    """None when the check ``ok`` holds: a bool for floats, a bool array
    over the elements for arrays. Otherwise ``values`` (a value or a list of
    values) at the first element where it fails, as floats, so that an
    array reports the value, and so the message, that a float would."""
    if not isinstance(ok, np.ndarray):
        return None if ok else values
    if ok.all():
        return None
    k = int(ok.argmin())
    if isinstance(values, list):
        return [float(v[k]) if isinstance(v, np.ndarray) else v for v in values]
    return float(values[k])


def check_range(value, lo: float, hi: float, label: str):
    """``value`` if ``lo <= value <= hi`` holds (NaN fails), else a
    ValueError ``<label><value> outside [lo, hi]`` for the first failing
    element."""
    if isinstance(value, np.ndarray):
        bad = first_failure((lo <= value) & (value <= hi), value)
    elif lo <= value <= hi:
        return value
    else:
        bad = value
    if bad is not None:
        raise ValueError(f"{label}{bad!r} outside [{lo:g}, {hi:g}]")
    return value

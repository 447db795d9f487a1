"""Biased product measures on the signed cube and their orthonormal basis.

A bias vector r in (-1,1)^n defines the product measure giving each
coordinate mean r_i, i.e. P(x_i = +1) = (1 + r_i) / 2.  The standardized
characters chi_S(x, r) = prod_{i in S} (x_i - r_i) / sigma_i form an
orthonormal family under it, with sigma_i = sqrt(1 - r_i^2).  The sampler
serves the learning model's case, one bias r shared by every coordinate.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, LengthMismatchError

__all__ = [
    "as_bias_vector",
    "chi",
    "density",
    "sample_batch",
    "sigma",
    "sigma_vector",
]


def sigma(r: float) -> float:
    """Standard deviation of one +/-1 coordinate with mean r.

    Computed as sqrt((1 - r)(1 + r)) so precision near |r| = 1 degrades
    gracefully.
    """
    r = float(r)
    if not -1.0 < r < 1.0:
        raise DomainError(f"bias must lie in (-1, 1), got {r}")
    return math.sqrt((1.0 - r) * (1.0 + r))


def as_bias_vector(r, n: int) -> np.ndarray:
    """Coerce a scalar or length-n sequence into a validated bias vector."""
    arr = np.asarray(r, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise LengthMismatchError(f"bias vector has shape {arr.shape}, expected ({n},)")
    if not np.all((arr > -1.0) & (arr < 1.0)):
        raise DomainError("all biases must lie in (-1, 1)")
    return arr


def sigma_vector(rv: np.ndarray) -> np.ndarray:
    rv = np.asarray(rv, dtype=np.float64)
    if not np.all((rv > -1.0) & (rv < 1.0)):
        raise DomainError("all biases must lie in (-1, 1)")
    return np.sqrt((1.0 - rv) * (1.0 + rv))


def density(rv, x: Sequence[int]) -> float:
    """Probability mass of the assignment x under the r-biased measure."""
    x = np.asarray(x, dtype=np.float64)
    rv = as_bias_vector(rv, len(x))
    return float(np.prod((1.0 + rv * x) / 2.0))


# Each working block holds at most this many float64 entries, so neither the
# sampler's uniforms nor the moment engine's products grow with the sample size.
_CHUNK_ELEMS = 1 << 18


def sample_batch(r: float, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """(m, n) assignments from the measure with every coordinate of bias r.

    Consumes exactly one uniform stream draw per entry, row by row and in
    index order within a row, so a fixed generator state yields the same
    block however it is split into calls.  The uniforms are drawn in blocks
    of at most _CHUNK_ELEMS entries, written into the int8 output in place.
    """
    r = float(r)
    if not -1.0 < r < 1.0:
        raise DomainError(f"bias must lie in (-1, 1), got {r}")
    p = (1.0 + r) / 2.0
    out = np.empty((m, n), dtype=np.int8)
    chunk = max(1, _CHUNK_ELEMS // max(1, n))
    u = np.empty((min(m, chunk), n))
    for start in range(0, m, chunk):
        block = out[start : start + chunk]
        rng.random(out=u[: len(block)])
        np.less(u[: len(block)], p, out=block.view(bool))
        block *= 2
        block -= 1
    return out


def chi(S: Iterable[int], x: Sequence[int], rv) -> float:
    """Standardized character chi_S(x, r); the empty set gives 1."""
    rv = as_bias_vector(rv, len(x))
    sig = sigma_vector(rv)
    out = 1.0
    for i in S:
        i = int(i)
        out *= (float(x[i]) - rv[i]) / sig[i]
    return float(out)

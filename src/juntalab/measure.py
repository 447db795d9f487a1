"""Biased product measures on the signed cube and their orthonormal basis.

A bias vector r in (-1,1)^n defines the product measure giving each
coordinate mean r_i, i.e. P(x_i = +1) = (1 + r_i) / 2.  The standardized
characters chi_S(x, r) = prod_{i in S} (x_i - r_i) / sigma_i form an
orthonormal family under it, with sigma_i = sqrt(1 - r_i^2).  The sampler
serves the learning model's case, one bias r shared by every coordinate.

The sampler is exact and reads the generator's raw bits.  With
p = (1 + r) / 2 and a = floor(256 p), each coordinate takes one raw byte b:
b < a gives +1 and b > a gives -1.  Only a tie (b == a, one byte in 256)
takes a uniform u, and gives +1 iff u < 256 p - a, a difference float64
holds exactly.  The outcome is therefore exactly (b + u) / 256 < p, with no
rounding of the bias.  Rows come in fixed blocks of block_rows(n) rows: the
generator gives each block's bytes, then one uniform per tie in row-major
order, so a stream cut at block boundaries reads the same however the cuts
fall.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, LengthMismatchError

__all__ = [
    "as_bias_vector",
    "block_rows",
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
    r = _check_bias(float(r))
    return math.sqrt((1.0 - r) * (1.0 + r))


def _check_bias(r):
    """r itself if it lies in (-1, 1), else DomainError (NaN included).

    The comparison runs in r's own type, so a Fraction just below 1 is not
    rounded to 1.0 first.  _check_bias_vector is the same rule for arrays.
    """
    if not -1 < r < 1:
        raise DomainError(f"bias must lie in (-1, 1), got {r}")
    return r


def _check_bias_vector(rv: np.ndarray) -> np.ndarray:
    """rv itself if every entry lies in (-1, 1), else DomainError."""
    if not np.all((rv > -1.0) & (rv < 1.0)):
        raise DomainError("all biases must lie in (-1, 1)")
    return rv


def _real_array(r) -> np.ndarray:
    """r as a float64 array, or DomainError when it holds text or a complex
    number, which numpy would parse ("0.5" as 0.5) or reject with a bare
    error.  Range checks are left to the caller."""
    arr = np.asarray(r)
    if arr.dtype.kind in "USc" or arr.dtype.kind == "O" and any(
        isinstance(v, (str, bytes, complex)) for v in arr.flat
    ):
        raise DomainError(f"a bias must be a real number, got {r!r}")
    return arr.astype(np.float64, copy=False)


def as_bias_vector(r, n: int) -> np.ndarray:
    """Coerce a scalar or length-n sequence into a validated bias vector."""
    arr = _real_array(r)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise LengthMismatchError(f"bias vector has shape {arr.shape}, expected ({n},)")
    return _check_bias_vector(arr)


def sigma_vector(rv: np.ndarray) -> np.ndarray:
    rv = _check_bias_vector(np.asarray(rv, dtype=np.float64))
    return np.sqrt((1.0 - rv) * (1.0 + rv))


def density(rv, x: Sequence[int]) -> float:
    """Probability mass of the assignment x under the r-biased measure."""
    x = np.asarray(x, dtype=np.float64)
    rv = as_bias_vector(rv, len(x))
    return float(np.prod((1.0 + rv * x) / 2.0))


# Working blocks are sized from this many entries, so neither the sampler's
# bytes (a quarter of it) nor the moment engine's sign flags and packed
# vectors (about this many bytes) grow with the sample size.
_CHUNK_ELEMS = 1 << 18


def block_rows(n: int) -> int:
    """Rows in one sampler block at width n.

    A multiple of 8, so the block's n * rows bytes fill whole 8-byte raw
    words, and about _CHUNK_ELEMS // 4 bytes, or 8 rows once n > 2^13.
    """
    return 8 * max(1, _CHUNK_ELEMS // (32 * max(1, n)))


def sample_batch(
    r: float, rng: np.random.Generator, m: int, n: int, head: np.ndarray | None = None
) -> np.ndarray:
    """(m, n) int8 assignments from the measure with every coordinate of bias r.

    The first len(head) rows are copied from ``head`` (at most m rows of n
    signs), and the rest are drawn in whole blocks of block_rows(n) rows.
    Per block the generator gives n * block_rows(n) raw bytes, one per entry
    in row-major order, then one uniform per tie in the same order; an entry
    is +1 when its byte b is below a = floor(256 p), -1 when above, and on a
    tie +1 iff its uniform is below 256 p - a, with p = (1 + r) / 2.  The
    rows of the last block past m are drawn and dropped, so consecutive calls
    read one stream only while each call but the last draws whole blocks;
    ``Oracle`` does so and serves the dropped rows through ``head``.
    """
    r = _check_bias(float(r))
    scaled = (1.0 + r) * 128.0  # 256 p, exact
    a = int(scaled)
    frac = scaled - a
    out = np.empty((m, n), dtype=np.int8)
    first = 0
    if head is not None:
        first = len(head)
        out[:first] = head
    rows = block_rows(n)
    bits = rng.bit_generator
    for start in range(first, m, rows):
        b = bits.random_raw(rows * n // 8).astype("<u8", copy=False).view(np.uint8)
        ties = np.flatnonzero(b == a)
        won = rng.random(len(ties)) < frac
        block = out[start : start + rows].reshape(-1)
        np.less(b[: len(block)], a, out=block.view(bool))
        kept = np.searchsorted(ties, len(block))
        block[ties[:kept]] = won[:kept]
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

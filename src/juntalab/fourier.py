"""Exact spectral analysis of juntas under biased product measures.

Everything is anchored to the uniform spectrum of the core, which is exact:
each coefficient is an integer multiple of 2**-k.  Two identities drive the
rest of the exact analysis:

* change of basis to bias r:
      fhat(S, r) = sigma_S * sum_{T superset S} fhat(T, 0) * r_{T \\ S}
  where sigma_S and r_{T\\S} are coordinate products, and

* level weights of the expectation polynomial E_r[f] = sum_t w_t(f, 0) r^t:
      w_s(f, r) = (1 - r^2)^(s/2) * sum_{t >= s} C(t, s) w_t(f, 0) r^(t-s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

import numpy as np

# perfbench/tracing.py wraps walsh_numerators in this module, so it stays imported
from .boolfn import Junta, _walsh, assignments, walsh_numerators  # noqa: F401
from .errors import DomainError, InvalidParamsError
from .measure import as_bias_vector, sigma, sigma_vector

__all__ = [
    "DyadicPolynomial",
    "biased_coefficient",
    "biased_coefficient_bruteforce",
    "biased_coefficient_rational",
    "biased_spectrum",
    "dense_table",
    "expectation_polynomial",
    "level_weight",
    "level_weight_direct",
    "parseval_sum",
    "relevant_subsets",
]


@dataclass(frozen=True)
class DyadicPolynomial:
    """Univariate polynomial with exact rational coefficients, low order first.

    Trailing zero coefficients are stripped; the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, r):
        """Horner evaluation; exact when r is a Fraction or int."""
        if isinstance(r, (Fraction, int)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * r + c
            return acc
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * r + float(c)
        return acc

    def as_floats(self) -> list[float]:
        return [float(c) for c in self.coeffs]


def _subset_mask(f: Junta, S: Iterable[int]) -> int | None:
    """Mask of S inside the relevant tuple, or None when S is not contained
    in the relevant set."""
    pos = {var: b for b, var in enumerate(f.relevant)}
    mask = 0
    for i in S:
        b = pos.get(int(i))
        if b is None:
            return None
        mask |= 1 << b
    return mask


def biased_coefficient(f: Junta, S: Iterable[int], r) -> float:
    """Coefficient of chi_S under bias r: the entry of biased_spectrum at the
    mask of S.

    Subsets not contained in the relevant set have coefficient exactly 0.
    """
    rv = as_bias_vector(r, f.n)
    mask = _subset_mask(f, S)
    if mask is None:
        return 0.0
    return float(biased_spectrum(f, rv)[mask])


def biased_coefficient_rational(f: Junta, S: Iterable[int], r: Fraction) -> Fraction:
    """Exact value of fhat(S, r) / sigma_S at a rational uniform bias r.

    The sigma_S factor is irrational in general but strictly positive, so
    this rational part is zero exactly when the coefficient is.
    """
    r = Fraction(r)
    mask = _subset_mask(f, S)
    if mask is None:
        return Fraction(0)
    sums = _superset_level_sums(f, mask)
    return sum(w * r**t for t, w in enumerate(sums)) / (1 << f.k)


def _superset_level_sums(f: Junta, mask: int) -> list[int]:
    """Entry t sums the Walsh numerators W[T] over the supersets T of mask
    with t elements outside it; exact, since each |sum| <= 2**k * 2**k."""
    nums = _walsh(f.core)
    sup = np.arange(1 << f.k)
    sup = sup[sup & mask == mask]
    sums = np.zeros(f.k + 1, dtype=np.int64)
    np.add.at(sums, np.bitwise_count(sup ^ mask), nums[sup])
    return sums.tolist()


def biased_spectrum(f: Junta, r) -> np.ndarray:
    """All 2**k biased coefficients at once, indexed by relevant-subset mask.

    The change-of-basis identity applied bit by bit: one pass absorbs r_i
    into supersets, a second applies the sigma factors.
    """
    rv = as_bias_vector(r, f.n)
    k = f.k
    out = _walsh(f.core) / (1 << k)
    rr = rv[list(f.relevant)]
    sig = sigma_vector(rr)
    # in the (-1, 2, 2**b) view, [:, 1] are the masks with bit b set, [:, 0] without it
    for b in range(k):
        v = out.reshape(-1, 2, 1 << b)
        v[:, 0] += rr[b] * v[:, 1]
    for b in range(k):
        out.reshape(-1, 2, 1 << b)[:, 1] *= sig[b]
    return out


def dense_table(f: Junta) -> np.ndarray:
    """A junta evaluated on the full cube in assignment-index order (n <= 14)."""
    return f.eval_batch(assignments(f.n)).astype(np.float64)


def biased_coefficient_bruteforce(f: Junta, S: Iterable[int], r) -> float:
    """Independent check of biased_coefficient for a junta by full
    enumeration (n <= 14): the density-weighted inner product of f with
    chi_S over all 2**n points."""
    table, n = dense_table(f), f.n
    S = [int(i) for i in S]
    for i in S:
        if not 0 <= i < n:
            raise DomainError(f"subset index {i} outside [0, {n})")
    rv = as_bias_vector(r, n)
    X = assignments(n).astype(np.float64)
    dens = np.prod((1.0 + X * rv) / 2.0, axis=1)
    col = np.ones(1 << n)
    sig = sigma_vector(rv)
    for i in S:
        col *= (X[:, i] - rv[i]) / sig[i]
    return float(np.dot(dens * table, col))


def parseval_sum(f: Junta, r) -> float:
    """Sum of the squared biased coefficients of a junta, from its exact
    spectrum (k <= 20).  For a +/-1-valued function the sum is 1."""
    spec = biased_spectrum(f, r)
    return float(np.dot(spec, spec))


def expectation_polynomial(f: Junta) -> DyadicPolynomial:
    """E_r[f] as an exact polynomial in a uniform bias r: coefficient t is
    the level-t weight of the uniform spectrum."""
    denom = 1 << f.k
    return DyadicPolynomial(tuple(Fraction(w, denom) for w in _superset_level_sums(f, 0)))


def level_weight(f: Junta, s: int, r: float) -> float:
    """Total weight w_s(f, r) of level s under bias r, computed from the
    uniform level weights in O(k) terms."""
    if s < 0:
        raise InvalidParamsError(f"level must be nonnegative, got {s}")
    return _level_weight(expectation_polynomial(f), s, r)


def _level_weight(poly: DyadicPolynomial, s: int, r: float) -> float:
    """level_weight from the expectation polynomial, computed once by the caller."""
    sig = sigma(r)
    total = 0.0
    for t in range(s, poly.degree + 1):
        w_t = float(poly.coeffs[t])
        if w_t:
            total += math.comb(t, s) * w_t * r ** (t - s)
    return sig**s * total


def level_weight_direct(f: Junta, s: int, r) -> float:
    """Level weight as a plain sum of biased coefficients over all subsets of
    size s, for cross-checking the polynomial route."""
    if s < 0:
        raise InvalidParamsError(f"level must be nonnegative, got {s}")
    if s > f.k:
        return 0.0
    spec = biased_spectrum(f, r)
    return float(np.sum(spec[np.bitwise_count(np.arange(1 << f.k)) == s]))


def relevant_subsets(f: Junta, max_size: int | None = None):
    """Sorted subsets of the relevant set, smallest first, lexicographic
    within a size."""
    top = f.k if max_size is None else min(max_size, f.k)
    for size in range(top + 1):
        yield from combinations(f.relevant, size)

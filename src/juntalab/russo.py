"""Derivatives of the expectation polynomial and their root structure.

The central identity: for a junta f and uniform bias r in (-1, 1),

    d^s/dr^s E_r[f] = s! * sigma^(-s) * w_s(f, r),

so level weights are exactly scaled derivatives.  Root sets collect the real
parts of high-multiplicity roots of h = d/dr E_r[f]; staying away from them
forces some low-level coefficient to be large, which is what makes
threshold-based variable detection work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .boolfn import Junta, degree
from .errors import (
    ConstantFunctionError,
    DomainError,
    InvalidParamsError,
    NoWitnessError,
)
from .fourier import (
    DyadicPolynomial,
    _level_weight,
    biased_coefficient_rational,
    expectation_polynomial,
)
from .measure import sigma

__all__ = [
    "RootPoint",
    "RootSet",
    "Witness",
    "poly_derivative",
    "poly_gcd",
    "root_set",
    "russo_rhs",
    "squarefree_decomposition",
    "theorem1_witness",
]

CLUSTER_TOL = 1e-8  # real parts closer than this are reported once


@dataclass(frozen=True)
class RootPoint:
    """One reported real part with the multiplicity detected exactly from
    the rational factor structure."""

    re: float
    multiplicity: int
    is_real: bool = True


@dataclass(frozen=True)
class RootSet:
    level: int
    points: tuple[RootPoint, ...]


@dataclass(frozen=True)
class Witness:
    """A nonzero coefficient located by the exhaustive exact scan."""

    bias_index: int
    subset: tuple[int, ...]
    value: float


def poly_derivative(p: DyadicPolynomial, order: int = 1) -> DyadicPolynomial:
    """Exact rational derivative of the given order."""
    if order < 0:
        raise InvalidParamsError(f"derivative order must be nonnegative, got {order}")
    coeffs = list(p.coeffs)
    for _ in range(order):
        coeffs = [Fraction(t) * c for t, c in enumerate(coeffs)][1:]
    return DyadicPolynomial(tuple(coeffs))


def russo_rhs(f: Junta, s: int, r: float) -> float:
    """s! * sigma^(-s) * w_s(f, r), the closed form for the s-th derivative
    of the expectation at bias r."""
    if s < 1:
        raise InvalidParamsError(f"derivative order must be >= 1, got {s}")
    return _russo_rhs(expectation_polynomial(f), s, r)


def _russo_rhs(poly: DyadicPolynomial, s: int, r: float) -> float:
    """russo_rhs from the expectation polynomial, computed once by the caller."""
    return math.factorial(s) * _level_weight(poly, s, r) / sigma(r) ** s


# ---------------------------------------------------------------------------
# exact polynomial algebra over the rationals


def _monic(p: DyadicPolynomial) -> DyadicPolynomial:
    if p.is_zero():
        return p
    lead = p.coeffs[-1]
    return DyadicPolynomial(tuple(c / lead for c in p.coeffs))


def _poly_divmod(
    a: DyadicPolynomial, b: DyadicPolynomial
) -> tuple[DyadicPolynomial, DyadicPolynomial]:
    """Exact long division: (quotient, remainder) with deg(remainder) < deg(b)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    quo = [Fraction(0)] * max(a.degree - db + 1, 0)
    while len(rem) - 1 >= db and rem:
        q = rem[-1] / lead
        shift = len(rem) - 1 - db
        quo[shift] = q
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return DyadicPolynomial(tuple(quo)), DyadicPolynomial(tuple(rem))


def _poly_divexact(a: DyadicPolynomial, b: DyadicPolynomial) -> DyadicPolynomial:
    """Quotient when b divides a exactly."""
    quo, rem = _poly_divmod(a, b)
    if not rem.is_zero():
        raise InvalidParamsError("exact polynomial division left a remainder")
    return quo


def poly_gcd(a: DyadicPolynomial, b: DyadicPolynomial) -> DyadicPolynomial:
    """Monic gcd over the rationals (Euclid, exact)."""
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    return _monic(a)


def _poly_sub(a: DyadicPolynomial, b: DyadicPolynomial) -> DyadicPolynomial:
    width = max(len(a.coeffs), len(b.coeffs))
    ca = list(a.coeffs) + [Fraction(0)] * (width - len(a.coeffs))
    cb = list(b.coeffs) + [Fraction(0)] * (width - len(b.coeffs))
    return DyadicPolynomial(tuple(x - y for x, y in zip(ca, cb)))


def squarefree_decomposition(p: DyadicPolynomial) -> list[tuple[int, DyadicPolynomial]]:
    """Yun's algorithm: p = c * prod q_m^m with the q_m monic, squarefree and
    pairwise coprime.  Returns the (m, q_m) pairs with deg(q_m) >= 1."""
    if p.is_zero():
        raise InvalidParamsError("cannot decompose the zero polynomial")
    p = _monic(p)
    out: list[tuple[int, DyadicPolynomial]] = []
    dp = poly_derivative(p, 1)
    g = poly_gcd(p, dp)
    c = _poly_divexact(p, g)
    d = _poly_sub(_poly_divexact(dp, g), poly_derivative(c, 1))
    m = 1
    while c.degree > 0:
        q = poly_gcd(c, d)
        if q.degree > 0:
            out.append((m, q))
        c = _poly_divexact(c, q)
        d = _poly_sub(_poly_divexact(d, q), poly_derivative(c, 1))
        m += 1
    return out


def root_set(f: Junta, s: int) -> RootSet:
    """Real parts, inside (-1, 1), of roots of d/dr E_r[f] with multiplicity
    at least s.

    Multiplicities come from the exact squarefree factor structure (Yun's
    algorithm over the rationals), so only the root coordinates themselves
    are numeric: np.roots finds them as companion-matrix eigenvalues of each
    squarefree factor.  Only real parts in (-1 + CLUSTER_TOL, 1 - CLUSTER_TOL)
    are reported, so a root at exactly -1 or 1, which comes back a rounding
    error inside the interval, is never taken for a critical bias.  Nearby
    real parts are reported once at the clustering tolerance; the
    multiplicity shown is the largest in the cluster.
    """
    if s < 1:
        raise InvalidParamsError(f"multiplicity bound must be >= 1, got {s}")
    h = poly_derivative(expectation_polynomial(f), 1)
    if h.is_zero():
        raise ConstantFunctionError("expectation is constant; no derivative roots")
    raw: list[RootPoint] = []
    for mult, q in squarefree_decomposition(h):
        if mult < s:
            continue
        for z in np.roots(q.as_floats()[::-1]).tolist():
            re = z.real
            if -1.0 + CLUSTER_TOL < re < 1.0 - CLUSTER_TOL:
                raw.append(RootPoint(re, mult, abs(z.imag) <= CLUSTER_TOL))
    raw.sort(key=lambda pt: pt.re)
    merged: list[RootPoint] = []
    for pt in raw:
        if merged and pt.re - merged[-1].re <= CLUSTER_TOL:
            last = merged.pop()
            merged.append(
                RootPoint(last.re, max(last.multiplicity, pt.multiplicity), last.is_real or pt.is_real)
            )
        else:
            merged.append(pt)
    return RootSet(s, tuple(merged))


def theorem1_witness(f: Junta, s: int, biases: Sequence[float]) -> Witness:
    """First nonzero coefficient of size <= s over the given biases.

    The scan is exact (rational arithmetic on the exact binary values of the
    biases) and ordered: bias index, then level 1..s, then subsets in
    lexicographic order.  Only subsets of the relevant set are scanned since
    all others vanish identically.  Whenever s * len(biases) >= degree(f) and
    f is not constant, a witness exists for any pairwise distinct biases.
    """
    if s < 1:
        raise InvalidParamsError(f"level bound must be >= 1, got {s}")
    if f.constant_value() is not None:
        raise InvalidParamsError("witness scan needs a non-constant function")
    d = degree(f)
    if s * len(biases) < d:
        raise InvalidParamsError(
            f"need s * t >= degree(f): s={s}, t={len(biases)}, degree={d}"
        )
    vals = [float(r) for r in biases]
    for r in vals:
        if not -1.0 < r < 1.0:
            raise DomainError(f"bias must lie in (-1, 1), got {r}")
    if len(set(vals)) != len(vals):
        raise InvalidParamsError("biases must be pairwise distinct")
    for j, r in enumerate(vals):
        rq = Fraction(r)
        for level in range(1, s + 1):
            for S in combinations(f.relevant, level):
                part = biased_coefficient_rational(f, S, rq)
                if part != 0:
                    return Witness(j, S, sigma(r) ** level * float(part))
    raise NoWitnessError(
        f"no nonzero coefficient up to level {s} across {len(vals)} biases"
    )

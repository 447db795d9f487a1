"""Derivatives of the expectation polynomial and their root structure.

The central identity: for a junta f and uniform bias r in (-1, 1),

    d^s/dr^s E_r[f] = s! * sigma^(-s) * w_s(f, r),

so level weights are exactly scaled derivatives.  Root sets collect the real
parts of high-multiplicity roots of h = d/dr E_r[f]; staying away from them
forces some low-level coefficient to be large, which is what makes
threshold-based variable detection work.

Multiplicities are exact: Yun's squarefree algorithm runs on primitive
integer polynomials, with gcds from primitive remainder sequences and exact
integer quotients.  Fractions appear only in the monic factors returned.
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
    InvalidParamsError,
    NoWitnessError,
)
from .fourier import (
    DyadicPolynomial,
    _level_weight,
    _rational_numerator,
    expectation_polynomial,
)
from .measure import _check_bias, sigma

__all__ = [
    "RootPoint",
    "RootSet",
    "Witness",
    "poly_derivative",
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
# exact polynomial algebra on primitive integer coefficient lists
#
# A polynomial over Q is carried as the list of integer coefficients (low
# order first, no trailing zeros, [] for zero) of a scalar multiple of it.
# gcds and exact quotients are only defined up to such a scalar, so the
# lists never hold a Fraction; monic factors are built only at output.


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    if not p:
        return p
    g = math.gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _integer_primitive(p: DyadicPolynomial) -> list[int]:
    """Primitive integer multiple of p: scale once by the lcm of its
    denominators, then divide out the content."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (scale // c.denominator) for c in p.coeffs])


def _monic_over_q(p: list[int]) -> DyadicPolynomial:
    return DyadicPolynomial(tuple(Fraction(c, p[-1]) for c in p))


def _derivative(p: list[int]) -> list[int]:
    return [t * c for t, c in enumerate(p)][1:]


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and out[-1] == 0:
        out.pop()
    return out


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b (b nonzero):
    each step scales the running remainder by lead(b) instead of dividing."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(rem) - 1 >= db:
        top, shift = rem[-1], len(rem) - 1 - db
        rem = [lead * c for c in rem]
        for i, c in enumerate(b):
            rem[shift + i] -= top * c
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two primitive polynomials: the primitive remainder
    sequence (pseudo-remainder, then divide out the content)."""
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """a / b for primitive b dividing a over Q.  By Gauss's lemma the
    quotient of an integer polynomial is then integral, so every step is an
    exact integer division; any remainder raises InvalidParamsError."""
    rem = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [0] * max(len(a) - db, 0)
    for shift in reversed(range(len(quo))):
        q, r = divmod(rem[shift + db], lead)
        if r:
            raise InvalidParamsError("exact polynomial division left a remainder")
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
    if any(rem):
        raise InvalidParamsError("exact polynomial division left a remainder")
    return quo


def poly_gcd(a: DyadicPolynomial, b: DyadicPolynomial) -> DyadicPolynomial:
    """Monic gcd over the rationals, exact: a primitive remainder sequence on
    integer multiples of a and b, made monic at output.  The gcd of two
    zero polynomials is the zero polynomial."""
    return _monic_over_q(_gcd(_integer_primitive(a), _integer_primitive(b)))


def squarefree_decomposition(p: DyadicPolynomial) -> list[tuple[int, DyadicPolynomial]]:
    """Yun's algorithm: p = c * prod q_m^m with the q_m monic, squarefree and
    pairwise coprime.  Returns the (m, q_m) pairs with deg(q_m) >= 1.

    The loop runs on a primitive integer multiple of p, with gcds from the
    primitive remainder sequence and exact integer quotients; c and d stay
    the same scalar multiple of their rational counterparts, so each gcd,
    made monic, is the rational one.  Fractions appear only in the returned
    factors."""
    if p.is_zero():
        raise InvalidParamsError("cannot decompose the zero polynomial")
    a = _integer_primitive(p)
    out: list[tuple[int, DyadicPolynomial]] = []
    da = _derivative(a)
    g = _gcd(a, _primitive(da))
    c = _divexact(a, g)
    d = _sub(_divexact(da, g), _derivative(c))
    m = 1
    while len(c) > 1:
        q = _gcd(c, _primitive(d))
        if len(q) > 1:
            out.append((m, _monic_over_q(q)))
        c = _divexact(c, q)
        d = _sub(_divexact(d, q), _derivative(c))
        m += 1
    return out


def root_set(f: Junta, s: int) -> RootSet:
    """Real parts, inside (-1, 1), of roots of d/dr E_r[f] with multiplicity
    at least s.

    Multiplicities come from the exact squarefree factor structure (Yun's
    algorithm on primitive integer polynomials, see squarefree_decomposition),
    so only the root coordinates themselves are numeric: np.roots finds them
    as companion-matrix eigenvalues of each squarefree factor.  Only real
    parts in (-1 + CLUSTER_TOL, 1 - CLUSTER_TOL) are reported, so a root at
    exactly -1 or 1, which comes back a rounding error inside the interval,
    is never taken for a critical bias.  Nearby real parts are reported once
    at the clustering tolerance; the multiplicity shown is the largest in the
    cluster.
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
    vals = [_check_bias(float(r)) for r in biases]
    if len(set(vals)) != len(vals):
        raise InvalidParamsError("biases must be pairwise distinct")
    k = f.k
    for j, r in enumerate(vals):
        p, q = r.as_integer_ratio()
        for level in range(1, s + 1):
            for bits in combinations(range(k), level):
                # the exact zero test runs on biased_coefficient_rational's
                # integer numerator; only a hit builds the Fraction
                num = _rational_numerator(f, sum(1 << b for b in bits), p, q)
                if num:
                    part = Fraction(num, q**k << k)
                    return Witness(j, tuple(f.relevant[b] for b in bits),
                                   sigma(r) ** level * float(part))
    raise NoWitnessError(
        f"no nonzero coefficient up to level {s} across {len(vals)} biases"
    )

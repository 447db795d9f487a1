import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, polyroots

from conftest import parity_core, random_suite
from juntalab import (
    ConstantFunctionError,
    DomainError,
    DyadicPolynomial,
    InvalidParamsError,
    Junta,
    NoWitnessError,
    Witness,
    biased_coefficient,
    degree,
    expectation_polynomial,
    level_weight,
    poly_derivative,
    random_junta,
    root_set,
    russo_rhs,
    squarefree_decomposition,
    theorem1_witness,
)
from juntalab.russo import CLUSTER_TOL, poly_gcd

F = Fraction


def poly(*coeffs):
    return DyadicPolynomial(tuple(F(c) for c in coeffs))


def poly_mul(a, b):
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return DyadicPolynomial(tuple(out))


class TestPolyDerivative:
    def test_first(self):
        assert poly_derivative(poly(F(-1, 2), 1, F(1, 2))).coeffs == (F(1), F(1))

    def test_third(self):
        assert poly_derivative(poly(0, 0, 0, 1), 3).coeffs == (F(6),)

    def test_order_zero(self):
        p = poly(2, 5)
        assert poly_derivative(p, 0) == p

    def test_past_degree(self):
        assert poly_derivative(poly(1, 1), 2).is_zero()

    def test_negative_order(self):
        with pytest.raises(InvalidParamsError):
            poly_derivative(poly(1), -1)


class TestRussoIdentity:
    def test_and2_first_order(self, and2):
        assert russo_rhs(and2, 1, 0.5) == pytest.approx(1.5, abs=1e-12)

    def test_and2_second_order(self, and2):
        assert russo_rhs(and2, 2, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_above_degree(self, and2):
        assert russo_rhs(and2, 3, 0.3) == 0.0

    def test_order_must_be_positive(self, and2):
        with pytest.raises(InvalidParamsError):
            russo_rhs(and2, 0, 0.3)

    @staticmethod
    def derivative(f, s, r):
        # exact rational derivative at the exact binary value of r
        return float(poly_derivative(expectation_polynomial(f), s)(F(r)))

    def test_par3_exact_at_zero(self, par3):
        assert russo_rhs(par3, 3, 0.0) == self.derivative(par3, 3, 0.0) == 6.0

    def test_constant(self):
        f = Junta(3, (), (1,))
        assert russo_rhs(f, 1, 0.5) == self.derivative(f, 1, 0.5) == 0.0

    def test_domain(self, and2):
        with pytest.raises(DomainError):
            russo_rhs(and2, 1, 1.0)

    def test_residual_grid(self):
        for f in random_suite(12, 5, 8, seed=71):
            for s in range(1, f.k + 1):
                for r in np.linspace(-0.9, 0.9, 7):
                    r = float(r)
                    assert abs(self.derivative(f, s, r) - russo_rhs(f, s, r)) <= 1e-10


class TestPolyAlgebra:
    def test_gcd(self):
        a = poly_mul(poly(-1, 1), poly(2, 1))  # (x-1)(x+2)
        b = poly_mul(poly(-1, 1), poly(0, 1))  # (x-1)x
        assert poly_gcd(a, b).coeffs == (F(-1), F(1))

    def test_gcd_coprime(self):
        assert poly_gcd(poly(-1, 1), poly(2, 1)).coeffs == (F(1),)

    def test_gcd_with_zero(self):
        assert poly_gcd(poly(0, 3), poly()) == poly(0, 1)

    def test_squarefree_decomposition(self):
        h = poly(2, -3, 0, 1)  # (x-1)^2 (x+2)
        got = squarefree_decomposition(h)
        assert got == [(1, poly(2, 1)), (2, poly(-1, 1))]

    def test_squarefree_of_squarefree(self):
        h = poly_mul(poly(-1, 1), poly(2, 1))
        assert squarefree_decomposition(h) == [(1, _monic_of(h))]

    def test_reconstruction(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            factors = []
            h = poly(1)
            for _ in range(int(rng.integers(1, 4))):
                root = F(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                mult = int(rng.integers(1, 4))
                factors.append((root, mult))
                for _ in range(mult):
                    h = poly_mul(h, poly(-root, 1))
            parts = squarefree_decomposition(h)
            rebuilt = poly(1)
            for m, q in parts:
                for _ in range(m):
                    rebuilt = poly_mul(rebuilt, q)
            assert rebuilt == _monic_of(h)

    def test_zero_rejected(self):
        with pytest.raises(InvalidParamsError):
            squarefree_decomposition(poly())


def _monic_of(p):
    lead = p.coeffs[-1]
    return DyadicPolynomial(tuple(c / lead for c in p.coeffs))


class TestRootSet:
    def test_par3(self, par3):
        rs = root_set(par3, 1)
        assert rs.level == 1
        assert len(rs.points) == 1
        pt = rs.points[0]
        assert pt.re == pytest.approx(0.0, abs=1e-8)
        assert pt.multiplicity == 2
        assert pt.is_real

    def test_par3_higher_levels(self, par3):
        assert len(root_set(par3, 2).points) == 1
        assert root_set(par3, 3).points == ()

    def test_and2_empty(self, and2):
        assert root_set(and2, 1).points == ()

    def test_par2(self):
        f = Junta(2, (0, 1), parity_core(2))
        rs = root_set(f, 1)
        assert len(rs.points) == 1
        assert rs.points[0].re == pytest.approx(0.0, abs=1e-8)
        assert rs.points[0].multiplicity == 1

    def test_maj3_empty(self, maj3):
        assert root_set(maj3, 1).points == ()

    def test_constant(self):
        with pytest.raises(ConstantFunctionError):
            root_set(Junta(2, (), (1,)), 1)

    def test_level_must_be_positive(self, par3):
        with pytest.raises(InvalidParamsError):
            root_set(par3, 0)

    def test_cardinality_bound(self):
        for f in random_suite(25, 6, 8, seed=89):
            d = degree(f)
            for s in range(1, d + 1):
                try:
                    rs = root_set(f, s)
                except ConstantFunctionError:
                    continue
                assert len(rs.points) <= (d - 1) // s

    def test_weights_vanish_at_real_roots(self):
        # a multiplicity->=s root of E' kills the level weights 1..s there
        for f in random_suite(25, 6, 8, seed=97):
            for s in (1, 2):
                try:
                    rs = root_set(f, s)
                except ConstantFunctionError:
                    continue
                for pt in rs.points:
                    if not pt.is_real:
                        continue
                    for u in range(1, s + 1):
                        assert abs(level_weight(f, u, pt.re)) <= 1e-6


def core_from_bits(bits):
    return tuple(1 if b == "1" else -1 for b in bits)


class TestBoundaryRoots:
    # derivatives with a root whose real part is exactly -1 or 1: a conjugate
    # pair with real part -1, h(1) = 0 and h(-1) = 0
    JUNTAS = [
        random_junta(7, 5, 291444680, require_nonconstant=True),
        Junta(6, (2, 3, 4, 5), core_from_bits("1100100010001000")),
        Junta(6, (0, 2, 3, 4), core_from_bits("1110110010010010")),
    ]

    def test_not_reported_as_critical_biases(self):
        mp.dps = 40
        for f in self.JUNTAS:
            h = poly_derivative(expectation_polynomial(f), 1)
            exact = []
            for _, q in squarefree_decomposition(h):
                coeffs = [mpf(c.numerator) / mpf(c.denominator) for c in reversed(q.coeffs)]
                exact.extend(float(z.real) for z in polyroots(coeffs, maxsteps=200, extraprec=60))
            assert any(abs(abs(e) - 1.0) <= 1e-12 for e in exact)
            rs = root_set(f, 1)
            for pt in rs.points:
                assert -1.0 + CLUSTER_TOL < pt.re < 1.0 - CLUSTER_TOL
                assert min(abs(pt.re - e) for e in exact) <= 1e-8
            for e in exact:
                if -1.0 + 1e-6 < e < 1.0 - 1e-6:
                    assert min((abs(pt.re - e) for pt in rs.points), default=math.inf) <= 1e-8


class TestWitness:
    def test_par3_three_biases(self, par3):
        w = theorem1_witness(par3, 1, (-0.5, 0.0, 0.5))
        assert w == Witness(0, (0,), w.value)
        assert abs(w.value) == pytest.approx(0.2165063509461096, abs=1e-12)

    def test_and2(self, and2):
        w = theorem1_witness(and2, 1, (0.0, 0.5))
        assert w.bias_index == 0
        assert w.subset == (0,)
        assert w.value == pytest.approx(0.5, abs=1e-12)

    def test_par3_single_bias_full_level(self, par3):
        w = theorem1_witness(par3, 3, (0.0,))
        assert w.subset == (0, 1, 2)
        assert w.value == pytest.approx(1.0, abs=1e-12)

    def test_coverage_precondition(self, par3):
        with pytest.raises(InvalidParamsError):
            theorem1_witness(par3, 1, (0.5,))

    def test_distinct_biases_required(self, par3):
        with pytest.raises(InvalidParamsError):
            theorem1_witness(par3, 3, (0.5, 0.5))

    def test_constant_rejected(self):
        with pytest.raises(InvalidParamsError):
            theorem1_witness(Junta(2, (), (1,)), 1, (0.0,))

    def test_bias_domain(self, par3):
        with pytest.raises(DomainError):
            theorem1_witness(par3, 3, (1.0,))

    def test_level_bound(self, par3):
        with pytest.raises(InvalidParamsError):
            theorem1_witness(par3, 0, (0.1, 0.2, 0.3))

    def test_witness_is_sound(self):
        rng = np.random.default_rng(101)
        for f in random_suite(20, 5, 8, seed=101):
            d = degree(f)
            s = int(rng.integers(1, d + 1))
            t = math.ceil(d / s)
            biases = []
            while len(biases) < t:
                r = round(float(rng.uniform(-0.95, 0.95)), 6)
                if r not in biases:
                    biases.append(r)
            w = theorem1_witness(f, s, biases)
            assert set(w.subset) <= set(f.relevant)
            assert 1 <= len(w.subset) <= s
            got = biased_coefficient(f, w.subset, biases[w.bias_index])
            assert w.value == pytest.approx(got, abs=1e-12)
            assert w.value != 0


class TestAwayFromZero:
    def test_real_root_distance_bound(self):
        # |h(t)| >= |lead| * eps^deg when t keeps distance eps from every
        # root's real part; exact rational arithmetic end to end
        rng = np.random.default_rng(103)
        for _ in range(20):
            lead = F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            h = DyadicPolynomial((lead,))
            reals = []
            for _ in range(int(rng.integers(1, 4))):
                root = F(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                reals.append(root)
                h = poly_mul(h, poly(-root, 1))
            for _ in range(int(rng.integers(0, 2))):
                a = F(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
                b = F(int(rng.integers(1, 3)), int(rng.integers(1, 4)))
                reals.extend([a, a])
                h = poly_mul(h, poly(a * a + b * b, -2 * a, 1))
            d = h.degree
            for _ in range(10):
                t = F(int(rng.integers(-50, 51)), 37)
                eps = min(abs(t - re) for re in reals)
                assert abs(h(t)) >= abs(lead) * eps**d


class TestDiagonalDerivative:
    def test_matches_partial_sums(self):
        # d^s/dt^s of g(t,...,t) equals s! times the sum of the s-fold mixed
        # partials of a multilinear g, evaluated on the diagonal
        rng = np.random.default_rng(107)
        for _ in range(12):
            n = int(rng.integers(2, 6))
            coeffs = {}
            for size in range(n + 1):
                for S in itertools.combinations(range(n), size):
                    if rng.random() < 0.5:
                        coeffs[S] = F(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
            if not coeffs:
                coeffs[(0,)] = F(1)
            diag = [F(0)] * (n + 1)
            for S, c in coeffs.items():
                diag[len(S)] += c
            phi = DyadicPolynomial(tuple(diag))
            for s in range(1, n + 1):
                lhs_poly = poly_derivative(phi, s)
                for _ in range(20):
                    t = F(int(rng.integers(-30, 31)), 29)
                    rhs = F(0)
                    for T in itertools.combinations(range(n), s):
                        for S, c in coeffs.items():
                            if set(T) <= set(S):
                                rhs += c * t ** (len(S) - s)
                    assert lhs_poly(t) == math.factorial(s) * rhs

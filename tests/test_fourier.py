import gc
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_suite
from juntalab import (
    DomainError,
    DyadicPolynomial,
    InvalidParamsError,
    Junta,
    LengthMismatchError,
    biased_coefficient,
    biased_coefficient_bruteforce,
    biased_coefficient_rational,
    biased_spectrum,
    degree,
    expectation_polynomial,
    level_weight,
    level_weight_direct,
    parseval_sum,
    random_junta,
    relevant_subsets,
    relevant_variables_bruteforce,
    sigma,
    walsh_numerators,
)

F = Fraction


class TestDyadicPolynomial:
    def test_trailing_zeros_stripped(self):
        p = DyadicPolynomial((F(1), F(0), F(0)))
        assert p.coeffs == (F(1),)
        assert p.degree == 0

    def test_zero(self):
        p = DyadicPolynomial(())
        assert p.is_zero()
        assert p.degree == -1
        assert p(F(3)) == 0

    def test_exact_eval(self):
        p = DyadicPolynomial((F(-1, 2), F(1), F(1, 2)))
        assert p(F(1, 2)) == F(1, 8)
        assert isinstance(p(F(1, 2)), Fraction)
        assert p(0.5) == pytest.approx(0.125, abs=1e-15)

    def test_as_floats(self):
        p = DyadicPolynomial((F(1, 4), F(3)))
        assert p.as_floats() == [0.25, 3.0]


class TestBiasedCoefficient:
    def test_and2_singleton(self, and2):
        got = biased_coefficient(and2, (0,), 0.5)
        assert got == pytest.approx(0.6495190528383290, abs=1e-12)

    def test_par3_singleton(self, par3):
        got = biased_coefficient(par3, (0,), 0.5)
        assert got == pytest.approx(0.2165063509461096, abs=1e-12)

    def test_empty_set_is_expectation(self, and2):
        got = biased_coefficient(and2, (), 0.5)
        poly = expectation_polynomial(and2)
        assert got == pytest.approx(float(poly(F(1, 2))), abs=1e-12)

    def test_outside_relevant_is_zero(self, and2):
        assert biased_coefficient(and2, (1,), 0.5) == 0.0
        assert biased_coefficient(and2, (0, 1), 0.3) == 0.0
        # the bias is validated whether or not S meets the relevant set
        with pytest.raises(DomainError):
            biased_coefficient(and2, (1,), 1.0)

    def test_vector_bias(self, and2):
        rv = np.zeros(5)
        rv[0], rv[2] = 0.5, -0.25
        got = biased_coefficient(and2, (0, 2), rv)
        want = biased_coefficient_bruteforce(and2, (0, 2), rv)
        assert got == pytest.approx(want, abs=1e-12)

    def test_rational_part(self, and2):
        assert biased_coefficient_rational(and2, (0,), F(1, 2)) == F(3, 4)
        assert biased_coefficient_rational(and2, (1,), F(1, 2)) == 0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(23)
        for f in random_suite(20, 6, 10, seed=23):
            rv = rng.uniform(-0.9, 0.9, size=f.n)
            for S in relevant_subsets(f):
                got = biased_coefficient(f, S, rv)
                want = biased_coefficient_bruteforce(f, S, rv)
                assert got == pytest.approx(want, abs=1e-9)

    def test_uniform_limit(self, and2):
        nums = walsh_numerators(and2.core)
        for mask, S in enumerate([(), (0,), (2,), (0, 2)]):
            want = nums[mask] / 2**and2.k
            assert biased_coefficient(and2, S, 0.0) == pytest.approx(want, abs=1e-12)


class TestBiasedSpectrum:
    def test_matches_per_subset(self):
        rng = np.random.default_rng(5)
        for f in random_suite(10, 6, 9, seed=5):
            # the superset path repeats the spectrum's float operations, so
            # the two agree exactly at scalar and at vector biases
            for r in (float(rng.uniform(-0.85, 0.85)), rng.uniform(-0.85, 0.85, size=f.n)):
                spec = biased_spectrum(f, r)
                assert spec.shape == (1 << f.k,)
                for mask in range(1 << f.k):
                    S = tuple(f.relevant[b] for b in range(f.k) if (mask >> b) & 1)
                    assert biased_coefficient(f, S, r) == spec[mask]

    def test_constant(self):
        spec = biased_spectrum(Junta(3, (), (-1,)), 0.4)
        assert spec.tolist() == [-1.0]


class TestBiasInput:
    # exception types as the engine raised them before its bias prelude was
    # cut to the k relevant coordinates
    CASES = [
        (math.nan, DomainError),
        (1.0, DomainError),
        (-1.0, DomainError),
        (F(1) - F(1, 2**60), DomainError),  # rounds to 1.0
        (np.array(1.0), DomainError),
        (np.zeros(3), LengthMismatchError),
        ("abc", ValueError),
        # text and complex input are not numbers, even where numpy parses them
        ("0.5", DomainError),
        (b"0.5", DomainError),
        (0.5 + 0j, DomainError),
        ([0.0, "0.5", 0.0, 0.0, 0.0], DomainError),
        ([F(1, 2), "0.5", 0, 0, 0], DomainError),
    ]

    @pytest.mark.parametrize("r, exc", CASES)
    def test_rejections(self, and2, r, exc):
        for S in ((0,), (1,)):  # inside and outside the relevant set
            with pytest.raises(exc):
                biased_coefficient(and2, S, r)
        with pytest.raises(exc):
            biased_spectrum(and2, r)

    @pytest.mark.parametrize("r, same", [
        (0, 0.0), (np.float64(0.3), 0.3), (np.array(0.3), 0.3), (np.array(-0.7), -0.7),
    ])
    def test_scalar_forms_agree_bit_for_bit(self, r, same):
        f = random_junta(9, 6, 5)
        want = biased_spectrum(f, same)
        assert biased_spectrum(f, r).tobytes() == want.tobytes()
        assert biased_spectrum(f, np.full(f.n, same)).tobytes() == want.tobytes()
        for mask in (0, 1, 6, 63):
            S = [f.relevant[b] for b in range(f.k) if mask >> b & 1]
            assert biased_coefficient(f, S, r) == want[mask]


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 10), seed=st.integers(0, 2**32 - 1), r=st.floats(-0.9, 0.9))
@example(k=0, seed=1, r=0.3)
@example(k=1, seed=1, r=-0.6)
def test_spectrum_matches_bruteforce(k, seed, r):
    f = random_junta(k, k, seed)
    rv = np.random.default_rng(seed).uniform(-0.9, 0.9, size=k)
    for bias in (r, rv):
        spec = biased_spectrum(f, bias)
        for mask in range(1 << k):
            S = [f.relevant[b] for b in range(k) if mask >> b & 1]
            assert spec[mask] == pytest.approx(
                biased_coefficient_bruteforce(f, S, bias), abs=1e-12
            )


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), num=st.integers(-15, 15))
@example(k=0, seed=1, num=3)
@example(k=1, seed=1, num=-7)
def test_rational_part_is_the_superset_sum(k, seed, num):
    f = random_junta(k, k, seed)
    r = F(num, 16)
    w = walsh_numerators(f.core)
    for mask in range(1 << k):
        S = [f.relevant[b] for b in range(k) if mask >> b & 1]
        want = sum(
            F(w[t], 1 << k) * r ** (t ^ mask).bit_count()
            for t in range(1 << k)
            if t & mask == mask
        )
        assert biased_coefficient_rational(f, S, r) == want
    assert expectation_polynomial(f)(r) == biased_coefficient_rational(f, (), r)


class TestParseval:
    def test_junta_route(self):
        rng = np.random.default_rng(31)
        for f in random_suite(10, 7, 11, seed=31):
            rv = rng.uniform(-0.9, 0.9, size=f.n)
            assert parseval_sum(f, rv) == pytest.approx(1.0, abs=1e-9)


class TestExpectationPolynomial:
    def test_and2(self, and2):
        assert expectation_polynomial(and2).coeffs == (F(-1, 2), F(1), F(1, 2))

    def test_par3(self, par3):
        assert expectation_polynomial(par3).coeffs == (F(0), F(0), F(0), F(1))

    def test_constant(self):
        assert expectation_polynomial(Junta(2, (), (-1,))).coeffs == (F(-1),)

    def test_keeps_no_junta_alive(self):
        # the engine's arrays live on the junta, so nothing outlives it
        f = random_junta(8, 6, 5)
        ref = weakref.ref(f)
        expectation_polynomial(f)
        biased_spectrum(f, 0.3)
        biased_coefficient(f, f.relevant[:2], -0.4)
        degree(f)
        del f
        gc.collect()
        assert ref() is None

    def test_matches_density_sum(self):
        from juntalab import assignments, density

        rng = np.random.default_rng(41)
        for f in random_suite(8, 5, 8, seed=41):
            r = float(rng.uniform(-0.9, 0.9))
            xs = assignments(f.n)
            want = math.fsum(
                density(np.full(f.n, r), x) * f.eval(tuple(int(v) for v in x)) for x in xs
            )
            assert expectation_polynomial(f)(r) == pytest.approx(want, abs=1e-10)

    def test_constancy_characterization(self):
        # nonconstant functions put exact nonzero weight above level 0
        for f in random_suite(15, 6, 8, seed=43):
            tail = expectation_polynomial(f).coeffs[1:]
            if f.constant_value() is None:
                assert any(c != 0 for c in tail)
            else:
                assert all(c == 0 for c in tail)

    def test_endpoint_values(self):
        for f in random_suite(10, 5, 7, seed=47):
            poly = expectation_polynomial(f)
            assert poly(F(1)) == f.core[-1]
            assert poly(F(-1)) == f.core[0]


class TestLevelWeight:
    def test_and2(self, and2):
        assert level_weight(and2, 1, 0.5) == pytest.approx(1.2990381056766580, abs=1e-12)

    def test_par3_top(self, par3):
        assert level_weight(par3, 3, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_above_degree(self, and2):
        assert level_weight(and2, 3, 0.3) == 0.0

    def test_level_zero_is_expectation(self, and2):
        poly = expectation_polynomial(and2)
        for r in (-0.5, 0.0, 0.7):
            assert level_weight(and2, 0, r) == pytest.approx(float(poly(r)), abs=1e-12)

    def test_negative_level(self, and2):
        with pytest.raises(InvalidParamsError):
            level_weight(and2, -1, 0.0)
        with pytest.raises(InvalidParamsError):
            level_weight_direct(and2, -1, 0.0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(53)
        for f in random_suite(12, 6, 9, seed=53):
            for _ in range(4):
                r = float(rng.uniform(-0.9, 0.9))
                for s in range(f.k + 2):
                    assert level_weight(f, s, r) == pytest.approx(
                        level_weight_direct(f, s, r), abs=1e-9
                    )

    def test_scaling_in_sigma(self, par3):
        # the parity's only mass sits at the top level: w_3 = sigma(r)**3
        for r in (0.2, -0.6):
            assert level_weight(par3, 3, r) == pytest.approx(sigma(r) ** 3, abs=1e-12)


class TestRelevanceCharacterization:
    def test_nonzero_coefficient_union(self):
        # at any fixed interior bias, a variable is relevant exactly when
        # some subset containing it carries a nonzero coefficient
        r = F(1, 3)
        for f in random_suite(20, 6, 9, seed=59):
            hit = set()
            for S in relevant_subsets(f):
                if S and biased_coefficient_rational(f, S, r) != 0:
                    hit.update(S)
            assert hit == relevant_variables_bruteforce(f)


class TestRelevantSubsets:
    def test_order(self, and2):
        got = list(relevant_subsets(and2))
        assert got == [(), (0,), (2,), (0, 2)]

    def test_max_size(self, par3):
        got = list(relevant_subsets(par3, 1))
        assert got == [(), (0,), (1,), (2,)]
        assert list(relevant_subsets(par3, 99)) == list(relevant_subsets(par3))

    def test_sizes_ascend(self):
        f = Junta(6, (1, 3, 5), (1, -1) * 4)
        sizes = [len(S) for S in relevant_subsets(f)]
        assert sizes == sorted(sizes)
        within = [S for S in relevant_subsets(f) if len(S) == 2]
        assert within == sorted(within)

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from juntalab import (
    DomainError,
    Junta,
    LengthMismatchError,
    Oracle,
    as_bias_vector,
    assignments,
    biased_coefficient_rational,
    block_rows,
    chi,
    chi_cross_coefficient,
    density,
    sample_batch,
    sigma,
    sigma_vector,
    theorem1_witness,
)

DICTATOR = Junta(2, (0,), (-1, 1))

# every place that checks a bias, each fed r beside a valid 0
BIAS_CHECKS = {
    "sigma": sigma,
    "sigma_vector": lambda r: sigma_vector(np.array([0.0, r])),
    "as_bias_vector": lambda r: as_bias_vector([0.0, r], 2),
    "sample_batch": lambda r: sample_batch(r, np.random.default_rng(0), 4, 3),
    "Oracle": lambda r: Oracle(DICTATOR, r, master_seed=0),
    "chi_cross_coefficient": lambda r: chi_cross_coefficient((0,), (), r, 0.0),
    "theorem1_witness": lambda r: theorem1_witness(DICTATOR, 1, [0.0, r]),
    "biased_coefficient_rational": lambda r: biased_coefficient_rational(DICTATOR, (0,), r),
}
BIAS_CASES = [
    (check, r) for check in BIAS_CHECKS if check != "biased_coefficient_rational"
    for r in (math.nan, -1.0, 1.0, 1.5)
] + [("biased_coefficient_rational", r) for r in (Fraction(3, 2), Fraction(-1))]


@pytest.mark.parametrize("check, r", BIAS_CASES)
def test_every_bias_check_rejects_values_outside_the_domain(check, r):
    with pytest.raises(DomainError):
        BIAS_CHECKS[check](r)


@pytest.mark.parametrize("r", ["0.5", b"0.5", "abc", 0.5 + 0j, np.complex128(0.5)])
def test_bias_vector_rejects_text_and_complex(r):
    for bias in (r, [0.0, r]):
        with pytest.raises(DomainError):
            as_bias_vector(bias, 2)
    with pytest.raises(DomainError):
        chi_cross_coefficient((0,), (), [0.0, r], 0.0)


def test_rational_bias_is_compared_exactly():
    # this bias rounds to 1.0 as a float, but lies inside (-1, 1)
    r = 1 - Fraction(1, 2**60)
    assert float(r) == 1.0
    assert biased_coefficient_rational(DICTATOR, (0,), r) == 1


class TestSigma:
    def test_values(self):
        assert sigma(0.0) == 1.0
        assert sigma(0.5) == pytest.approx(0.8660254037844386, abs=1e-15)
        assert sigma(-0.5) == sigma(0.5)

    def test_domain(self):
        for r in (-1.0, 1.0, 1.5, -2):
            with pytest.raises(DomainError):
                sigma(r)

    def test_vector_form(self):
        rv = np.array([0.0, 0.5, -0.9])
        sv = sigma_vector(rv)
        assert sv == pytest.approx([sigma(r) for r in rv], abs=1e-15)
        with pytest.raises(DomainError):
            sigma_vector(np.array([0.0, 1.0]))


class TestBiasVector:
    def test_scalar_broadcast(self):
        rv = as_bias_vector(0.3, 4)
        assert rv.shape == (4,)
        assert np.all(rv == 0.3)

    def test_sequence_passthrough(self):
        rv = as_bias_vector([0.1, -0.2], 2)
        assert rv.tolist() == [0.1, -0.2]

    def test_shape_checked(self):
        with pytest.raises(LengthMismatchError):
            as_bias_vector([0.1, 0.2], 3)

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            as_bias_vector([0.1, 1.0], 2)


class TestDensity:
    def test_uniform(self):
        for n in (1, 3, 6):
            x = (1,) * n
            assert density(0.0, x) == pytest.approx(0.5**n, abs=1e-15)

    def test_biased_values(self):
        assert density(0.5, (1,)) == pytest.approx(0.75, abs=1e-15)
        assert density(0.5, (1, 1)) == pytest.approx(0.5625, abs=1e-15)
        assert density([0.5, -0.5], (1, 1)) == pytest.approx(0.75 * 0.25, abs=1e-15)

    def test_normalization_and_mean(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5, 8):
            rv = rng.uniform(-0.9, 0.9, size=n)
            xs = assignments(n)
            masses = np.array([density(rv, x) for x in xs])
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)
            for i in range(n):
                mean = float((masses * xs[:, i]).sum())
                assert mean == pytest.approx(rv[i], abs=1e-12)


class TestSampling:
    def test_batch_shape_and_values(self):
        xs = sample_batch(0.2, np.random.default_rng(1), 100, 3)
        assert xs.shape == (100, 3)
        assert set(np.unique(xs)) <= {-1, 1}

    def test_empirical_mean(self):
        rng = np.random.default_rng(33)
        for r in (0.6, -0.4, 0.0, 0.25):
            xs = sample_batch(r, rng, 200_000, 4)
            err = np.abs(xs.mean(axis=0) - r)
            assert np.all(err < 0.01)

    def test_extreme_bias(self):
        xs = sample_batch(0.999, np.random.default_rng(2), 1000, n=2)
        assert xs.mean() > 0.99

    def test_bias_domain(self):
        for r in (-1.0, 1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                sample_batch(r, np.random.default_rng(0), 10, 3)

    @pytest.mark.parametrize("n", [1, 5, 8, 9, 100])
    def test_stream_matches_per_entry_reference(self, n):
        # the seeded streams that record, replay and the release gate rely on,
        # read entry by entry: block by block, one raw byte per entry, then one
        # uniform per tie, with every comparison made in exact rationals.  At
        # r = 0, +-0.5 and 0.75 (a = 128, 192, 64, 224), 256 p is an integer:
        # every tie gives -1 and its uniform is drawn but not read.  At
        # r = -0.999 every +1 comes from a tie.
        rows = block_rows(n)
        m = 2 * rows + rows // 3 + 1
        for r in (0.0, 0.5, -0.5, 0.75, 0.25, -0.4, -0.9, 0.999, -0.999):
            rng = np.random.default_rng(21)
            got = sample_batch(r, rng, m, n)
            want, state = _reference_stream(r, 21, m, n)
            assert got.dtype == np.int8
            assert np.array_equal(got, want)
            # the ragged last block is drawn whole, its dropped ties included
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_split_oracle_draw_equals_one_draw(self, r):
        # at a tie-free bias, three calls, the last two served first from the
        # carried tail (sample_batch's head), read the one stream a single
        # call reads
        f = Junta(9, (2, 7), (1, -1, -1, 1))
        rows = block_rows(f.n)
        split = Oracle(f, r, master_seed=4, oracle_id=1)
        parts = [split.draw_batch(m).xs for m in (rows // 3, rows, rows)]
        whole = Oracle(f, r, master_seed=4, oracle_id=1)
        assert np.array_equal(np.concatenate(parts), whole.draw_batch(split.draws).xs)
        assert split._rng.bit_generator.state == whole._rng.bit_generator.state

    def test_working_memory(self):
        # beyond its int8 output the sampler holds one block of bytes and
        # the masks it compares them into
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            xs = sample_batch(0.3, rng, 200_000, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - xs.nbytes <= 1 * 2**20


def _reference_stream(r, seed, m, n):
    """Signs the sampler's contract gives, one Python comparison per entry,
    and the generator state after the last block."""
    rng = np.random.default_rng(seed)
    target = 256 * (Fraction(1.0 + r) / 2)
    tie = math.floor(target)
    signs = []
    while len(signs) < m * n:
        words = rng.bit_generator.random_raw(block_rows(n) * n // 8)
        block = b"".join(int(w).to_bytes(8, "little") for w in words)
        signs_block = [1 if byte < target else -1 for byte in block]
        for i, byte in enumerate(block):
            if byte == tie:
                signs_block[i] = 1 if byte + Fraction(rng.random()) < target else -1
        signs.extend(signs_block)
    return np.array(signs[: m * n], dtype=np.int8).reshape(m, n), rng.bit_generator.state


class TestChi:
    def test_empty_set(self):
        assert chi((), (1, -1), 0.0) == 1.0

    def test_single_coordinate(self):
        got = chi((0,), (1,), 0.5)
        assert got == pytest.approx(0.5773502691896258, abs=1e-15)

    def test_uniform_pair(self):
        assert chi((0, 1), (1, -1), 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_orthonormality(self):
        # sum_x density * chi_S * chi_T = [S == T], exactly the defining
        # property of the standardized characters
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            rv = rng.uniform(-0.8, 0.8, size=n)
            xs = assignments(n)
            masses = np.array([density(rv, x) for x in xs])
            subsets = [
                tuple(S)
                for size in range(n + 1)
                for S in itertools.combinations(range(n), size)
            ]
            for S in subsets:
                for T in subsets:
                    val = math.fsum(
                        m * chi(S, x, rv) * chi(T, x, rv) for m, x in zip(masses, xs)
                    )
                    want = 1.0 if S == T else 0.0
                    assert val == pytest.approx(want, abs=1e-10)

    def test_character_mean_is_zero(self):
        rv = [0.3, -0.6, 0.1]
        xs = assignments(3)
        masses = np.array([density(rv, x) for x in xs])
        val = math.fsum(m * chi((0, 2), x, rv) for m, x in zip(masses, xs))
        assert val == pytest.approx(0.0, abs=1e-12)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import parity_core, random_suite
from juntalab import (
    InvalidIndexError,
    InvalidParamsError,
    Junta,
    LengthMismatchError,
    SizeLimitError,
    assignments,
    degree,
    random_junta,
    relevant_variables_bruteforce,
    walsh_numerators,
)


class TestConstruction:
    def test_basic(self, and2):
        assert and2.n == 5
        assert and2.k == 2
        assert and2.relevant == (0, 2)
        assert and2.core == (-1, -1, -1, 1)

    def test_relevant_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            Junta(2, (0, 3), (1, 1, 1, 1))

    def test_relevant_must_increase(self):
        with pytest.raises(InvalidParamsError):
            Junta(4, (2, 0), (1, 1, 1, 1))
        with pytest.raises(InvalidParamsError):
            Junta(4, (1, 1), (1, 1, 1, 1))

    def test_negative_n(self):
        with pytest.raises(InvalidParamsError):
            Junta(-1, (), (1,))

    def test_non_integer_n(self):
        with pytest.raises(InvalidParamsError):
            Junta(3.0, (), (1,))

    def test_core_length(self):
        with pytest.raises(LengthMismatchError):
            Junta(3, (0, 1), (1, 1, 1))

    def test_core_entries_are_signs(self):
        with pytest.raises(InvalidParamsError):
            Junta(1, (0,), (1, 0))

    def test_core_cap(self):
        rel = tuple(range(21))
        with pytest.raises(InvalidParamsError):
            Junta(25, rel, (1,) * (1 << 21))

    def test_float_signs_normalized(self):
        f = Junta(1, (0,), (-1.0, 1.0))
        assert f.core == (-1, 1)
        assert all(isinstance(v, int) for v in f.core)


class TestEval:
    def test_and2_examples(self, and2):
        assert and2.eval((1, -1, 1, -1, 1)) == 1
        assert and2.eval((1, -1, -1, -1, 1)) == -1

    def test_par3_example(self, par3):
        assert par3.eval((1, 1, -1)) == -1

    def test_length_checked(self, and2):
        with pytest.raises(LengthMismatchError):
            and2.eval((1, 1, 1))

    def test_entries_checked(self, and2):
        with pytest.raises(InvalidParamsError):
            and2.eval((1, 0, 1, 1, 1))

    def test_batch_shape_checked(self, and2):
        with pytest.raises(LengthMismatchError):
            and2.eval_batch(np.ones((3, 4), dtype=np.int8))
        with pytest.raises(LengthMismatchError):
            and2.eval_batch(np.ones(5, dtype=np.int8))

    def test_batch_constant(self):
        f = Junta(3, (), (-1,))
        out = f.eval_batch(np.ones((7, 3), dtype=np.int8))
        assert out.tolist() == [-1] * 7

    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scalar(self, fseed, xseed):
        rng = np.random.default_rng(fseed)
        k = int(rng.integers(0, 5))
        n = int(rng.integers(max(k, 1), 9))
        f = random_junta(n, k, fseed)
        xs = 2 * np.random.default_rng(xseed).integers(0, 2, size=(16, n)) - 1
        out = f.eval_batch(xs)
        for row, val in zip(xs, out):
            assert f.eval(tuple(int(v) for v in row)) == val


class TestJson:
    def test_round_trip(self, and2, par3):
        for f in (and2, par3, Junta(4, (), (1,))):
            assert Junta.from_json(f.to_json()) == f

    def test_dict_shape(self, and2):
        d = and2.to_json_dict()
        assert d == {"n": 5, "relevant": [0, 2], "core": "0001"}

    def test_missing_field(self):
        with pytest.raises(InvalidParamsError):
            Junta.from_json_dict({"n": 3, "core": "01"})

    def test_bad_core_string(self):
        with pytest.raises(InvalidParamsError):
            Junta.from_json_dict({"n": 1, "relevant": [0], "core": "0x"})

    def test_malformed_text(self):
        with pytest.raises(InvalidParamsError):
            Junta.from_json("{not json")

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, 6))
        f = random_junta(int(rng.integers(max(k, 1), 10)), k, seed)
        assert Junta.from_json(f.to_json()) == f


class TestRandomJunta:
    def test_deterministic(self):
        assert random_junta(8, 3, 42) == random_junta(8, 3, 42)

    def test_full_support(self):
        f = random_junta(4, 4, 0)
        assert f.relevant == (0, 1, 2, 3)

    def test_k_bounds(self):
        with pytest.raises(InvalidParamsError):
            random_junta(3, 4, 0)
        with pytest.raises(InvalidParamsError):
            random_junta(3, -1, 0)
        with pytest.raises(InvalidParamsError):
            random_junta(30, 21, 0)

    def test_nonconstant_needs_variables(self):
        with pytest.raises(InvalidParamsError):
            random_junta(5, 0, 0, require_nonconstant=True)

    def test_nonconstant_holds(self):
        for seed in range(25):
            f = random_junta(6, 2, seed, require_nonconstant=True)
            assert f.constant_value() is None


class TestRelevantBruteforce:
    def test_examples(self, and2, par3):
        assert relevant_variables_bruteforce(and2) == {0, 2}
        assert relevant_variables_bruteforce(par3) == {0, 1, 2}
        assert relevant_variables_bruteforce(Junta(3, (), (1,))) == frozenset()

    def test_declared_superset_can_shrink(self):
        # the declared set may list a variable the core ignores
        f = Junta(4, (0, 1), (1, -1, 1, -1))
        assert relevant_variables_bruteforce(f) == {0}

    def test_flip_soundness(self):
        for f in random_suite(15, 6, 9, seed=202):
            rel = relevant_variables_bruteforce(f)
            assert rel <= set(f.relevant)
            for var in rel:
                b = f.relevant.index(var)
                hits = [
                    idx
                    for idx in range(1 << f.k)
                    if not idx & (1 << b) and f.core[idx] != f.core[idx | (1 << b)]
                ]
                assert hits


class TestWalshAndDegree:
    def test_and2_numerators(self, and2):
        assert walsh_numerators(and2.core) == [-2, 2, 2, 2]

    def test_par3_numerators(self, par3):
        w = walsh_numerators(par3.core)
        assert w[7] == 8
        assert all(v == 0 for m, v in enumerate(w) if m != 7)

    def test_power_of_two_required(self):
        with pytest.raises(LengthMismatchError):
            walsh_numerators((1, 1, 1))
        with pytest.raises(LengthMismatchError):
            walsh_numerators(())

    def test_overflow_rejected(self):
        assert walsh_numerators([2**61, 2**61]) == [2**62, 0]
        for core in ([2**62, 2**62], [-(2**62), 1], [2**64, 1]):
            with pytest.raises(InvalidParamsError):
                walsh_numerators(core)

    def test_parseval_exact(self):
        for f in random_suite(10, 6, 9, seed=17):
            assert sum(w * w for w in walsh_numerators(f.core)) == 4**f.k

    def test_degree(self, and2, par3):
        assert degree(and2) == 2
        assert degree(par3) == 3
        assert degree(Junta(5, (), (-1,))) == 0

    def test_degree_bounded_by_true_relevant(self):
        for f in random_suite(15, 6, 8, seed=303):
            assert degree(f) <= len(relevant_variables_bruteforce(f))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
@example(k=0, seed=1)
@example(k=1, seed=1)
def test_walsh_is_the_direct_character_sum(k, seed):
    f = random_junta(k, k, seed)
    xs = assignments(k).astype(np.int64)
    # chars[mask, x] = prod_{b in mask} x_b
    chars = np.ones((1 << k, 1 << k), dtype=np.int64)
    for b in range(k):
        chars[[m for m in range(1 << k) if m >> b & 1]] *= xs[:, b]
    want = (chars @ np.asarray(f.core, dtype=np.int64)).tolist()
    got = walsh_numerators(f.core)
    assert got == want
    assert all(type(v) is int for v in got)
    assert degree(f) == max((m.bit_count() for m, w in enumerate(want) if w), default=0)


class TestAssignments:
    def test_shape_and_convention(self):
        xs = assignments(3)
        assert xs.shape == (8, 3)
        assert xs[0].tolist() == [-1, -1, -1]
        assert xs[5].tolist() == [1, -1, 1]

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            assignments(15)

    def test_read_only(self):
        xs = assignments(2)
        with pytest.raises(ValueError):
            xs[0, 0] = 1

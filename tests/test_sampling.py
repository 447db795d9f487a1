import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fsum_coefficient, parity_core, random_suite
from juntalab import sampling
from juntalab import (
    BudgetExhaustedError,
    DomainError,
    EmptySampleError,
    ExampleBatch,
    InvalidParamsError,
    Junta,
    Oracle,
    ReplayOracle,
    SizeLimitError,
    assignments,
    bias_sample_size,
    biased_coefficient,
    chi,
    chi_cross_coefficient,
    chi_l2_distance,
    density,
    dump_examples_csv,
    estimate_bias,
    estimate_coefficient,
    estimate_coefficient_unknown_bias,
    estimate_level_batch,
    hoeffding_sample_size,
    load_examples_csv,
    random_junta,
    sigma,
    unknown_bias_accuracy,
)


class TestSampleSizes:
    def test_hoeffding_values(self):
        assert hoeffding_sample_size(1, 1.0, 0.1, 0.01) == 4239
        assert hoeffding_sample_size(0, 1.0, 0.1, 0.01) == 1060
        assert hoeffding_sample_size(0, 1.0, 1.0, 0.999) == 2

    def test_hoeffding_grows_with_subset(self):
        sig = sigma(0.5)
        ms = [hoeffding_sample_size(s, sig, 0.1, 0.05) for s in range(4)]
        assert ms == sorted(ms)
        assert ms[3] > ms[0]

    def test_hoeffding_domain(self):
        with pytest.raises(DomainError):
            hoeffding_sample_size(-1, 1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            hoeffding_sample_size(1, 0.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            hoeffding_sample_size(1, 1.1, 0.1, 0.1)
        with pytest.raises(DomainError):
            hoeffding_sample_size(1, 1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            hoeffding_sample_size(1, 1.0, 0.1, 1.0)

    def test_bias_values(self):
        assert bias_sample_size(0.05, 0.05) == 14023
        assert bias_sample_size(1.0, 0.05) == 36

    def test_bias_domain(self):
        with pytest.raises(DomainError):
            bias_sample_size(0.0, 0.1)
        with pytest.raises(DomainError):
            bias_sample_size(1.5, 0.1)
        with pytest.raises(DomainError):
            bias_sample_size(0.1, 4.0)

    def test_unknown_bias_accuracy(self):
        assert unknown_bias_accuracy(1.0, 0) == 0.5
        assert unknown_bias_accuracy(0.5, 1) == pytest.approx(0.125, abs=1e-15)
        with pytest.raises(DomainError):
            unknown_bias_accuracy(0.0, 1)
        with pytest.raises(DomainError):
            unknown_bias_accuracy(0.5, -1)


class TestExampleBatch:
    def test_shape_checked(self):
        with pytest.raises(InvalidParamsError):
            ExampleBatch(np.ones((2, 3)), np.ones(3))
        with pytest.raises(InvalidParamsError):
            ExampleBatch(np.ones(3), np.ones(3))

    def test_concat(self):
        a = ExampleBatch(np.ones((2, 3), dtype=np.int8), np.ones(2, dtype=np.int8))
        b = ExampleBatch(-np.ones((1, 3), dtype=np.int8), -np.ones(1, dtype=np.int8))
        c = ExampleBatch.concat([a, b])
        assert c.m == 3
        assert c.labels.tolist() == [1, 1, -1]


class TestOracle:
    def test_deterministic_stream(self, par3_wide):
        a = Oracle(par3_wide, 0.3, master_seed=7, oracle_id=1).draw_batch(50)
        b = Oracle(par3_wide, 0.3, master_seed=7, oracle_id=1).draw_batch(50)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.labels, b.labels)

    def test_ids_give_distinct_streams(self, par3_wide):
        a = Oracle(par3_wide, 0.3, master_seed=7, oracle_id=0).draw_batch(50)
        b = Oracle(par3_wide, 0.3, master_seed=7, oracle_id=1).draw_batch(50)
        assert not np.array_equal(a.xs, b.xs)

    def test_labels_match_function(self, and2):
        batch = Oracle(and2, -0.4, master_seed=3).draw_batch(200)
        assert np.array_equal(batch.labels, and2.eval_batch(batch.xs))

    def test_draw_counting(self, and2):
        oracle = Oracle(and2, 0.0, master_seed=1)
        oracle.draw_batch(10)
        oracle.draw_batch(1)
        assert oracle.draws == 11

    def test_bias_domain(self, and2):
        with pytest.raises(DomainError):
            Oracle(and2, 1.0, master_seed=0)

    def test_negative_batch(self, and2):
        with pytest.raises(InvalidParamsError):
            Oracle(and2, 0.0, master_seed=0).draw_batch(-1)

    def test_split_draws_equal_one_draw(self, and2):
        # --dump re-draws each oracle's stream in one call, so the rows must
        # not depend on how the run split them; the sizes cross the
        # sampler's 65 536-row chunk
        sizes = [0, 3, 65_534, 0, 7, 65_540, 1]
        oracle = Oracle(and2, 0.35, master_seed=21, oracle_id=2)
        split = ExampleBatch.concat([oracle.draw_batch(m) for m in sizes])
        whole = Oracle(and2, 0.35, master_seed=21, oracle_id=2).draw_batch(oracle.draws)
        assert oracle.draws == sum(sizes)
        assert np.array_equal(split.xs, whole.xs)
        assert np.array_equal(split.labels, whole.labels)


class TestRecordReplay:
    def test_round_trip(self, and2):
        stream = Oracle(and2, 0.25, master_seed=11).draw_batch(11)
        replay = ReplayOracle(stream, 0.25)
        assert replay.n == 5
        a = replay.draw_batch(7)
        assert np.array_equal(a.xs, stream.xs[:7])
        assert np.array_equal(a.labels, stream.labels[:7])
        replay.draw_batch(3)
        replay.draw_batch(1)
        assert replay.draws == 11
        with pytest.raises(BudgetExhaustedError):
            replay.draw_batch(1)

    def test_negative_batch_size(self, and2):
        stream = Oracle(and2, 0.25, master_seed=11).draw_batch(8)
        replay = ReplayOracle(stream, 0.25)
        replay.draw_batch(4)
        with pytest.raises(InvalidParamsError):
            replay.draw_batch(-3)
        assert replay.draws == 4
        nxt = replay.draw_batch(4)
        assert np.array_equal(nxt.xs, stream.xs[4:])
        assert np.array_equal(nxt.labels, stream.labels[4:])

    def test_csv_round_trip(self, tmp_path, par3):
        batch = Oracle(par3, 0.1, master_seed=5).draw_batch(20)
        path = tmp_path / "stream.csv"
        dump_examples_csv(batch, path)
        back = load_examples_csv(path)
        assert np.array_equal(back.xs, batch.xs)
        assert np.array_equal(back.labels, batch.labels)

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ["", " \n\t\n\n"]:
            path.write_text(text)
            with pytest.raises(EmptySampleError):
                load_examples_csv(path)

    def test_csv_needs_a_label_column(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("1\n-1\n")
        with pytest.raises(InvalidParamsError):
            load_examples_csv(path)

    @pytest.mark.parametrize("text", ["1,0,5\n", "1,-1,1\n300,1,-1\n", "1,0.5,1\n", "1,-1\n1\n"])
    def test_csv_entries_must_be_signs(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidParamsError):
            load_examples_csv(path)

    @pytest.mark.parametrize("text", ["# comment\n", "1,-1,1\n# comment\n-1,1,1\n"])
    def test_csv_has_no_comment_lines(self, tmp_path, text):
        path = tmp_path / "commented.csv"
        path.write_text(text)
        with pytest.raises(InvalidParamsError, match="not a table of -1/1 entries"):
            load_examples_csv(path)


class TestEstimateCoefficient:
    def test_empty_set_is_label_mean(self, and2):
        batch = Oracle(and2, 0.2, master_seed=9).draw_batch(500)
        got = estimate_coefficient(batch, (), 0.2)
        assert got == pytest.approx(float(batch.labels.mean()), abs=1e-12)

    def test_no_examples(self):
        empty = ExampleBatch(np.empty((0, 3), dtype=np.int8), np.empty(0, dtype=np.int8))
        with pytest.raises(EmptySampleError):
            estimate_coefficient(empty, (0,), 0.0)

    def test_index_range(self, and2):
        batch = Oracle(and2, 0.0, master_seed=0).draw_batch(10)
        with pytest.raises(DomainError):
            estimate_coefficient(batch, (5,), 0.0)

    def test_par3_band(self, par3_wide):
        hits = 0
        for seed in range(20):
            batch = Oracle(par3_wide, 0.5, master_seed=seed).draw_batch(50_000)
            got = estimate_coefficient(batch, (2,), 0.5)
            if abs(got - 0.2165063509461096) <= 0.02:
                hits += 1
        assert hits >= 18

    def test_unbiased(self, par3_wide):
        true = biased_coefficient(par3_wide, (2, 5), 0.3)
        vals = []
        for seed in range(100):
            batch = Oracle(par3_wide, 0.3, master_seed=seed).draw_batch(2000)
            vals.append(estimate_coefficient(batch, (2, 5), 0.3))
        vals = np.array(vals)
        sem = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - true) <= 3 * sem + 1e-9


class TestEstimateLevelBatch:
    def test_entry_counts(self, par3_wide):
        batch = Oracle(par3_wide, 0.2, master_seed=2).draw_batch(100)
        assert len(estimate_level_batch(batch, 1, 0.2)) == 10
        small = ExampleBatch(batch.xs[:, :5], batch.labels)
        assert len(estimate_level_batch(small, 2, 0.2)) == 15

    def test_bit_for_bit_with_single_calls(self, and2):
        batch = Oracle(and2, -0.35, master_seed=13).draw_batch(333)
        table = estimate_level_batch(batch, 2, -0.35)
        for S, val in table.items():
            assert val == estimate_coefficient(batch, S, -0.35)

    def test_keys_in_scan_order(self):
        batch = Oracle(Junta(5, (1, 3), (-1, 1, 1, -1)), 0.2, master_seed=4).draw_batch(50)
        keys = list(estimate_level_batch(batch, 3, 0.2))
        want = [S for size in (1, 2, 3) for S in itertools.combinations(range(5), size)]
        assert keys == want

    def test_smax_validated(self, and2):
        batch = Oracle(and2, 0.0, master_seed=0).draw_batch(5)
        with pytest.raises(InvalidParamsError):
            estimate_level_batch(batch, 0, 0.0)


@st.composite
def _engine_cases(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        rv = np.full(n, draw(st.floats(-0.95, 0.95)))
    else:
        rv = rng.uniform(-0.95, 0.95, size=n)
    xs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    size = draw(st.integers(0, min(3, n)))
    S = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
    return ExampleBatch(xs, labels), rv, S, draw(st.integers(1, 97))


class TestMomentEngine:
    @given(_engine_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_fsum_reference(self, case):
        # a small block budget makes m span several blocks, most ending short
        batch, rv, S, chunk_elems = case
        with mock.patch.object(sampling, "_CHUNK_ELEMS", chunk_elems):
            got = estimate_coefficient(batch, S, rv)
            table = estimate_level_batch(batch, 3, rv)
        assert abs(got - fsum_coefficient(batch, S, rv)) <= 1e-12
        for T, val in table.items():
            assert abs(val - fsum_coefficient(batch, T, rv)) <= 1e-12
            assert val == estimate_coefficient(batch, T, rv)

    def test_default_blocks_with_ragged_tail(self, and2):
        # level 2 on 5 columns takes blocks of _CHUNK_ELEMS // (1 + 5 + 5) rows
        m = 3 * (sampling._CHUNK_ELEMS // 11) + 17
        batch = Oracle(and2, 0.3, master_seed=8).draw_batch(m)
        rv = np.full(5, 0.3)
        for S, val in estimate_level_batch(batch, 2, 0.3).items():
            assert abs(val - fsum_coefficient(batch, S, rv)) <= 1e-12


class TestEstimateBias:
    def test_all_plus(self):
        batch = ExampleBatch(np.ones((4, 3), dtype=np.int8), np.ones(4, dtype=np.int8))
        assert estimate_bias(batch) == 1.0

    def test_balanced(self):
        xs = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        batch = ExampleBatch(xs, np.ones(2, dtype=np.int8))
        assert estimate_bias(batch) == 0.0

    def test_pooled_accuracy(self, par3_wide):
        hits = 0
        for seed in range(20):
            batch = Oracle(par3_wide, 0.3, master_seed=seed).draw_batch(14_023)
            if abs(estimate_bias(batch) - 0.3) <= 0.05:
                hits += 1
        assert hits >= 19

    def test_empty(self):
        empty = ExampleBatch(np.empty((0, 2), dtype=np.int8), np.empty(0, dtype=np.int8))
        with pytest.raises(EmptySampleError):
            estimate_bias(empty)


class TestUnknownBias:
    def test_par3_band(self, par3_wide):
        hits = 0
        for seed in range(10):
            oracle = Oracle(par3_wide, 0.5, master_seed=seed)
            got = estimate_coefficient_unknown_bias(oracle, (2,), 0.4, 0.05, 0.1)
            if abs(got - 0.2165063509461096) <= 0.05:
                hits += 1
        assert hits >= 9

    def test_constant_function(self):
        f = Junta(6, (), (1,))
        for seed in range(5):
            oracle = Oracle(f, 0.2, master_seed=seed)
            got = estimate_coefficient_unknown_bias(oracle, (3,), 0.5, 0.1, 0.2)
            assert abs(got) <= 0.1

    def test_broken_promise_still_returns(self, par3_wide):
        # |r| > 1 - alpha voids the accuracy contract but must not crash
        oracle = Oracle(par3_wide, 0.7, master_seed=1)
        got = estimate_coefficient_unknown_bias(oracle, (2,), 0.5, 0.1, 0.2)
        assert math.isfinite(got)

    def test_domain(self, par3_wide):
        oracle = Oracle(par3_wide, 0.1, master_seed=0)
        with pytest.raises(DomainError):
            estimate_coefficient_unknown_bias(oracle, (2,), 1.0, 0.1, 0.1)
        with pytest.raises(DomainError):
            estimate_coefficient_unknown_bias(oracle, (2,), 0.5, 0.0, 0.1)


class TestHoeffdingCalibration:
    def test_failure_rate_within_delta(self):
        eps, delta = 0.1, 0.05
        rng = np.random.default_rng(1234)
        failures = 0
        trials = 60
        for trial in range(trials):
            f = random_junta(8, int(rng.integers(1, 5)), int(rng.integers(0, 2**31)))
            r = float(rng.uniform(-0.6, 0.6))
            S = tuple(
                int(i)
                for i in rng.choice(f.relevant, size=min(2, f.k), replace=False)
            )
            m = hoeffding_sample_size(len(S), sigma(r), eps, delta)
            batch = Oracle(f, r, master_seed=trial).draw_batch(m)
            if abs(estimate_coefficient(batch, S, r) - biased_coefficient(f, S, r)) > eps:
                failures += 1
        assert failures <= max(3, math.ceil(delta * trials))


class TestChiGeometry:
    def test_cross_values(self):
        assert chi_cross_coefficient((0,), (1,), 0.0, 0.1) == 0.0
        got = chi_cross_coefficient((0,), (), 0.0, 0.1)
        assert got == pytest.approx(-0.1005037815259212, abs=1e-12)
        got = chi_cross_coefficient((0,), (0,), 0.0, 0.1)
        assert got == pytest.approx(1.0050378152592121, abs=1e-12)

    def test_cross_matches_bruteforce(self):
        rng = np.random.default_rng(19)
        for n in (3, 5, 8):
            rv = rng.uniform(-0.8, 0.8, size=n)
            rpv = rng.uniform(-0.8, 0.8, size=n)
            xs = assignments(n)
            masses = np.array([density(rv, x) for x in xs])
            S = tuple(sorted(int(i) for i in rng.choice(n, size=min(3, n), replace=False)))
            for size in range(len(S) + 1):
                for T in itertools.combinations(S, size):
                    want = math.fsum(
                        m * chi(S, x, rpv) * chi(T, x, rv) for m, x in zip(masses, xs)
                    )
                    got = chi_cross_coefficient(S, T, rv, rpv)
                    assert got == pytest.approx(want, abs=1e-10)
            outside = tuple(sorted(set(range(n)) - set(S)))[:1]
            if outside:
                assert chi_cross_coefficient(S, outside, rv, rpv) == 0.0

    def test_cross_expansion_pointwise(self):
        # chi_S at the shifted bias decomposes over sub-characters at the base
        rng = np.random.default_rng(29)
        n, S = 5, (0, 2, 4)
        rv = rng.uniform(-0.7, 0.7, size=n)
        rpv = rng.uniform(-0.7, 0.7, size=n)
        for x in assignments(n)[:: 3]:
            total = 0.0
            for size in range(len(S) + 1):
                for T in itertools.combinations(S, size):
                    total += chi_cross_coefficient(S, T, rv, rpv) * chi(T, x, rv)
            assert total == pytest.approx(chi(S, x, rpv), abs=1e-10)

    def test_l2_example(self):
        got = chi_l2_distance((0,), 0.0, 0.1, 1)
        assert got == pytest.approx(0.1006300, abs=1e-7)
        assert got <= 0.2010075565518424

    def test_l2_degenerate(self):
        assert chi_l2_distance((0, 1), 0.4, 0.4, 3) == pytest.approx(0.0, abs=1e-12)
        assert chi_l2_distance((), 0.1, 0.5, 2) == pytest.approx(0.0, abs=1e-12)

    def test_l2_size_cap(self):
        with pytest.raises(SizeLimitError):
            chi_l2_distance((0,), 0.0, 0.1, 15)

    def test_l2_bound_grid(self):
        # exact distance never exceeds (|S|+1) * gamma / (sqrt(alpha) * sigma'^|S|)
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            size = int(rng.integers(0, min(4, n) + 1))
            S = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
            r = float(rng.uniform(-0.8, 0.8))
            rp = float(np.clip(r + rng.uniform(-0.2, 0.2), -0.95, 0.95))
            alpha = 1.0 - max(abs(r), abs(rp))
            gamma = abs(r - rp)
            bound = (len(S) + 1) * gamma / (math.sqrt(alpha) * sigma(rp) ** len(S))
            assert chi_l2_distance(S, r, rp, n) <= bound + 1e-12


class TestScalarFacts:
    def test_power_difference(self):
        grid = np.linspace(0.0, 1.0, 41)
        for s in range(1, 7):
            for a in grid:
                for b in grid:
                    assert abs(a**s - b**s) <= s * abs(a - b) + 1e-12

    def test_sigma_difference(self):
        grid = np.linspace(-0.9, 0.9, 37)
        for r in grid:
            for rp in grid:
                assert abs(sigma(rp) - sigma(r)) <= abs(rp - r) / sigma(r) + 1e-12

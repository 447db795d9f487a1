import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import engine_levels, fsum_coefficient, parity_core, random_suite
from juntalab import moments, sampling
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
    block_rows,
    biased_coefficient,
    chi,
    chi_cross_coefficient,
    chi_l2_distance,
    density,
    dump_examples_csv,
    estimate_bias,
    estimate_coefficient,
    estimate_coefficient_unknown_bias,
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

    @pytest.mark.parametrize(
        "size",
        [
            lambda: hoeffding_sample_size(2000, 1.0, 0.1, 0.1),  # 2^card_s overflows
            lambda: hoeffding_sample_size(1, 1.0, 1e-300, 0.1),  # 1 / epsilon^2 overflows
            lambda: hoeffding_sample_size(500, 0.3, 1.0, 0.5),  # sigma^1000 underflows to 0
            lambda: bias_sample_size(1e-160, 0.1),  # the count is inf
            lambda: bias_sample_size(1e-300, 0.1),  # gamma^2 underflows to 0
        ],
    )
    def test_sizes_past_float_range(self, size):
        with pytest.raises(InvalidParamsError):
            size()

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
        # not depend on how the run split them.  On 5 columns the sampler's
        # block is block_rows(5) = 13 104 rows; the sizes hit it exactly and
        # by one off, end inside a block and go on from its carried tail, and
        # cross several blocks at once
        rows = block_rows(5)
        sizes = [0, 3, 65_534, 0, 7, 65_540, 1, rows, rows - 1, 2, rows + 1, 5, rows - 7, 0]
        oracle = Oracle(and2, 0.35, master_seed=21, oracle_id=2)
        parts = []
        for m in sizes:
            state = oracle._rng.bit_generator.state
            parts.append(oracle.draw_batch(m))
            if m == 0:
                assert oracle._rng.bit_generator.state == state
        whole = Oracle(and2, 0.35, master_seed=21, oracle_id=2).draw_batch(oracle.draws)
        assert oracle.draws == sum(sizes)
        assert np.array_equal(np.concatenate([b.xs for b in parts]), whole.xs)
        assert np.array_equal(np.concatenate([b.labels for b in parts]), whole.labels)


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

    @pytest.mark.parametrize(
        "case", ["empty", "one_row", "many_blocks", "fortran", "strided", "int64", "wide_rows"]
    )
    def test_csv_bytes_match_savetxt(self, tmp_path, case):
        signs = np.random.default_rng(4).choice(np.array([-1, 1], dtype=np.int8), size=(60, 9))
        xs, labels, chunk = {
            "empty": (signs[:0, :5], signs[:0, 5], sampling._CHUNK_ELEMS),
            "one_row": (signs[:1, :5], signs[:1, 5], sampling._CHUNK_ELEMS),
            # 10 entries per row, so 6 rows per block and a short last block
            "many_blocks": (signs[:57, :9], signs[:57, 0], 64),
            "fortran": (np.asfortranarray(signs[:, :6]), signs[:, 8], sampling._CHUNK_ELEMS),
            "strided": (signs[::3, ::2], signs[1::3, 7], sampling._CHUNK_ELEMS),
            "int64": (signs[:, :4].astype(np.int64), signs[:, 4].astype(np.int64), 64),
            # every row is wider than a block, so each block is one row
            "wide_rows": (signs[:5, :8], signs[:5, 8], 4),
        }[case]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        with mock.patch.object(moments, "_CHUNK_ELEMS", chunk):
            dump_examples_csv(ExampleBatch(xs, labels), got)
        np.savetxt(want, np.column_stack([xs, labels]), fmt="%d", delimiter=",")
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("bad", [0, 2, -128])
    def test_csv_writer_rejects_non_signs(self, tmp_path, bad):
        xs = np.ones((4, 3), dtype=np.int8)
        xs[2, 1] = bad
        with pytest.raises(InvalidParamsError):
            dump_examples_csv(ExampleBatch(xs, np.ones(4, dtype=np.int8)), tmp_path / "s.csv")

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

    # bad bytes in the first read block, and past the block the blank-file
    # scan reads
    @pytest.mark.parametrize("data", [b"1,-1,1\n\xff\xfe,1\n", b"1,-1,1\n" * 20_000 + b"1,\xff,1\n"])
    def test_csv_must_be_utf8(self, tmp_path, data):
        path = tmp_path / "binary.csv"
        path.write_bytes(data)
        with pytest.raises(InvalidParamsError):
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

    # a repeated index is not a character; 2.7 and True are not column indices
    @pytest.mark.parametrize("S", [(1, 1), (0, 3, 0), (2.7,), (2.0,), (True,), (np.True_, 2)])
    def test_indices_must_be_distinct_integers(self, and2, S):
        batch = Oracle(and2, 0.0, master_seed=0).draw_batch(10)
        with pytest.raises(DomainError):
            estimate_coefficient(batch, S, 0.0)

    def test_numpy_integer_indices(self, and2):
        batch = Oracle(and2, 0.3, master_seed=0).draw_batch(200)
        got = estimate_coefficient(batch, np.array([3, 1]), 0.3)
        assert got == estimate_coefficient(batch, (1, 3), 0.3)

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


@st.composite
def _engine_cases(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    r = draw(st.floats(-0.95, 0.95))
    xs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n))
    labels = rng.choice(np.array([-1, 1], dtype=np.int8), size=m)
    size = draw(st.integers(0, min(3, n)))
    S = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
    return ExampleBatch(xs, labels), r, S, draw(st.integers(1, 97))


class TestMomentEngine:
    @given(_engine_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_fsum_reference(self, case):
        # a small block budget makes m span several blocks, most ending short
        batch, r, S, chunk_elems = case
        rv = np.full(batch.n, r)
        with mock.patch.object(moments, "_CHUNK_ELEMS", chunk_elems):
            got = estimate_coefficient(batch, S, r)
            table = engine_levels(batch, min(3, batch.n), r)
        assert abs(got - fsum_coefficient(batch, S, rv)) <= 1e-12
        for T, val in table.items():
            assert abs(val - fsum_coefficient(batch, T, rv)) <= 1e-12
            assert val == estimate_coefficient(batch, T, r)

    @given(_engine_cases(), st.lists(st.integers(0, 120), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_running_counts_equal_one_batch(self, case, cuts):
        # rows added in pieces are counted once each: the moments and every
        # estimate's bits match one pass over the whole batch
        batch, r, _, chunk_elems = case
        s = min(3, batch.n)
        bounds = sorted({0, batch.m, *(min(c, batch.m) for c in cuts)})
        with mock.patch.object(moments, "_CHUNK_ELEMS", chunk_elems):
            whole = moments._Moments(moments._level_index(batch.n, s))
            whole.add(batch.xs, batch.labels)
            parts = moments._Moments(moments._level_index(batch.n, s))
            for a, b in zip(bounds, bounds[1:]):
                parts.add(batch.xs[a:b], batch.labels[a:b])
        assert parts.m == whole.m == batch.m
        for j in range(s + 1):
            assert np.array_equal(parts.moments(s)[j], whole.moments(s)[j])
            assert np.array_equal(parts.estimates(j, r), whole.estimates(j, r))

    @given(
        _engine_cases(),
        st.sampled_from(["random", "constant rows", "constant labels"]),
        st.floats(0.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_level_bound_never_hides_a_hit(self, case, shape, slack):
        # a level is skipped when its bound cannot clear threshold + slack;
        # then no estimate of the level may pass the full test.  Constant
        # rows make the bound tight at negative biases
        batch, r, _, _ = case
        xs, labels = batch.xs.copy(), batch.labels.copy()
        if shape == "constant rows":
            xs[:] = xs[0]
            labels[:] = labels[0]
        elif shape == "constant labels":
            labels[:] = 1
        engine = moments._Moments(moments._level_index(batch.n, min(3, batch.n)))
        engine.add(xs, labels)
        for j in range(1, engine.index.s + 1):
            values, bound = engine.estimates(j, r), engine.bound(j, r)
            assert np.abs(values).max() <= bound
            threshold = bound - slack
            if threshold > 0 and bound <= threshold + slack:
                assert not np.any(np.abs(values) - slack > threshold)

    @given(
        _engine_cases(),
        st.sampled_from(["random", "constant rows"]),
        st.integers(1, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_covers_rows_not_yet_read(self, case, shape, unread):
        # a scan passes a checkpoint unread when the bound with its unread
        # rows cannot clear; every estimate after those rows, whatever they
        # hold, must then lie within that bound.  Repeating the first row
        # pushes every moment the same way, the worst case
        batch, r, _, _ = case
        rng = np.random.default_rng(unread)
        rest = rng.choice(np.array([-1, 1], dtype=np.int8), size=(unread, batch.n + 1))
        if shape == "constant rows":
            rest[:] = np.append(batch.xs[0], batch.labels[0])
        engine = moments._Moments(moments._level_index(batch.n, min(3, batch.n)))
        engine.add(batch.xs, batch.labels)
        bounds = [engine.bound(j, r, unread) for j in range(1, engine.index.s + 1)]
        engine.add(rest[:, :-1], rest[:, -1])
        for j, bound in enumerate(bounds, start=1):
            assert np.abs(engine.estimates(j, r)).max() <= bound

    def test_bit_for_bit_with_single_calls(self, and2):
        # every level estimate the scan reads is the per-subset call's value
        batch = Oracle(and2, -0.35, master_seed=13).draw_batch(333)
        table = engine_levels(batch, 2, -0.35)
        assert len(table) == 15
        for S, val in table.items():
            assert val == estimate_coefficient(batch, S, -0.35)

    def test_default_blocks_with_ragged_tail(self, and2):
        # level 2 on 5 columns takes default blocks of 43 648 rows, so these
        # 71 510 rows end in a short block whose last word is partly padding
        m = 3 * (moments._CHUNK_ELEMS // 11) + 17
        batch = Oracle(and2, 0.3, master_seed=8).draw_batch(m)
        rv = np.full(5, 0.3)
        for S, val in engine_levels(batch, 2, 0.3).items():
            assert abs(val - fsum_coefficient(batch, S, rv)) <= 1e-12

    def test_golden_bits(self):
        # values recorded from the colex-layout engine; 5000 rows at n = 12
        # span several row blocks at s = 3.  The rows are drawn here, from a
        # fixed uniform stream, so the test pins the estimator whatever the
        # sampler's stream
        f = Junta(12, (1, 4, 9), parity_core(3))
        u = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(0,))).random((5000, 12))
        xs = np.where(u < (1 - 0.35) / 2, 1, -1).astype(np.int8)
        batch = ExampleBatch(xs, f.eval_batch(xs))
        table = engine_levels(batch, 3, -0.35)
        assert len(table) == 298
        digest = hashlib.sha256(",".join(v.hex() for v in table.values()).encode())
        assert digest.hexdigest() == (
            "9790c6e9f48fd53dea10c806a01859977f60bec7636813418bd95bab153986f4"
        )
        assert table[(1,)].hex() == "0x1.1c211cd9b06bcp-3"
        assert table[(4, 9)].hex() == "-0x1.284237ae0fb33p-2"
        assert table[(1, 4, 9)].hex() == "0x1.ab18ac0de2351p-1"
        got = estimate_coefficient(batch, (1, 4, 9), -0.35)
        assert got.hex() == "0x1.ab18ac0de2351p-1"

    def test_wide_subsets_stay_compact(self):
        # level j holds C(c, j) moments, so the 10 columns of S need 2^10 of
        # them and a full scan of 8 columns 2^8, not c^|S| (10^10 and 8^8)
        rv = np.full(12, 0.3)
        batch = Oracle(Junta(12, (1, 4, 9), parity_core(3)), 0.3, master_seed=3).draw_batch(3000)
        narrow = ExampleBatch(batch.xs[:, :8], batch.labels)
        S = (0, 1, 2, 3, 4, 5, 7, 8, 9, 11)
        tracemalloc.start()
        try:
            got = estimate_coefficient(batch, S, 0.3)
            table = engine_levels(narrow, 8, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert abs(got - fsum_coefficient(batch, S, rv)) <= 1e-12
        assert len(table) == 255
        for T, val in table.items():
            assert abs(val - fsum_coefficient(narrow, T, rv)) <= 1e-12

    @pytest.mark.parametrize("n, s, m", [(40, 2, 20_000), (12, 3, 5_000)])
    def test_working_memory_independent_of_rows(self, n, s, m):
        f = Junta(n, (1, 4, 9), parity_core(3))
        peaks = []
        for size in (m, 10 * m):
            batch = Oracle(f, 0.3, master_seed=5).draw_batch(size)
            tracemalloc.start()
            try:
                engine_levels(batch, s, 0.3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    def test_blocks_cover_the_top_table(self):
        # at n = 40, s = 4 the top level's 91 390 vectors exceed the block
        # budget, so each block is one word of 64 rows and 100 rows take
        # two, each adding to every level's array
        batch = Oracle(Junta(40, (1, 4, 9), parity_core(3)), 0.3, master_seed=6).draw_batch(100)
        engine = moments._Moments(moments._level_index(40, 4))
        engine.add(batch.xs, batch.labels)
        counted = engine.moments(4)
        assert [len(level) for level in counted] == [math.comb(40, j) for j in range(5)]
        assert all(level.dtype == np.int64 for level in counted)
        keys = [
            (j, i, T)
            for j in range(5)
            for i, T in enumerate(itertools.combinations(range(40), j))
        ]
        y = batch.labels.astype(np.int64)
        for pick in np.random.default_rng(0).choice(len(keys), 300, replace=False):
            j, i, T = keys[pick]
            cols = np.prod(batch.xs[:, list(T)], axis=1, dtype=np.int64)
            assert counted[j][i] == int((y * cols).sum()), T

    @pytest.mark.parametrize("c", range(13))
    def test_lexicographic_ranks(self, c):
        index = moments._LevelIndex(c, min(5, c))
        for j in range(min(5, c) + 1):
            combos = list(itertools.combinations(range(c), j))
            want = np.array(combos, dtype=np.intp).reshape(len(combos), j)
            assert np.array_equal(index.subsets[j], want)
            rank = moments._lex_rank(want, moments._binomials(c, j))
            assert np.array_equal(rank, np.arange(len(combos)))
            if j:
                # the tail ranks the popcount pass gathers by
                tails = moments._lex_rank(want[:, 1:], index.binom)
                assert np.array_equal(index.tail[j - 1], tails)
                assert np.array_equal(index.lead[j - 1], want[:, 0])

    def test_wide_level1_blocks_stay_within_budget(self):
        # the level-1 top table is one row of c moments, so 4 000 columns
        # still take blocks of _CHUNK_ELEMS // 4 001 rows, not c rows
        batch = Oracle(Junta(4000, (1, 4, 9), parity_core(3)), 0.3, master_seed=5).draw_batch(4000)
        tracemalloc.start()
        try:
            engine_levels(batch, 1, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


# entries that are not signs: the column of 0s that the popcount engine read
# as +1, and entries 2 and 3 with a label of 5
NOT_SIGN_BATCHES = {
    "zero_column": ([[0, 1], [0, -1], [0, 1], [0, 1]], [1, 1, -1, 1]),
    "two_three_five": ([[2, 3]], [5]),
}


@pytest.mark.parametrize(
    "estimate",
    [
        lambda b: estimate_coefficient(b, (0,), 0.0),
        estimate_bias,
    ],
    ids=["coefficient", "bias"],
)
@pytest.mark.parametrize("batch", NOT_SIGN_BATCHES)
def test_estimators_reject_entries_other_than_signs(estimate, batch):
    with pytest.raises(InvalidParamsError):
        estimate(ExampleBatch(*map(np.array, NOT_SIGN_BATCHES[batch])))


def test_estimators_check_only_what_they_read():
    batch = ExampleBatch(np.array([[1, 0], [-1, 0]]), np.array([1, 1]))
    assert estimate_coefficient(batch, (0,), 0.0) == 0.0
    with pytest.raises(InvalidParamsError):
        estimate_coefficient(batch, (1,), 0.0)
    # the bias estimate reads no labels
    assert estimate_bias(ExampleBatch(np.array([[1, -1]]), np.array([0]))) == 0.0


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

    def test_draw_and_error_bound_read_one_sample_size(self, par3_wide):
        # eps is the Hoeffding radius of the rows the bias phase draws, so a
        # change to that count must move both
        with mock.patch.object(sampling, "_bias_rows", return_value=100):
            oracle = Oracle(par3_wide, 0.1, master_seed=0)
            sampling._clamped_bias_estimate(oracle, 0.5, 1, 0.1)
            eps = sampling._bias_error(0.5, 1, 0.1, par3_wide.n)
        assert oracle.draws == 100
        assert eps == math.sqrt(2.0 * math.log(2.0 / 0.1) / (100 * par3_wide.n))


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

import itertools
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import engine_levels, fsum_coefficient, parity_core
from juntalab import (
    BudgetExhaustedError,
    ExampleBatch,
    InvalidIndexError,
    InvalidParamsError,
    Junta,
    MAX_CORE_VARS,
    LearnReport,
    LearnStatus,
    LearnerParams,
    LengthMismatchError,
    NoCoefficientFoundError,
    Oracle,
    RestrictedOracle,
    check_constant,
    constancy_sample_size,
    default_attempt_budget,
    default_threshold,
    find_one_relevant,
    hoeffding_sample_size,
    learn_junta,
    assignments,
    random_junta,
    sigma,
)
from juntalab import learner
from juntalab.learner import _bias_slack


def params_for(k, s, alpha, gamma=0.2, delta=0.1, **kw):
    return LearnerParams(k=k, s=s, alpha=alpha, gamma=gamma, delta=delta, **kw)


@pytest.fixture
def and2_50():
    return Junta(50, (7, 23), (-1, -1, -1, 1))


@pytest.fixture
def par3_30():
    return Junta(30, (4, 17, 26), parity_core(3))


class TestParams:
    def test_valid(self):
        params_for(3, 1, 0.5).validate(3, require_coverage=True)

    def test_field_ranges(self):
        bad = [
            params_for(-1, 1, 0.5),
            params_for(MAX_CORE_VARS + 1, 1, 0.5),
            params_for(2, 0, 0.5),
            params_for(2, 1, 0.0),
            params_for(2, 1, 1.5),
            params_for(2, 1, 0.5, gamma=0.0),
            params_for(2, 1, 0.5, delta=1.0),
            params_for(2, 1, 0.5, threshold=0.0),
            params_for(2, 1, 0.5, samples_per_coeff=0),
        ]
        for p in bad:
            with pytest.raises(InvalidParamsError):
                p.validate(3, require_coverage=False)

    def test_needs_an_oracle(self):
        with pytest.raises(InvalidParamsError):
            params_for(2, 1, 0.5).validate(0, require_coverage=False)

    def test_coverage_only_when_asked(self):
        p = params_for(3, 1, 0.5)
        p.validate(1, require_coverage=False)
        with pytest.raises(InvalidParamsError):
            p.validate(1, require_coverage=True)

    def test_alpha_one_allowed(self):
        params_for(2, 1, 1.0, gamma=1.0).validate(2, require_coverage=True)

    def test_whole_run_sizes_must_be_countable(self):
        # (2 / alpha)^k overflows a float; only a whole run computes it up front
        p = params_for(2, 1, 1e-300)
        p.validate(2, require_coverage=False)
        with pytest.raises(InvalidParamsError):
            p.validate(2, require_coverage=True)


class TestDefaultThreshold:
    def test_frozen_point(self):
        p = params_for(3, 1, 0.5, gamma=0.4)
        got = default_threshold(p)
        assert got == pytest.approx(math.sqrt(0.5) * 0.1**3 / 2, rel=1e-12)
        assert round(got, 7) == 0.0003536

    def test_degenerate_point(self):
        p = params_for(1, 1, 1.0, gamma=4.0)
        assert default_threshold(p) == 0.5


class TestCheckConstant:
    def test_constant_target(self):
        p = params_for(0, 1, 0.5, delta=0.05)
        for seed in range(5):
            oracle = Oracle(Junta(8, (), (-1,)), 0.1, master_seed=seed)
            assert check_constant([oracle], p) == ((-1,), None)

    def test_and2_declared_nonconstant(self, and2):
        p = params_for(2, 1, 0.5, delta=0.05)
        hits = sum(
            check_constant([Oracle(and2, 0.0, master_seed=seed)], p) == (None, 0)
            for seed in range(20)
        )
        assert hits >= 19

    def test_par3_declared_nonconstant(self, par3):
        p = params_for(3, 1, 0.5, delta=0.05)
        hits = sum(
            check_constant([Oracle(par3, 0.0, master_seed=seed)], p) == (None, 0)
            for seed in range(20)
        )
        assert hits >= 19

    def test_pattern_index_past_n(self, and2):
        oracle = Oracle(and2, 0.0, master_seed=0)
        with pytest.raises(InvalidIndexError):
            check_constant([oracle], params_for(2, 1, 0.5), (7,))
        assert oracle.draws == 0

    def test_negative_pattern_index(self, and2):
        oracle = Oracle(and2, 0.0, master_seed=0)
        with pytest.raises(InvalidIndexError):
            check_constant([oracle], params_for(2, 1, 0.5), (-1,))
        assert oracle.draws == 0

    def test_repeated_pattern_index(self):
        # patterns 1 and 2 of V = (0, 0) can never occur
        oracle = Oracle(Junta(5, (), (-1,)), 0.0, master_seed=0)
        with pytest.raises(InvalidParamsError):
            check_constant([oracle], params_for(2, 1, 0.5), (0, 0))
        assert oracle.draws == 0

    def test_sample_size(self):
        assert constancy_sample_size(params_for(2, 1, 0.5, delta=0.05)) == 60
        assert constancy_sample_size(params_for(0, 1, 1.0, delta=0.5)) == 2
        with pytest.raises(InvalidParamsError):
            constancy_sample_size(params_for(2, 1, 1e-300))

    @pytest.mark.parametrize("bad", [1.0, 1.5, True, np.True_, "1"])
    def test_pattern_indices_must_be_integers(self, and2, bad):
        p = params_for(2, 1, 0.5)
        assert check_constant([Oracle(and2, 0.0, master_seed=0)], p, (np.int64(0),)) == (None, 1)
        oracle = Oracle(and2, 0.0, master_seed=0)
        with pytest.raises(InvalidIndexError):
            check_constant([oracle], p, (bad,))
        assert oracle.draws == 0


class TestConstancyPass:
    def test_relevant_set_gives_the_core(self):
        p = params_for(3, 1, 0.5)
        for seed in range(6):
            f = random_junta(12, 3, seed)
            oracle = Oracle(f, 0.2 * (seed % 3 - 1), master_seed=seed)
            assert check_constant([oracle], p, f.relevant) == (f.core, None)

    def test_lowest_mixed_pattern(self, and2, par3):
        p = params_for(3, 1, 0.5)
        # AND2 is -1 wherever x0 = -1 (pattern 0) and x2 wherever x0 = +1
        assert check_constant([Oracle(and2, 0.0, master_seed=1)], p, (0,)) == (None, 1)
        # every pattern of two parity variables shows both labels
        assert check_constant([Oracle(par3, 0.0, master_seed=1)], p, (0, 1)) == (None, 0)

    def test_mixed_pattern_is_nonconstant_on_the_target(self):
        p = params_for(4, 1, 0.5)
        mixed = 0
        for seed in range(12):
            f = random_junta(10, 4, seed, require_nonconstant=True)
            # two relevant variables and one the target ignores
            spare = next(i for i in range(10) if i not in f.relevant)
            V = tuple(sorted(f.relevant[1:3] + (spare,)))
            table, bits = check_constant([Oracle(f, -0.3, master_seed=seed)], p, V)
            if table is not None:
                continue
            mixed += 1
            rho = {v: 1 if (bits >> b) & 1 else -1 for b, v in enumerate(V)}
            seen = {
                f.core[idx]
                for idx in range(1 << f.k)
                if all(
                    ((idx >> b) & 1) == (rho[v] > 0)
                    for b, v in enumerate(f.relevant)
                    if v in rho
                )
            }
            assert seen == {-1, 1}
        assert mixed >= 6

    def test_starving_pattern_exhausts_the_raw_cap(self, and2):
        # x0 = x2 = -1 has probability 2.5e-5 at bias 0.99: one raw cap of
        # draws holds far fewer than m rows of it
        p = params_for(2, 1, 0.5)
        oracle = Oracle(Junta(5, (0, 2), (-1, -1, -1, -1)), 0.99, master_seed=0)
        with pytest.raises(BudgetExhaustedError):
            check_constant([oracle], p, (0, 2))
        m = constancy_sample_size(p)
        assert oracle.draws == m * default_attempt_budget(p.alpha, 2, m, p.k, p.delta)


class TestRestrictedDraw:
    def test_budget_formula(self):
        for alpha, size, m, k, delta in [(0.5, 2, 100, 3, 0.1), (1.0, 0, 1, 0, 0.5)]:
            want = math.ceil((2.0 / alpha) ** size * math.log(m * max(k, 1) * 2**k / delta)) * 4
            assert default_attempt_budget(alpha, size, m, k, delta) == want

    def test_budget_past_float_range(self):
        with pytest.raises(InvalidParamsError):
            default_attempt_budget(1e-300, 2, 100, 2, 0.1)
        with pytest.raises(InvalidParamsError):
            default_attempt_budget(0.5, 1, 10**400, 2, 0.1)


class TestRestrictedOracle:
    def test_rows_match_rho(self, and2):
        p = params_for(2, 1, 0.5)
        view = RestrictedOracle(Oracle(and2, 0.3, master_seed=5), {0: -1, 3: 1}, p)
        batch = view.draw_batch(200)
        assert batch.m == 200
        assert np.all(batch.xs[:, 0] == -1)
        assert np.all(batch.xs[:, 3] == 1)
        assert np.array_equal(batch.labels, and2.eval_batch(batch.xs))

    def test_is_exact_subsequence_of_raw_stream(self, and2):
        p = params_for(2, 1, 0.5)
        # the default call budget, then one that caps every raw chunk at 5 rows
        for budget in (learner._CALL_ELEMS, 5 * and2.n):
            inner = Oracle(and2, 0.3, master_seed=5)
            view = RestrictedOracle(inner, {0: -1, 3: 1}, p)
            with mock.patch.object(learner, "_CALL_ELEMS", budget), \
                    mock.patch.object(inner, "draw_batch", wraps=inner.draw_batch) as raw_calls:
                got = view.draw_batch(150)
            assert max(call.args[0] for call in raw_calls.call_args_list) <= budget // and2.n
            spent = inner.draws

            twin = Oracle(and2, 0.3, master_seed=5)
            raw = twin.draw_batch(spent)
            keep = (raw.xs[:, 0] == -1) & (raw.xs[:, 3] == 1)
            assert np.array_equal(got.xs, raw.xs[keep][:150])
            assert np.array_equal(got.labels, raw.labels[keep][:150])

    def test_split_draws_equal_one_draw(self, and2):
        # rows accepted past one call's size are served first by the next,
        # whether or not the call budget caps the raw chunks
        p = params_for(2, 1, 0.5)
        whole = RestrictedOracle(Oracle(and2, 0.3, master_seed=5), {0: -1, 3: 1}, p)
        want = whole.draw_batch(300)
        for budget in (learner._CALL_ELEMS, 5 * and2.n):
            split = RestrictedOracle(Oracle(and2, 0.3, master_seed=5), {0: -1, 3: 1}, p)
            with mock.patch.object(learner, "_CALL_ELEMS", budget):
                parts = [split.draw_batch(size) for size in (7, 50, 1, 0, 150, 92)]
            assert np.array_equal(np.concatenate([b.xs for b in parts]), want.xs)
            assert np.array_equal(np.concatenate([b.labels for b in parts]), want.labels)

    def test_draws_count_raw_attempts(self, and2):
        p = params_for(2, 1, 0.5)
        view = RestrictedOracle(Oracle(and2, 0.0, master_seed=7), {1: 1}, p)
        batch = view.draw_batch(50)
        assert batch.m == 50
        assert view.draws > 50

    def test_empty_rho_is_passthrough(self, and2):
        p = params_for(2, 1, 0.5)
        view = RestrictedOracle(Oracle(and2, 0.0, master_seed=2), {}, p)
        twin = Oracle(and2, 0.0, master_seed=2)
        assert np.array_equal(view.draw_batch(20).xs, twin.draw_batch(20).xs)
        assert view.draws == 20

    def test_empty_and_negative_batches(self, and2):
        p = params_for(2, 1, 0.5)
        view = RestrictedOracle(Oracle(and2, 0.0, master_seed=0), {0: 1}, p)
        batch = view.draw_batch(0)
        assert (batch.m, batch.n, view.draws) == (0, 5, 0)
        with pytest.raises(InvalidParamsError):
            view.draw_batch(-3)
        assert view.draws == 0

    def test_budget_exhaustion(self):
        # claiming alpha=1 keeps the per-draw budget small while the true
        # acceptance rate is ~1e-10, so the cap must trip
        f = Junta(12, (0,), (-1, 1))
        p = params_for(3, 1, 1.0)
        rho = {i: 1 for i in range(10)}
        view = RestrictedOracle(Oracle(f, -0.8, master_seed=0), rho, p)
        with pytest.raises(BudgetExhaustedError):
            view.draw_batch(5)

    def test_rho_validation(self, and2):
        p = params_for(2, 1, 0.5)
        oracle = Oracle(and2, 0.0, master_seed=0)
        with pytest.raises(InvalidIndexError):
            RestrictedOracle(oracle, {9: 1}, p)
        with pytest.raises(InvalidParamsError):
            RestrictedOracle(oracle, {0: 2}, p)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.True_, "1"])
    def test_rho_indices_must_be_integers(self, and2, bad):
        p = params_for(2, 1, 0.5)
        oracle = Oracle(and2, 0.0, master_seed=0)
        rho = RestrictedOracle(oracle, {np.int64(1): 1.0}, p).rho
        assert rho == {1: 1} and all(type(v) is int for v in [*rho, *rho.values()])
        with pytest.raises(InvalidIndexError):
            RestrictedOracle(oracle, {bad: 1}, p)


def test_passes_hold_a_bounded_batch_at_any_width():
    # at n = 2 000 the first rejection chunk for 2 000 rows at |rho| = 4, and
    # the first constancy chunk at |V| = 4, k = 5, come to tens of thousands
    # of rows; each oracle call asks for at most _CALL_ELEMS entries, so a
    # pass holds its accepted rows and about one call's batch
    f = Junta(2000, (1, 4, 9), parity_core(3))
    p = params_for(5, 1, 0.5)
    view = RestrictedOracle(Oracle(f, 0.0, master_seed=1), {i: 1 for i in range(10, 14)}, p)
    probe = Oracle(f, 0.0, master_seed=1)
    for run in (lambda: view.draw_batch(2000), lambda: check_constant([probe], p, range(20, 24))):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * learner._CALL_ELEMS, peak


class TestFindOneRelevant:
    def test_par3_three_oracles(self, par3_30):
        p = params_for(3, 1, 0.5, samples_per_coeff=50_000, threshold=0.05)
        hits = 0
        for seed in range(20):
            oracles = [
                Oracle(par3_30, r, master_seed=seed, oracle_id=j)
                for j, r in enumerate((-0.5, 0.0, 0.5))
            ]
            idx = find_one_relevant(oracles, p)
            if idx in (4, 17, 26):
                hits += 1
        assert hits >= 18

    def test_uniform_oracle_sees_nothing(self, par3):
        # every level-1 coefficient of a 3-parity vanishes at bias 0
        p = params_for(3, 1, 0.5, samples_per_coeff=8_000, threshold=0.05)
        with pytest.raises(NoCoefficientFoundError):
            find_one_relevant([Oracle(par3, 0.0, master_seed=1)], p)

    def test_and2_sound(self, and2_50):
        p = params_for(2, 1, 0.7, samples_per_coeff=20_000, threshold=0.05)
        returned = []
        for seed in range(20):
            oracles = [
                Oracle(and2_50, r, master_seed=seed, oracle_id=j)
                for j, r in enumerate((-0.3, 0.3))
            ]
            returned.append(find_one_relevant(oracles, p))
        assert all(idx in (7, 23) for idx in returned)
        assert len(returned) == 20

    def test_exclude(self, par3):
        p = params_for(3, 1, 0.5, samples_per_coeff=20_000, threshold=0.05)
        oracles = [Oracle(par3, 0.5, master_seed=4)]
        idx = find_one_relevant(oracles, p, exclude=frozenset({0}))
        assert idx in (1, 2)

    def test_exclude_everything(self, par3):
        p = params_for(3, 1, 0.5, samples_per_coeff=100, threshold=0.05)
        with pytest.raises(InvalidParamsError):
            find_one_relevant(
                [Oracle(par3, 0.5, master_seed=0)], p, exclude=frozenset({0, 1, 2})
            )

    @pytest.mark.parametrize("bad", [-1, 5, 100])
    def test_excluded_index_outside_range(self, par3, bad):
        # -1 must not silently exclude column n - 1
        p = params_for(3, 1, 0.5, samples_per_coeff=100, threshold=0.05)
        with pytest.raises(InvalidIndexError):
            find_one_relevant([Oracle(par3, 0.5, master_seed=0)], p, exclude=frozenset({0, bad}))

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, np.True_, "1"])
    def test_excluded_indices_must_be_integers(self, par3, bad):
        p = params_for(3, 1, 0.5, samples_per_coeff=2000, threshold=0.05)
        oracle = Oracle(par3, 0.5, master_seed=0)
        assert find_one_relevant([oracle], p, exclude=frozenset({np.int64(0)})) in (1, 2)
        with pytest.raises(InvalidIndexError):
            find_one_relevant([oracle], p, exclude=frozenset({bad}))

    @pytest.mark.parametrize("known", [[0.3], [0.3, -0.3, 0.0], []])
    def test_one_known_bias_per_oracle(self, par3, known):
        p = params_for(3, 1, 0.5, samples_per_coeff=100, threshold=0.05)
        oracles = [Oracle(par3, r, master_seed=0, oracle_id=j) for j, r in enumerate((0.3, -0.3))]
        with pytest.raises(LengthMismatchError):
            find_one_relevant(oracles, p, known_biases=known)
        assert [o.draws for o in oracles] == [0, 0]

    @pytest.mark.parametrize("exclude", [frozenset(), frozenset({1}), frozenset({4, 7})])
    def test_first_hit_matches_brute_scan(self, exclude):
        # oracle 0 sees nothing below level 3; at bias 0.5 every level-2
        # coefficient inside {1, 4, 6} is 0.375 and every level-1 one is
        # 0.2165.  At threshold 0.3 no radius below the 4 000-row cap is
        # small enough, so the hit comes from the fixed-size rule at the
        # cap; at threshold 0.1 a checkpoint below the 20 000-row cap
        # certifies it
        f = Junta(8, (1, 4, 6), parity_core(3))
        for threshold, cap, certified in [(0.3, 4_000, False), (0.1, 20_000, True)]:
            p = params_for(3, 2, 0.5, samples_per_coeff=cap, threshold=threshold)
            oracles = [Oracle(f, r, master_seed=5, oracle_id=j) for j, r in enumerate((0.0, 0.5))]
            got = find_one_relevant(oracles, p, exclude=exclude)
            streams = [
                Oracle(f, o.bias, master_seed=5, oracle_id=j).draw_batch(cap)
                for j, o in enumerate(oracles)
            ]
            want, drawn = self._brute_anytime_scan(streams, (0.0, 0.5), p, exclude)
            assert got == want[0]
            assert [o.draws for o in oracles] == drawn
            assert (max(drawn) < cap) == certified

    @staticmethod
    def _brute_anytime_scan(streams, biases, p, exclude):
        """The anytime rule from fsum estimates on each checkpoint prefix:
        checkpoint j holds min(512 * 2^j, cap) rows, runs at every oracle in
        order before checkpoint j + 1, and tests levels 1..s, then
        lexicographic order.  Returns the first subset that clears and the
        rows each oracle read."""
        t, n, cap = len(streams), streams[0].n, p.samples_per_coeff
        drawn = [0] * t
        for j in itertools.count():
            m = min(512 * 2**j, cap)
            delta_j = p.delta / (t * n**p.s) / 2 ** (j + 1)
            for o, (stream, r) in enumerate(zip(streams, biases)):
                if drawn[o] == cap:
                    continue
                drawn[o] = m
                batch = ExampleBatch(stream.xs[:m], stream.labels[:m])
                B = (1 + abs(r)) / math.sqrt(1 - r * r)
                for size in range(1, p.s + 1):
                    slack = 0.0 if m == cap else B**size * math.sqrt(2 * math.log(2 / delta_j) / m)
                    for S in itertools.combinations(range(n), size):
                        value = fsum_coefficient(batch, S, np.full(n, r))
                        assert abs(abs(value) - slack - p.threshold) > 1e-9
                        if abs(value) - slack > p.threshold and exclude.isdisjoint(S):
                            return S, drawn
            if all(d == cap for d in drawn):
                raise AssertionError("the brute scan found nothing")

    def test_no_certified_hit_gives_the_fixed_size_decision(self, par3_wide):
        # the level-1 coefficients at bias +-0.5 are +-0.2165, just below the
        # threshold 0.23, and the zero ones at bias 0 are further below, so
        # no checkpoint certifies: every scan reaches the 6 000-row cap, and
        # its answer is the fixed-size scan's over each oracle's first 6 000
        # rows, in oracle order
        p = params_for(3, 1, 0.5, samples_per_coeff=6_000, threshold=0.23)
        outcomes = set()
        for seed in range(20):
            biases = (0.0, 0.5, -0.5)
            oracles = [Oracle(par3_wide, r, master_seed=seed, oracle_id=j)
                       for j, r in enumerate(biases)]
            want = None
            for j, r in enumerate(biases):
                batch = Oracle(par3_wide, r, master_seed=seed, oracle_id=j).draw_batch(6_000)
                hits = [S for S, v in engine_levels(batch, 1, r).items() if abs(v) > 0.23]
                if hits:
                    want = (hits[0][0], j)
                    break
            try:
                got = find_one_relevant(oracles, p)
            except NoCoefficientFoundError:
                got = None
                assert [o.draws for o in oracles] == [6_000] * 3
            else:
                assert oracles[want[1]].draws == 6_000
            assert got == (want and want[0])
            outcomes.add(want and want[1])
        # the seeds reach a hit at oracle 1, at oracle 2 and at none
        assert outcomes == {1, 2, None}

    def test_checkpoints_no_estimate_can_clear_pass_unread(self):
        # criterion 10's scan: no coefficient of levels 1 and 2 at bias 0,
        # threshold 0.5.  After the first 512 rows no estimate can reach
        # 0.5 plus the radius at 1 024 rows, whatever 512 more rows hold, so
        # that checkpoint is passed without reading them; the same holds at
        # 4 096 and 16 384 rows.  The cap is always read in full
        f = Junta(20, (2, 5, 8), parity_core(3))
        p = LearnerParams(
            k=3, s=2, alpha=1.0, gamma=0.5, delta=0.1, threshold=0.5, samples_per_coeff=20_000
        )
        oracle = Oracle(f, 0.0, master_seed=0)
        sizes = []
        draw = oracle.draw_batch
        oracle.draw_batch = lambda m: sizes.append(m) or draw(m)
        with pytest.raises(NoCoefficientFoundError):
            find_one_relevant([oracle], p)
        assert sizes == [512, 1_536, 6_144, 11_808]
        assert oracle.draws == 20_000

    def test_single_uniform_oracle_stays_blind(self):
        # criterion 8(b) on 200 more seeds: at bias 0 every level-1
        # coefficient of PAR3_100 is 0, so no checkpoint may certify one
        f = Junta(100, (11, 47, 83), parity_core(3))
        p = params_for(3, 1, 1.0, gamma=0.5, samples_per_coeff=50_000, threshold=0.05)
        for seed in range(20, 220):
            oracle = Oracle(f, 0.0, master_seed=seed)
            with pytest.raises(NoCoefficientFoundError):
                find_one_relevant([oracle], p)
            assert oracle.draws == 50_000

    def test_calibrated_scan_size(self):
        # without samples_per_coeff an oracle serves the Hoeffding size that
        # holds each coefficient up to level s at confidence delta / (t n^s)
        oracle = Oracle(Junta(5, (2,), (-1, 1)), 0.0, master_seed=4)
        p = params_for(1, 1, 0.5, threshold=0.5)
        assert find_one_relevant([oracle], p) == 2
        m = hoeffding_sample_size(1, sigma(0.0), 0.5, 0.1 / (1 * 5**1))
        assert m == 148
        assert oracle.draws == m

    def test_no_coverage_requirement(self, par3):
        # a single oracle may be scanned even when s * t < k
        p = params_for(3, 1, 0.5, samples_per_coeff=20_000, threshold=0.05)
        idx = find_one_relevant([Oracle(par3, 0.5, master_seed=2)], p)
        assert idx in (0, 1, 2)


@pytest.mark.parametrize("n, S, irrelevant", [(6, (1, 4), 4), (8, (0, 5, 7), 7), (10, (9,), 9)])
def test_bias_slack_bounds_what_an_irrelevant_subset_estimates(n, S, irrelevant):
    # E_r[y chi_S(x, r')] by exact enumeration, for S holding a variable the
    # target ignores and a working bias r' within eps of the bias r
    X = assignments(n).astype(np.float64)
    targets = [random_junta(n, 3, seed) for seed in range(6)] + [Junta(n, (), (1,))]
    worst = 0.0
    for f in targets:
        if irrelevant in f.relevant:
            continue
        y = f.eval_batch(X.astype(np.int8)).astype(np.float64)
        for r in (-0.7, -0.2, 0.0, 0.4, 0.8):
            density = np.prod((1.0 + r * X) / 2.0, axis=1)
            for eps in (0.006, 0.05, 0.15):
                for r_work in (r - eps, r + eps):
                    if not -1.0 < r_work < 1.0:
                        continue
                    chi = np.prod((X[:, list(S)] - r_work) / sigma(r_work), axis=1)
                    target = abs(float(np.dot(density, y * chi)))
                    beta = _bias_slack(len(S), eps, r_work)[len(S)]
                    assert target <= beta * (1 + 1e-12), (f, r, r_work)
                    worst = max(worst, target / beta)
    # for |S| = 1 the constant target meets the bound; for larger S the
    # (1 + eps)^|S| - 1 terms cannot all be met at once
    assert worst > (0.99 if len(S) == 1 else 0.05)


class TestLearnJunta:
    def test_and2_exact(self, and2_50):
        p = params_for(2, 1, 0.7, samples_per_coeff=20_000, threshold=0.05)
        wins = 0
        for seed in range(10):
            oracles = [
                Oracle(and2_50, r, master_seed=seed, oracle_id=j)
                for j, r in enumerate((-0.3, 0.3))
            ]
            report = learn_junta(oracles, p)
            if (
                report.status is LearnStatus.EXACT_SUCCESS
                and report.relevant == (7, 23)
                and report.table == (-1, -1, -1, 1)
            ):
                wins += 1
        assert wins >= 8

    def test_par3_needs_shifted_oracles(self, par3_wide):
        p = params_for(3, 1, 0.5, samples_per_coeff=20_000, threshold=0.05)
        wins = 0
        for seed in range(10):
            oracles = [
                Oracle(par3_wide, r, master_seed=seed, oracle_id=j)
                for j, r in enumerate((-0.5, 0.0, 0.5))
            ]
            report = learn_junta(oracles, p)
            if (
                report.status is LearnStatus.EXACT_SUCCESS
                and report.relevant == (2, 5, 8)
                and report.table == parity_core(3)
            ):
                wins += 1
        assert wins >= 8

    def test_constant_function(self):
        f = Junta(20, (), (-1,))
        p = params_for(0, 1, 0.8, delta=0.1)
        report = learn_junta([Oracle(f, 0.2, master_seed=3)], p)
        assert report.status is LearnStatus.CONSTANT_FUNCTION
        assert report.relevant == ()
        assert report.table == (-1,)
        assert report.wall_ms > 0
        assert report.total_samples()[0] == constancy_sample_size(
            LearnerParams(k=0, s=1, alpha=0.8, gamma=0.2, delta=0.1)
        )

    def test_inconsistent_when_k_understated(self, par3):
        # promising k=2 for a 3-parity: two variables get confirmed, then a
        # full-depth restriction still shows both labels
        p = params_for(2, 1, 0.5, samples_per_coeff=5_000, threshold=0.05)
        oracles = [
            Oracle(par3, r, master_seed=0, oracle_id=j) for j, r in enumerate((-0.5, 0.5))
        ]
        report = learn_junta(oracles, p)
        assert report.status is LearnStatus.INCONSISTENT
        assert len(report.relevant) == 2
        assert report.table is None

    def test_budget_exhausted_when_nothing_clears(self, par3):
        p = params_for(1, 1, 0.5, samples_per_coeff=8_000, threshold=0.05)
        report = learn_junta([Oracle(par3, 0.0, master_seed=0)], p)
        assert report.status is LearnStatus.BUDGET_EXHAUSTED
        assert report.relevant == ()
        assert report.table is None

    def test_budget_exhausted_in_restricted_constancy(self):
        # bias 0.995 breaks the alpha=0.5 promise.  Round one sees both labels
        # and its scan confirms variable 2; in round two the pattern x2 = +1,
        # where the target is x5, shows both labels and its scan confirms 5.
        # In round three the pattern x2 = x5 = -1 has rate 6e-6, far below
        # what the raw cap allows, so the pass starves.  At sigma(0.995) no
        # radius certifies, so both scans read to their 20 000-row caps.
        # The round-two scan pays 21 550 raw draws: each checkpoint's first
        # chunk assumes rate 1/2, and the rows it accepts past the
        # checkpoint serve the next one.
        f = Junta(8, (2, 5), (-1, -1, -1, 1))
        p = params_for(4, 4, 0.5, samples_per_coeff=20_000, threshold=0.05)
        report = learn_junta([Oracle(f, 0.995, master_seed=0)], p)
        assert report.status is LearnStatus.BUDGET_EXHAUSTED
        assert report.relevant == (2, 5)
        assert report.table is None
        unrestricted = constancy_sample_size(replace(p, delta=p.delta / (4 * 2**4)))
        assert report.samples["constancy"][0] > unrestricted
        assert report.samples["coefficients"] == {0: 41_550}

    @pytest.mark.parametrize("unknown", [False, True])
    def test_constancy_draws_from_the_bias_nearest_zero(self, par3_wide, unknown):
        p = params_for(
            3, 1, 0.5, samples_per_coeff=20_000, threshold=0.05, unknown_biases=unknown
        )
        oracles = [
            Oracle(par3_wide, r, master_seed=3, oracle_id=j)
            for j, r in enumerate((-0.5, 0.0, 0.5))
        ]
        report = learn_junta(oracles, p)
        assert report.status is LearnStatus.EXACT_SUCCESS
        assert set(report.samples["constancy"]) == {1}

    def test_coverage_enforced(self, par3):
        p = params_for(3, 1, 0.5, samples_per_coeff=100, threshold=0.05)
        with pytest.raises(InvalidParamsError):
            learn_junta([Oracle(par3, 0.5, master_seed=0)], p)

    def test_report_shape(self, and2_50):
        p = params_for(2, 1, 0.7, samples_per_coeff=20_000, threshold=0.05)
        oracles = [
            Oracle(and2_50, r, master_seed=123, oracle_id=j)
            for j, r in enumerate((-0.3, 0.3))
        ]
        report = learn_junta(oracles, p)
        assert isinstance(report, LearnReport)
        assert len(report.relevant) <= 2
        if report.table is not None:
            assert len(report.table) == 1 << len(report.relevant)
        assert set(report.samples) <= {"bias_estimation", "constancy", "coefficients"}
        assert "bias_estimation" not in report.samples
        total = report.total_samples()
        assert sum(total.values()) == sum(o.draws for o in oracles)
        assert report.relevant == tuple(sorted(report.relevant))

    @pytest.mark.parametrize("seed", range(10))
    def test_two_oracles_learn_a_4_junta_at_level_2(self, seed):
        # t = 2 oracles and s = 2 cover k = 4, the paper's t < k regime; the
        # draw counts pin every scan decision of the first three seeds
        f = random_junta(30, 4, seed, require_nonconstant=True)
        p = LearnerParams(
            k=4, s=2, alpha=0.5, gamma=0.5, delta=0.1, threshold=0.05, samples_per_coeff=50_000
        )
        oracles = [
            Oracle(f, r, master_seed=seed, oracle_id=j) for j, r in enumerate((-0.4, 0.4))
        ]
        report = learn_junta(oracles, p)
        assert report.status is LearnStatus.EXACT_SUCCESS
        assert report.relevant == f.relevant
        assert report.table == f.core
        want = {0: {0: 260813}, 1: {0: 266561, 1: 2218}, 2: {0: 269283, 1: 5637}}
        if seed in want:
            assert report.total_samples() == want[seed]

    def test_unknown_biases(self, and2_50):
        p = params_for(
            2, 1, 0.5, samples_per_coeff=20_000, threshold=0.05, unknown_biases=True
        )
        wins = 0
        for seed in range(3):
            oracles = [
                Oracle(and2_50, r, master_seed=seed, oracle_id=j)
                for j, r in enumerate((-0.3, 0.3))
            ]
            report = learn_junta(oracles, p)
            assert "bias_estimation" in report.samples
            assert set(report.samples["bias_estimation"]) == {0, 1}
            if report.status is LearnStatus.EXACT_SUCCESS and report.relevant == (7, 23):
                wins += 1
        assert wins >= 2

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import fsum_coefficient, parity_core
from juntalab import (
    BudgetExhaustedError,
    InvalidIndexError,
    InvalidParamsError,
    Junta,
    LearnReport,
    LearnStatus,
    LearnerParams,
    NoCoefficientFoundError,
    Oracle,
    RestrictedOracle,
    check_constant,
    constancy_sample_size,
    default_attempt_budget,
    default_threshold,
    find_one_relevant,
    learn_junta,
)


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
            assert check_constant([oracle], p) == -1

    def test_and2_declared_nonconstant(self, and2):
        p = params_for(2, 1, 0.5, delta=0.05)
        hits = sum(
            check_constant([Oracle(and2, 0.0, master_seed=seed)], p) is None
            for seed in range(20)
        )
        assert hits >= 19

    def test_par3_declared_nonconstant(self, par3):
        p = params_for(3, 1, 0.5, delta=0.05)
        hits = sum(
            check_constant([Oracle(par3, 0.0, master_seed=seed)], p) is None
            for seed in range(20)
        )
        assert hits >= 19

    def test_sample_size(self):
        assert constancy_sample_size(params_for(2, 1, 0.5, delta=0.05)) == 60
        assert constancy_sample_size(params_for(0, 1, 1.0, delta=0.5)) == 2


class TestRestrictedDraw:
    def test_budget_formula(self):
        for alpha, size, m, k, delta in [(0.5, 2, 100, 3, 0.1), (1.0, 0, 1, 0, 0.5)]:
            want = math.ceil((2.0 / alpha) ** size * math.log(m * max(k, 1) * 2**k / delta)) * 4
            assert default_attempt_budget(alpha, size, m, k, delta) == want


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
        inner = Oracle(and2, 0.3, master_seed=5)
        view = RestrictedOracle(inner, {0: -1, 3: 1}, p)
        got = view.draw_batch(150)
        spent = inner.draws

        twin = Oracle(and2, 0.3, master_seed=5)
        raw = twin.draw_batch(spent)
        keep = (raw.xs[:, 0] == -1) & (raw.xs[:, 3] == 1)
        assert np.array_equal(got.xs, raw.xs[keep][:150])
        assert np.array_equal(got.labels, raw.labels[keep][:150])

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

    @pytest.mark.parametrize("exclude", [frozenset(), frozenset({1}), frozenset({4, 7})])
    def test_first_hit_matches_brute_scan(self, exclude):
        # oracle 0 sees nothing below level 3; at bias 0.5 every level-2
        # coefficient inside {1, 4, 6} is 0.375, above the threshold, and
        # every level-1 one is 0.2165, below it
        f = Junta(8, (1, 4, 6), parity_core(3))
        p = params_for(3, 2, 0.5, samples_per_coeff=4_000, threshold=0.3)
        oracles = [Oracle(f, r, master_seed=5, oracle_id=j) for j, r in enumerate((0.0, 0.5))]
        got = find_one_relevant(oracles, p, exclude=exclude)

        hits = []
        for j, oracle in enumerate(oracles):
            # the scan saw exactly the prefix of the oracle's seeded stream
            batch = Oracle(f, oracle.bias, master_seed=5, oracle_id=j).draw_batch(oracle.draws)
            rv = np.full(8, oracle.bias)
            for size in (1, 2):
                for S in itertools.combinations(range(8), size):
                    value = fsum_coefficient(batch, S, rv)
                    assert abs(abs(value) - p.threshold) > 1e-9
                    if abs(value) > p.threshold:
                        hits.append(S)
        assert len(hits) >= 3
        assert got == next(S for S in hits if exclude.isdisjoint(S))[0]

    def test_no_coverage_requirement(self, par3):
        # a single oracle may be scanned even when s * t < k
        p = params_for(3, 1, 0.5, samples_per_coeff=20_000, threshold=0.05)
        idx = find_one_relevant([Oracle(par3, 0.5, master_seed=2)], p)
        assert idx in (0, 1, 2)


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
        # bias 0.995 breaks the alpha=0.5 promise: the unrestricted check
        # sees both labels and the scan confirms variable 2, but a draw with
        # x2 = -1 is accepted at rate 0.0025, below what the per-draw
        # attempt budget allows, so the first restricted check starves
        f = Junta(8, (2, 5), (-1, -1, -1, 1))
        p = params_for(4, 4, 0.5, samples_per_coeff=20_000, threshold=0.05)
        report = learn_junta([Oracle(f, 0.995, master_seed=0)], p)
        assert report.status is LearnStatus.BUDGET_EXHAUSTED
        assert report.relevant == (2,)
        assert report.table is None
        unrestricted = constancy_sample_size(replace(p, delta=p.delta / (4 * 2**4)))
        assert report.samples["constancy"][0] > unrestricted
        assert report.samples["coefficients"] == {0: 20_000}

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

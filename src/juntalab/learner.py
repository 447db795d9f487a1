"""Exact learning of juntas from bias-separated example oracles.

The learner grows a set V of confirmed relevant variables.  Each round one
pass over one raw stream, at the oracle whose bias is nearest 0, checks
every sign pattern of V for constancy, with rows enough for the k - |V|
variables left; a non-constant pattern goes to the threshold scan, which
returns one of its variables.  When every pattern is constant their labels
are the truth table.

The threshold scan is anytime.  It reads every oracle's stream in doubling
prefixes, checkpoint j holding the first 512 * 2^j rows up to the oracle's
cap, and runs checkpoint j at every oracle before checkpoint j + 1 at any.
At each checkpoint it tests the coefficients of size up to s and stops at
the first one whose estimate clears the threshold by the smaller of its
Hoeffding and Bernstein radii and, with estimated biases, by the bias
error's bound beta: a certified hit.  A checkpoint at which a bound on every
estimate shows that none can clear, whatever its new rows hold, is passed
without reading them.  At its
cap an oracle falls back to the fixed-size rule (estimate above the
threshold), so when the oracles share one cap the worst case is the
fixed-size scan's decision on the same stream prefixes.  The moments of
every checkpoint's new rows are added to running counts, so each row is
counted once.

Draws from a restricted target are simulated by rejection: raw examples are
discarded until the fixed coordinates match.  The scan never considers
subsets touching fixed coordinates, whose raw-conditional estimates do not
track coefficients of the restricted target.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .boolfn import MAX_CORE_VARS, _as_indices, _check_signs, _sign_pattern
from .errors import (
    BudgetExhaustedError,
    InvalidParamsError,
    LengthMismatchError,
    NoCoefficientFoundError,
)
from .measure import sigma
from .moments import _level_index, _Moments
# perfbench/tracing.py wraps estimate_bias and estimate_coefficient here
from .sampling import (  # noqa: F401
    ExampleBatch,
    _bias_error,
    _clamped_bias_estimate,
    _sample_size,
    estimate_bias,
    estimate_coefficient,
    hoeffding_sample_size,
)

__all__ = [
    "LearnReport",
    "LearnStatus",
    "LearnerParams",
    "RestrictedOracle",
    "check_constant",
    "constancy_sample_size",
    "default_attempt_budget",
    "default_threshold",
    "find_one_relevant",
    "learn_junta",
]

# rows at a scan's first checkpoint; checkpoint j holds 512 * 2^j rows
_FIRST_CHECKPOINT = 512
# an oracle call asks for at most this many entries, whatever n (_call_rows)
_CALL_ELEMS = 1 << 22


class LearnStatus(str, Enum):
    EXACT_SUCCESS = "ExactSuccess"
    CONSTANT_FUNCTION = "ConstantFunction"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    INCONSISTENT = "Inconsistent"


@dataclass(frozen=True)
class LearnerParams:
    """Knobs for the learner and its sub-procedures.

    alpha lower-bounds 1 - |r| over the oracle biases, gamma is the
    bias-separation scale entering the default threshold, delta the overall
    confidence.  threshold and samples_per_coeff, when given, override the
    calibrated defaults (the calibrated sample sizes are astronomically
    conservative; practical runs set an explicit budget).
    """

    k: int
    s: int
    alpha: float
    gamma: float
    delta: float
    threshold: float | None = None
    samples_per_coeff: int | None = None
    unknown_biases: bool = False

    def validate(self, t: int, require_coverage: bool) -> None:
        # a learned table has 2^k entries, so k has the junta core's cap
        if not isinstance(self.k, int) or not 0 <= self.k <= MAX_CORE_VARS:
            raise InvalidParamsError(
                f"k must be an integer in [0, {MAX_CORE_VARS}], got {self.k!r}"
            )
        if not isinstance(self.s, int) or self.s < 1:
            raise InvalidParamsError(f"s must be a positive integer, got {self.s!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParamsError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidParamsError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParamsError(f"delta must lie in (0, 1), got {self.delta}")
        if self.threshold is not None and not self.threshold > 0.0:
            raise InvalidParamsError(f"threshold must be positive, got {self.threshold}")
        if self.samples_per_coeff is not None and self.samples_per_coeff < 1:
            raise InvalidParamsError(
                f"samples_per_coeff must be >= 1, got {self.samples_per_coeff}"
            )
        if t < 1:
            raise InvalidParamsError("need at least one oracle")
        if require_coverage:
            if self.s * t < self.k:
                raise InvalidParamsError(
                    f"need s * t >= k to cover the junta: s={self.s}, t={t}, k={self.k}"
                )
            # a whole run's constancy pass and deepest raw cap must be countable
            step = _step_params(self)
            m = constancy_sample_size(step)
            default_attempt_budget(self.alpha, self.k, m, self.k, step.delta)


@dataclass
class LearnReport:
    status: LearnStatus
    relevant: tuple[int, ...]
    table: tuple[int, ...] | None
    samples: dict[str, dict[int, int]]
    wall_ms: float

    def total_samples(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for phase in self.samples.values():
            for j, count in phase.items():
                out[j] = out.get(j, 0) + count
        return out


def default_threshold(params: LearnerParams) -> float:
    """Detection floor alpha^(s/2) * (gamma/4)^k / 2, the same at every
    level.  Pure formula evaluation, no range checks."""
    return params.alpha ** (params.s / 2.0) * (params.gamma / 4.0) ** params.k / 2.0


def _threshold(params: LearnerParams) -> float:
    return params.threshold if params.threshold is not None else default_threshold(params)


def _step_params(params: LearnerParams) -> LearnerParams:
    """params at the confidence each step of learn_junta runs at,
    delta / (k * 2^k)."""
    return replace(params, delta=params.delta / (max(params.k, 1) * (1 << params.k)))


@_sample_size
def constancy_sample_size(params: LearnerParams, depth: int = 0) -> int:
    """m_V = ceil((2/alpha)^(k - depth) * ln(2/delta)) examples at depth
    |V| <= k: enough that a non-constant at-most-(k - |V|)-junta, as each
    pattern's restriction is once V lies inside the relevant set, shows
    both labels with probability 1 - delta."""
    exponent = max(params.k - depth, 0)
    return math.ceil((2.0 / params.alpha) ** exponent * math.log(2.0 / params.delta))


def check_constant(oracles: Sequence, params: LearnerParams, V: Sequence[int] = ()):
    """Count one raw stream of the first oracle by sign pattern p of V, whose
    indices must be distinct and in [0, n) (bit b set means V[b] = +1).
    Returns (table, None) once each pattern has m_V = constancy_sample_size
    (params, |V|) rows, all labelled table[p], or (None, p) at the first
    chunk where pattern p (the lowest) shows both labels.  The raw cap is
    m_V * default_attempt_budget(alpha, |V|, m_V, k, delta).  At |V| = k a
    pattern gets ceil(ln(2/delta)) rows, a weak check of the promise."""
    params.validate(len(oracles), require_coverage=False)
    V = _as_indices(V, oracles[0].n, "pattern index")
    if len(set(V)) < len(V):
        raise InvalidParamsError(f"pattern indices must be distinct, got {tuple(V)}")
    m = constancy_sample_size(params, len(V))
    cap = m * default_attempt_budget(params.alpha, len(V), m, params.k, params.delta)
    rows, ups = np.zeros((2, 1 << len(V)), dtype=np.int64)
    spent = 0
    while (low := int(rows.min())) < m:
        batch = _raw_chunk(oracles[0], m - low, low, spent, len(V), cap)
        spent += batch.m
        pattern = _sign_pattern(batch.xs, V)
        rows += np.bincount(pattern, minlength=rows.size)
        ups += np.bincount(pattern[batch.labels > 0], minlength=rows.size)
        mixed = np.flatnonzero((ups > 0) & (ups < rows))
        if mixed.size:
            return None, int(mixed[0])
    return tuple(np.where(ups > 0, 1, -1).tolist()), None


# ---------------------------------------------------------------------------
# restricted draws


@_sample_size
def default_attempt_budget(alpha: float, rho_size: int, m: int, k: int, delta: float) -> int:
    """Raw attempts allowed per needed restricted draw:
    ceil((2/alpha)^|rho| * ln(m * k * 2^k / delta)) * 4."""
    arg = max(m, 1) * max(k, 1) * (1 << max(k, 0)) / delta
    return math.ceil((2.0 / alpha) ** rho_size * math.log(arg)) * 4


def _call_rows(n: int) -> int:
    """Rows per oracle call at width n: _CALL_ELEMS entries, or one wider row."""
    return max(1, _CALL_ELEMS // n)


def _raw_chunk(oracle, need: int, have: int, spent: int, fixed: int, cap: int) -> ExampleBatch:
    """The oracle's next chunk of raw draws: the rows still needed over the acceptance
    rate so far, (have + 1) / (spent + 2^fixed), 2^-fixed before the first draw, at
    most _call_rows(n).  Raises BudgetExhaustedError at the raw cap."""
    if spent >= cap:
        raise BudgetExhaustedError(f"{have}/{have + need} rows after {spent} raw draws")
    rows = math.ceil(need * (spent + (1 << fixed)) / (have + 1))
    return oracle.draw_batch(min(rows, _call_rows(oracle.n), cap - spent))


class RestrictedOracle:
    """Oracle view of the target restricted by rho, via chunked rejection.

    The accepted stream is exactly the subsequence of raw draws matching rho,
    whatever the chunk sizes: a call keeps the rows it accepted past its size
    and serves them first on the next call, as an Oracle keeps the rest of its
    last block, so split draws give the rows of one draw.  A raw chunk holds
    at most _CALL_ELEMS entries whatever n and |rho|, and every raw draw is
    counted at the base oracle.  A draw_batch(m) call spends at most m * b raw
    attempts, b the per-draw budget above; with an empty rho it draws m rows.
    """

    def __init__(self, inner, rho: Mapping[int, int], params: LearnerParams):
        self.inner = inner
        values = _check_signs(list(rho.values()), 1, "restriction values").tolist()
        self.rho = dict(zip(_as_indices(rho, inner.n, "restricted index"), values))
        self._params = params
        self._idx = np.array(list(self.rho), dtype=np.int64)
        self._vals = np.array(list(self.rho.values()), dtype=np.int8)
        self._tail = ExampleBatch(np.empty((0, inner.n), dtype=np.int8), np.empty(0, np.int8))

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def bias(self) -> float:
        return self.inner.bias

    @property
    def draws(self) -> int:
        return self.inner.draws

    def draw_batch(self, m: int) -> ExampleBatch:
        if m <= 0 or not self.rho:
            # every row matches an empty rho; the inner oracle serves an empty
            # batch or rejects a negative size
            return self.inner.draw_batch(m)
        xs, labels = [self._tail.xs], [self._tail.labels]
        need = max(0, m - self._tail.m)
        p = self._params
        cap = need * default_attempt_budget(p.alpha, len(self.rho), need, p.k, p.delta)
        spent = have = 0
        while have < need:
            batch = _raw_chunk(self.inner, need - have, have, spent, len(self.rho), cap)
            spent += batch.m
            keep = np.all(batch.xs[:, self._idx] == self._vals, axis=1)
            xs.append(batch.xs[keep])
            labels.append(batch.labels[keep])
            have += len(labels[-1])
        xs, labels = np.concatenate(xs), np.concatenate(labels)
        self._tail = ExampleBatch(xs[m:].copy(), labels[m:].copy())
        return ExampleBatch(xs[:m], labels[:m])


# ---------------------------------------------------------------------------
# variable detection


def _working_biases(oracles: Sequence, params: LearnerParams, delta_bias: float) -> list[float]:
    """Per-oracle biases for estimation: declared in the known-bias model,
    estimated from unlabeled draws (then clamped into the promised range)
    otherwise."""
    if not params.unknown_biases:
        return [float(o.bias) for o in oracles]
    return [_clamped_bias_estimate(o, params.alpha, params.s, delta_bias) for o in oracles]


def _scan_caps(params: LearnerParams, n: int, biases: Sequence[float]) -> list[int]:
    """Each oracle's scan cap: samples_per_coeff, or the Hoeffding size that
    holds every coefficient up to level s within the threshold at confidence
    delta / (t * n^s), at that oracle's bias.  Raises InvalidParamsError
    when a size is past float range."""
    if params.samples_per_coeff is not None:
        return [params.samples_per_coeff] * len(biases)
    try:
        delta_coeff = params.delta / (len(biases) * n**params.s)
    except OverflowError:  # n^s past float range: no finite sample suffices
        raise InvalidParamsError(f"n^s = {n}^{params.s} is past float range") from None
    # each level multiplies the bound by 4 / sigma^2 >= 4, so size s needs most
    threshold = _threshold(params)
    return [hoeffding_sample_size(params.s, sigma(r), threshold, delta_coeff) for r in biases]


def _learn_scan_caps(params: LearnerParams, n: int, biases: Sequence[float]) -> list[int]:
    """The caps of learn_junta's scans with oracles at these biases: at the
    step confidence and, in the unknown-bias model, at the largest working
    bias the clamp allows, which needs the largest cap."""
    if params.unknown_biases:
        biases = [1.0 - params.alpha] * len(biases)
    return _scan_caps(_step_params(params), n, biases)


def _bias_slack(s: int, eps: float, r: float) -> list[float]:
    """beta_l = ((1 + eps)^l - 1) / sigma(r)^l for l = 0..s: a bound on what
    an estimate at working bias r targets for a subset of size l that holds
    an irrelevant variable, when r is within eps of the oracle's bias.

    That target is sum over T, a proper subset of S, of
    (bias - r)^{|S \\ T|} sigma^{|T|} f_bias(T) / sigma(r)^l, with
    |f_bias(T)| <= 1 and sigma <= 1.  For known biases eps = 0 and beta = 0.
    """
    sig = sigma(r)
    return [((1.0 + eps) ** level - 1.0) / sig**level for level in range(s + 1)]


def _slack(s: int, eps: float, r: float):
    """The slack rule at working bias r: rule(w, m) lists, for levels
    l = 0..s, the smaller of the Hoeffding and the Bernstein radius of an
    estimate from m rows, w = 2 ln(2/delta_j), plus beta_l, as in
    find_one_relevant.  At r = 0 Bernstein is the larger, so the slack is
    the Hoeffding radius bit for bit."""
    sig = sigma(r)
    B, var = (1.0 + abs(r)) / sig, 1.0 + 2.0 * abs(r) * eps / sig**2
    terms = [(B**level, math.sqrt(var**level), beta)
             for level, beta in enumerate(_bias_slack(s, eps, r))]

    def at(width: float, m: int) -> list[float]:
        radius, tail = math.sqrt(width / m), width / (3.0 * m)
        return [min(b * radius, v * radius + (b + v) * tail) + beta for b, v, beta in terms]

    return at


def _read_prefix(scan: _Moments, oracle, m: int) -> None:
    """Add the oracle's next rows to scan until it holds m rows, _call_rows(n)
    at most per call, so a late checkpoint never holds its whole batch."""
    while scan.m < m:
        batch = oracle.draw_batch(min(m - scan.m, _call_rows(oracle.n)))
        scan.add(batch.xs, batch.labels)


def _first_hit(scan: _Moments, r: float, threshold: float, slack: list, blocked: np.ndarray):
    """The least index of the first subset S, by level and then in
    lexicographic order, that avoids the blocked columns and whose estimate
    has |est_S| - slack[|S|] > threshold; None if there is none.  A level
    whose bound on every estimate cannot clear is not combined."""
    for level in range(1, scan.index.s + 1):
        if scan.bound(level, r) <= threshold + slack[level]:
            continue
        values = scan.estimates(level, r)
        S = scan.index.subsets[level]
        clear = np.flatnonzero(np.abs(values) - slack[level] > threshold)
        hits = clear[~blocked[S[clear]].any(axis=1)]
        if hits.size:
            return int(S[hits[0], 0])
    return None


def find_one_relevant(
    oracles: Sequence,
    params: LearnerParams,
    exclude: frozenset[int] = frozenset(),
    known_biases: Sequence[float] | None = None,
) -> int:
    """Scan the oracles for a certified coefficient above the threshold and
    return the smallest index inside the first subset that clears.

    Oracle o has a cap m_o: samples_per_coeff, or the Hoeffding size that
    holds every coefficient up to level s within the threshold at confidence
    delta_coeff = delta / (t * n^s).  Checkpoint j holds an oracle's first
    m_j = min(512 * 2^j, m_o) rows.  It runs at every oracle, in index
    order, before checkpoint j + 1 runs at any; an oracle at its cap is
    done.  At a checkpoint the subsets are tested by level 1..s, then in
    lexicographic order; candidates avoid ``exclude``, whose indices must
    lie in [0, n).  Below the cap S of size l clears when

        |est_S| - min(B^l sqrt(w / m_j),
                      sqrt(V_l w / m_j) + (B^l + sqrt(V_l)) w / (3 m_j)) - beta_l > threshold,

    the Hoeffding and the Bernstein radius of y * chi_S at the working bias
    r: B^l, B = (1 + |r|) / sigma(r), bounds its range and V_l =
    (1 + 2 |r| eps / sigma(r)^2)^l its second moment.  w = 2 ln(2 / delta_j)
    with delta_j = delta_coeff / 2^(j + 1), so the checkpoints spend
    delta_coeff between them, whichever radius each picks: a certified
    coefficient above the threshold.  eps and beta are 0 for known biases;
    for estimated ones eps is the bias phase's Hoeffding accuracy and beta
    bounds what a subset holding an irrelevant variable estimates
    (_bias_slack).  Below the cap, a checkpoint whose level bounds
    (_Moments.bound) show that no estimate can clear, however its
    m_j - m_{j-1} new rows fall, passes without reading them; they are read
    at the next checkpoint that can clear.  At its cap an oracle reads
    all m_o rows and uses the fixed-size rule |est_S| > threshold, so when
    the oracles share one cap a scan that certifies nothing makes the
    fixed-size scan's decision on each oracle's first m_o rows.

    known_biases, when given, holds one bias per oracle; in the unknown-bias
    model they are taken to be estimates made at confidence delta per
    oracle, as learn_junta makes them.  Otherwise the scan estimates the
    biases itself at delta / t each.
    """
    t = len(oracles)
    params.validate(t, require_coverage=False)
    n = oracles[0].n
    blocked = np.zeros(n, dtype=bool)
    blocked[_as_indices(exclude, n, "excluded index")] = True
    if blocked.all():
        raise InvalidParamsError("no candidate variables remain outside the exclusion set")
    if known_biases is not None and len(known_biases) != t:
        raise LengthMismatchError(f"{len(known_biases)} known biases for {t} oracles")
    if known_biases is not None:
        biases, delta_bias = [float(b) for b in known_biases], params.delta
    else:
        delta_bias = params.delta / t
        biases = _working_biases(oracles, params, delta_bias)
    caps = _scan_caps(params, n, biases)
    threshold = _threshold(params)
    eps = _bias_error(params.alpha, params.s, delta_bias, n) if params.unknown_biases else 0.0
    index = _level_index(n, min(params.s, n))
    levels = range(index.s + 1)
    scans = [_Moments(index) for _ in oracles]
    slacks = [_slack(index.s, eps, r) for r in biases]
    # ln(2 / delta_coeff), summed in logs so that n^s cannot overflow
    log_coeff = math.log(2.0 * t / params.delta) + params.s * math.log(n)
    j = 0
    while any(scan.m < cap for scan, cap in zip(scans, caps)):
        width = 2.0 * (log_coeff + (j + 1) * math.log(2.0))
        for scan, cap, oracle, r, rule in zip(scans, caps, oracles, biases, slacks):
            if scan.m == cap:
                continue
            m = min(_FIRST_CHECKPOINT << j, cap)
            if m == cap:
                slack = [0.0 for _ in levels]
            else:
                slack = rule(width, m)
                unread = m - scan.m
                if all(scan.bound(level, r, unread) <= threshold + slack[level]
                       for level in levels[1:]):
                    continue  # no estimate can clear here, whatever the rows hold
            _read_prefix(scan, oracle, m)
            hit = _first_hit(scan, r, threshold, slack, blocked)
            if hit is not None:
                return hit
        j += 1
    raise NoCoefficientFoundError(
        f"no coefficient above {threshold} across {t} oracles up to level {params.s}"
    )


# ---------------------------------------------------------------------------
# the learner


@contextmanager
def _count_draws(phases: dict[str, dict[int, int]], oracles: Sequence, phase: str):
    """Add the draws each oracle serves inside the block to phases[phase]."""
    before = [o.draws for o in oracles]
    try:
        yield
    finally:
        for j, o in enumerate(oracles):
            diff = o.draws - before[j]
            if diff:
                bucket = phases.setdefault(phase, {})
                bucket[j] = bucket.get(j, 0) + diff


def learn_junta(oracles: Sequence, params: LearnerParams) -> LearnReport:
    """Recover the relevant set and truth table of an at-most-k junta.

    Returns ExactSuccess with the sorted variable set and its table,
    ConstantFunction for a constant target, BudgetExhausted when a scan or a
    raw-draw cap ran out, and Inconsistent when some sign pattern of V still
    shows both labels after k variables were found (a weak check of the
    promise: check_constant reads few rows per pattern at |V| = k).
    Sub-procedures run at confidence delta / (k * 2^k).
    """
    t0 = time.perf_counter()
    t = len(oracles)
    params.validate(t, require_coverage=True)
    phases: dict[str, dict[int, int]] = {}
    sub_params = _step_params(params)

    def report(status: LearnStatus, V: list[int], table) -> LearnReport:
        return LearnReport(
            status=status,
            relevant=tuple(V),
            table=table,
            samples=phases,
            wall_ms=(time.perf_counter() - t0) * 1000.0,
        )

    with _count_draws(phases, oracles, "bias_estimation"):
        biases = _working_biases(oracles, sub_params, sub_params.delta)
    # the constancy bound holds at any promised bias; nearest 0 evens the patterns
    probe = [oracles[min(range(t), key=lambda j: abs(biases[j]))]]

    V: list[int] = []
    while True:
        with _count_draws(phases, oracles, "constancy"):
            try:
                table, bits = check_constant(probe, sub_params, V)
            except BudgetExhaustedError:
                return report(LearnStatus.BUDGET_EXHAUSTED, V, None)
        if table is not None:
            status = LearnStatus.EXACT_SUCCESS if V else LearnStatus.CONSTANT_FUNCTION
            return report(status, V, table)
        if len(V) == params.k:
            # a full-depth pattern still shows both labels: the target is not
            # an at-most-k junta consistent with what was found
            return report(LearnStatus.INCONSISTENT, V, None)
        # scan the non-constant pattern's views outside V
        rho = {V[b]: (1 if (bits >> b) & 1 else -1) for b in range(len(V))}
        views = [RestrictedOracle(o, rho, sub_params) for o in oracles]
        with _count_draws(phases, oracles, "coefficients"):
            try:
                idx = find_one_relevant(
                    views, sub_params, exclude=frozenset(V), known_biases=biases
                )
            except (NoCoefficientFoundError, BudgetExhaustedError):
                return report(LearnStatus.BUDGET_EXHAUSTED, V, None)
        V.append(idx)
        V.sort()

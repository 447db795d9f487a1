"""Exact learning of juntas from bias-separated example oracles.

The learner grows a set V of confirmed relevant variables.  Each round one
pass over one raw stream, at the oracle whose bias is nearest 0, checks
every sign pattern of V for constancy; a non-constant pattern goes to the
threshold scan, which scans the oracles in order, estimating coefficients
of size up to s at each, and stops at the first estimate above the
threshold, returning one of its variables.
When every pattern is constant their labels are the truth table.

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
# perfbench/tracing.py wraps estimate_bias and estimate_coefficient here
from .sampling import (  # noqa: F401
    ExampleBatch,
    _clamped_bias_estimate,
    _level_estimates,
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

_CHUNK_CAP = 65536


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


def _step_params(params: LearnerParams) -> LearnerParams:
    """params at the confidence each step of learn_junta runs at,
    delta / (k * 2^k)."""
    return replace(params, delta=params.delta / (max(params.k, 1) * (1 << params.k)))


@_sample_size
def constancy_sample_size(params: LearnerParams) -> int:
    """ceil((2/alpha)^k * ln(2/delta)) examples: enough that a non-constant
    at-most-k-junta shows both labels with probability 1 - delta."""
    return math.ceil((2.0 / params.alpha) ** params.k * math.log(2.0 / params.delta))


def check_constant(oracles: Sequence, params: LearnerParams, V: Sequence[int] = ()):
    """Count one raw stream of the first oracle by sign pattern p of V, whose
    indices must be distinct and in [0, n) (bit b set means V[b] = +1).
    Returns (table, None) once each pattern has m = constancy_sample_size
    rows, all labelled table[p], or (None, p) at the first chunk where
    pattern p (the lowest) shows both labels.  The raw cap is
    m * default_attempt_budget(alpha, |V|, m, k, delta)."""
    params.validate(len(oracles), require_coverage=False)
    V = _as_indices(V, oracles[0].n, "pattern index")
    if len(set(V)) < len(V):
        raise InvalidParamsError(f"pattern indices must be distinct, got {tuple(V)}")
    m = constancy_sample_size(params)
    cap = m * default_attempt_budget(params.alpha, len(V), m, params.k, params.delta)
    rows, ups = np.zeros((2, 1 << len(V)), dtype=np.int64)
    spent = 0
    while (low := int(rows.min())) < m:
        chunk = _chunk_size(m - low, low, spent, len(V), cap)
        batch = oracles[0].draw_batch(chunk)
        spent += chunk
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


def _chunk_size(need: int, have: int, spent: int, fixed: int, cap: int) -> int:
    """Raw draws for the next rejection chunk: the rows still needed over the
    acceptance rate so far, (have + 1) / (spent + 2^fixed), which is 2^-fixed
    before the first draw.  Raises BudgetExhaustedError at the raw cap."""
    if spent >= cap:
        raise BudgetExhaustedError(f"{have}/{have + need} rows after {spent} raw draws")
    return min(math.ceil(need * (spent + (1 << fixed)) / (have + 1)), _CHUNK_CAP, cap - spent)


class RestrictedOracle:
    """Oracle view of the target restricted by rho, via chunked rejection.

    The accepted stream is exactly the subsequence of raw draws matching rho,
    whatever the chunk sizes.  Batches may overshoot by part of a chunk;
    every raw draw is counted at the base oracle.  A draw_batch(m) call may
    spend at most m * b raw attempts where b is the per-draw budget formula
    above; with an empty rho it draws exactly m rows.
    """

    def __init__(self, inner, rho: Mapping[int, int], params: LearnerParams):
        self.inner = inner
        values = _check_signs(list(rho.values()), 1, "restriction values").tolist()
        self.rho = dict(zip(_as_indices(rho, inner.n, "restricted index"), values))
        self._params = params
        idx = sorted(self.rho)
        self._idx = np.array(idx, dtype=np.int64)
        self._vals = np.array([self.rho[i] for i in idx], dtype=np.int8)

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
        if m <= 0:
            # the inner oracle serves an empty batch or rejects a negative size
            return self.inner.draw_batch(m)
        p = self._params
        cap = m * default_attempt_budget(p.alpha, len(self.rho), m, p.k, p.delta)
        spent = have = 0
        xs, labels = [], []
        while have < m:
            chunk = _chunk_size(m - have, have, spent, len(self.rho), cap)
            batch = self.inner.draw_batch(chunk)
            spent += chunk
            keep = np.all(batch.xs[:, self._idx] == self._vals, axis=1)
            xs.append(batch.xs[keep])
            labels.append(batch.labels[keep])
            have += len(labels[-1])
        return ExampleBatch(np.concatenate(xs)[:m], np.concatenate(labels)[:m])


# ---------------------------------------------------------------------------
# variable detection


def _working_biases(oracles: Sequence, params: LearnerParams, delta_bias: float) -> list[float]:
    """Per-oracle biases for estimation: declared in the known-bias model,
    estimated from unlabeled draws (then clamped into the promised range)
    otherwise."""
    if not params.unknown_biases:
        return [float(o.bias) for o in oracles]
    return [_clamped_bias_estimate(o, params.alpha, params.s, delta_bias) for o in oracles]


def find_one_relevant(
    oracles: Sequence,
    params: LearnerParams,
    exclude: frozenset[int] = frozenset(),
    known_biases: Sequence[float] | None = None,
) -> int:
    """Scan oracles for a coefficient estimate above the threshold and return
    the smallest index inside the first subset that clears it.

    Order is deterministic: oracle index, then level 1..s, then subsets in
    lexicographic order; candidate subsets avoid ``exclude``, whose indices
    must lie in [0, n).  known_biases, when given, holds one bias per
    oracle.  Per-coefficient confidence is delta / (t * n^s) so a union bound
    covers the whole scan.
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
    threshold = (
        params.threshold if params.threshold is not None else default_threshold(params)
    )
    if known_biases is not None:
        biases = [float(b) for b in known_biases]
    else:
        biases = _working_biases(oracles, params, params.delta / t)
    for oracle, r in zip(oracles, biases):
        m = params.samples_per_coeff
        if m is None:
            # each level multiplies the bound by 4 / sigma^2 >= 4, so size s needs most
            try:
                delta_coeff = params.delta / (t * n**params.s)
            except OverflowError:  # n^s past float range: no finite sample suffices
                raise InvalidParamsError(f"n^s = {n}^{params.s} is past float range") from None
            m = hoeffding_sample_size(params.s, sigma(r), threshold, delta_coeff)
        for S, values in _level_estimates(oracle.draw_batch(m), params.s, r):
            hits = np.flatnonzero((np.abs(values) > threshold) & ~blocked[S].any(axis=1))
            if hits.size:
                return int(S[hits[0], 0])
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
    shows both labels after k variables were found.  Sub-procedures
    run at confidence delta / (k * 2^k).
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

"""Exact learning of juntas from bias-separated example oracles.

The learner grows a set V of confirmed relevant variables.  Each round it
checks every restriction of V for constancy; a non-constant restriction is
handed to the threshold scan, which estimates all coefficients of size up to
s at every oracle and returns a variable from the first estimate that clears
the detection threshold.  When every restriction is constant the constancy
values are the truth table.

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

from .errors import (
    BudgetExhaustedError,
    InvalidIndexError,
    InvalidParamsError,
    NoCoefficientFoundError,
)
from .measure import sigma
from .sampling import (  # noqa: F401  estimate_coefficient: perfbench/tracing.py wraps it here
    ExampleBatch,
    bias_sample_size,
    estimate_bias,
    estimate_coefficient,
    estimate_level_batch,
    hoeffding_sample_size,
    unknown_bias_accuracy,
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
        if not isinstance(self.k, int) or self.k < 0:
            raise InvalidParamsError(f"k must be a nonnegative integer, got {self.k!r}")
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
        if require_coverage and self.s * t < self.k:
            raise InvalidParamsError(
                f"need s * t >= k to cover the junta: s={self.s}, t={t}, k={self.k}"
            )


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


def constancy_sample_size(params: LearnerParams) -> int:
    """ceil((2/alpha)^k * ln(2/delta)) examples: enough that a non-constant
    at-most-k-junta shows both labels with probability 1 - delta."""
    return math.ceil((2.0 / params.alpha) ** params.k * math.log(2.0 / params.delta))


def check_constant(oracles: Sequence, params: LearnerParams):
    """Draw the calibrated batch from the first oracle; return the common
    label sign if all labels agree, else None."""
    params.validate(len(oracles), require_coverage=False)
    m = constancy_sample_size(params)
    labels = oracles[0].draw_batch(m).labels
    first = int(labels[0])
    if np.all(labels == first):
        return first
    return None


# ---------------------------------------------------------------------------
# restricted draws


def _check_rho(rho: Mapping[int, int], n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for var, val in rho.items():
        var = int(var)
        if not 0 <= var < n:
            raise InvalidIndexError(f"restricted index {var} outside [0, {n})")
        if val not in (-1, 1):
            raise InvalidParamsError(f"restriction values must be -1 or +1, got {val!r}")
        out[var] = int(val)
    return out


def default_attempt_budget(alpha: float, rho_size: int, m: int, k: int, delta: float) -> int:
    """Raw attempts allowed per needed restricted draw:
    ceil((2/alpha)^|rho| * ln(m * k * 2^k / delta)) * 4."""
    arg = max(m, 1) * max(k, 1) * (1 << max(k, 0)) / delta
    return math.ceil((2.0 / alpha) ** rho_size * math.log(arg)) * 4


class RestrictedOracle:
    """Oracle view of the target restricted by rho, via chunked rejection.

    The accepted stream is exactly the subsequence of raw draws matching rho,
    whatever the chunk sizes.  Batches may overshoot by part of a chunk;
    every raw draw is counted at the base oracle.  A draw_batch(m) call may
    spend at most m * b raw attempts where b is the per-draw budget formula
    above.
    """

    def __init__(self, inner, rho: Mapping[int, int], params: LearnerParams):
        self.inner = inner
        self.rho = _check_rho(rho, inner.n)
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
        if not self.rho:
            return self.inner.draw_batch(m)
        per_draw = default_attempt_budget(
            self._params.alpha, len(self.rho), m, self._params.k, self._params.delta
        )
        cap = m * per_draw
        spent = 0
        have = 0
        parts: list[ExampleBatch] = []
        while have < m:
            if spent >= cap:
                raise BudgetExhaustedError(
                    f"{have}/{m} restricted draws after {spent} raw attempts"
                )
            if spent == 0:
                # probe chunk; the acceptance rate is unknown up front (the
                # hidden bias must not be consulted)
                want = max(256, min(4 * m, 4096))
            else:
                rate = max(have / spent, 1.0 / per_draw)
                want = math.ceil((m - have) / rate * 1.2) + 64
            chunk = min(max(want, 256), _CHUNK_CAP, cap - spent)
            batch = self.inner.draw_batch(chunk)
            spent += chunk
            keep = np.all(batch.xs[:, self._idx] == self._vals, axis=1)
            if np.any(keep):
                parts.append(ExampleBatch(batch.xs[keep], batch.labels[keep]))
                have += int(np.count_nonzero(keep))
        merged = ExampleBatch.concat(parts)
        return ExampleBatch(merged.xs[:m], merged.labels[:m])


# ---------------------------------------------------------------------------
# variable detection


def _working_biases(oracles: Sequence, params: LearnerParams, delta_bias: float) -> list[float]:
    """Per-oracle biases for estimation: declared in the known-bias model,
    estimated from unlabeled draws (then clamped into the promised range)
    otherwise."""
    if not params.unknown_biases:
        return [float(o.bias) for o in oracles]
    gamma = unknown_bias_accuracy(params.alpha, params.s)
    m1 = bias_sample_size(gamma, delta_bias)
    out = []
    for oracle in oracles:
        est = estimate_bias(oracle.draw_batch(m1))
        out.append(min(max(est, -(1.0 - params.alpha)), 1.0 - params.alpha))
    return out


def find_one_relevant(
    oracles: Sequence,
    params: LearnerParams,
    exclude: frozenset[int] = frozenset(),
    known_biases: Sequence[float] | None = None,
) -> int:
    """Scan oracles for a coefficient estimate above the threshold and return
    the smallest index inside the first subset that clears it.

    Order is deterministic: oracle index, then level 1..s, then subsets in
    lexicographic order; candidate subsets avoid ``exclude``.  Per-coefficient
    confidence is delta / (t * n^s) so a union bound covers the whole scan.
    """
    t = len(oracles)
    params.validate(t, require_coverage=False)
    n = oracles[0].n
    if exclude.issuperset(range(n)):
        raise InvalidParamsError("no candidate variables remain outside the exclusion set")
    threshold = (
        params.threshold if params.threshold is not None else default_threshold(params)
    )
    delta_coeff = params.delta / (t * n**params.s)
    if known_biases is not None:
        biases = [float(b) for b in known_biases]
    else:
        biases = _working_biases(oracles, params, params.delta / t)
    for oracle, r in zip(oracles, biases):
        if params.samples_per_coeff is not None:
            m = params.samples_per_coeff
        else:
            m = max(
                hoeffding_sample_size(size, sigma(r), threshold, delta_coeff)
                for size in range(1, params.s + 1)
            )
        batch = oracle.draw_batch(m)
        for S, value in estimate_level_batch(batch, params.s, r).items():
            if abs(value) > threshold and exclude.isdisjoint(S):
                return S[0]
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
    restricted-draw budget ran out, and Inconsistent when some restriction
    still looks non-constant after k variables were found.  Sub-procedures
    run at confidence delta / (k * 2^k).
    """
    t0 = time.perf_counter()
    t = len(oracles)
    params.validate(t, require_coverage=True)
    phases: dict[str, dict[int, int]] = {}
    sub_delta = params.delta / (max(params.k, 1) * (1 << params.k))
    sub_params = replace(params, delta=sub_delta)

    def report(status: LearnStatus, V: list[int], table) -> LearnReport:
        return LearnReport(
            status=status,
            relevant=tuple(V),
            table=table,
            samples=phases,
            wall_ms=(time.perf_counter() - t0) * 1000.0,
        )

    with _count_draws(phases, oracles, "bias_estimation"):
        biases = _working_biases(oracles, sub_params, sub_delta)

    V: list[int] = []
    while True:
        values: list[int] = []
        with _count_draws(phases, oracles, "constancy"):
            try:
                for bits in range(1 << len(V)):
                    rho = {V[b]: (1 if (bits >> b) & 1 else -1) for b in range(len(V))}
                    views = oracles
                    if rho:
                        views = [RestrictedOracle(o, rho, sub_params) for o in oracles]
                    c = check_constant(views, sub_params)
                    if c is None:
                        break
                    values.append(c)
                else:
                    status = LearnStatus.EXACT_SUCCESS if V else LearnStatus.CONSTANT_FUNCTION
                    return report(status, V, tuple(values))
            except BudgetExhaustedError:
                return report(LearnStatus.BUDGET_EXHAUSTED, V, None)
        if len(V) == params.k:
            # a full-depth restriction still shows both labels: the target is
            # not an at-most-k junta consistent with what was found
            return report(LearnStatus.INCONSISTENT, V, None)
        # the loop broke at a non-constant pattern: scan its views outside rho
        with _count_draws(phases, oracles, "coefficients"):
            try:
                idx = find_one_relevant(
                    views, sub_params, exclude=frozenset(rho), known_biases=biases
                )
            except (NoCoefficientFoundError, BudgetExhaustedError):
                return report(LearnStatus.BUDGET_EXHAUSTED, V, None)
        V.append(idx)
        V.sort()

"""Example oracles and calibrated coefficient estimators.

An oracle serves labeled draws from one biased product measure.  Sample
sizes come from Hoeffding bounds on the standardized characters, whose range
grows like (2 / sigma)^|S|, hence the (2^|S| / (epsilon * sigma^|S|))^2
factor in the calibration.

A per-subset estimate_coefficient call and the learner's scan, which reads
whole levels, both take their values from the exact moment engine in
juntalab.moments, so they give bit-identical values on the same rows however
the rows are split, and a replayed example stream reproduces a run decision
for decision.  An oracle serves a call of any size as one batch: the
learner's constancy chunks, rejection chunks and scan reads each ask for at
most 2^22 entries, while the bias phase (_clamped_bias_estimate) draws its
whole sample in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boolfn import Junta, _as_indices, _check_signs, assignments
from .errors import (
    BudgetExhaustedError,
    DomainError,
    EmptySampleError,
    InvalidIndexError,
    InvalidParamsError,
)
from .measure import (
    _CHUNK_ELEMS,
    _check_bias,
    _real_array,
    as_bias_vector,
    block_rows,
    sample_batch,
    sigma,
    sigma_vector,
)
from .moments import _level_index, _Moments

__all__ = [
    "ExampleBatch",
    "Oracle",
    "ReplayOracle",
    "bias_sample_size",
    "chi_cross_coefficient",
    "chi_l2_distance",
    "dump_examples_csv",
    "estimate_bias",
    "estimate_coefficient",
    "estimate_coefficient_unknown_bias",
    "hoeffding_sample_size",
    "load_examples_csv",
    "unknown_bias_accuracy",
]


@dataclass
class ExampleBatch:
    """A block of labeled assignments stored as sign arrays.

    Only the shapes are checked when a batch is built, not that the entries
    are -1 or 1: the public estimators check the entries they read.
    """

    xs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs)
        self.labels = np.asarray(self.labels)
        if self.xs.ndim != 2 or self.labels.ndim != 1 or self.xs.shape[0] != self.labels.shape[0]:
            raise InvalidParamsError("examples need an (m, n) sign array and m labels")

    @property
    def m(self) -> int:
        return self.xs.shape[0]

    @property
    def n(self) -> int:
        return self.xs.shape[1]


class Oracle:
    """Labeled-example source for one target at one bias.

    The stream is derived from (master_seed, oracle_id), so distinct ids give
    independent streams and the same pair replays the same sequence.  Every
    served example is counted in ``draws``.  The sampler draws whole blocks;
    the oracle keeps the unserved rows of its last block (at most one block)
    and serves them first on the next call, so the rows do not depend on how
    the draws are split into calls.
    """

    def __init__(self, f: Junta, r: float, master_seed, oracle_id: int = 0):
        self.f = f
        self.bias = _check_bias(float(r))
        self.oracle_id = int(oracle_id)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(self.oracle_id,))
        )
        self.draws = 0
        self._tail = np.empty((0, f.n), dtype=np.int8)

    @property
    def n(self) -> int:
        return self.f.n

    def draw_batch(self, m: int) -> ExampleBatch:
        if m < 0:
            raise InvalidParamsError(f"batch size must be nonnegative, got {m}")
        if m <= len(self._tail):
            # the kept rows cover the call; both parts stay views of one block
            xs, self._tail = self._tail[:m], self._tail[m:]
        else:
            rows = block_rows(self.n)
            fresh = -(-(m - len(self._tail)) // rows) * rows
            drawn = sample_batch(self.bias, self._rng, len(self._tail) + fresh, self.n, self._tail)
            xs, self._tail = drawn[:m], drawn[m:].copy()
        labels = self.f.eval_batch(xs)
        self.draws += m
        return ExampleBatch(xs, labels)


class ReplayOracle:
    """Serves a stored example stream in order instead of sampling."""

    def __init__(self, batch: ExampleBatch, bias: float):
        self._batch = batch
        self.bias = float(bias)
        self._pos = 0
        self.draws = 0

    @property
    def n(self) -> int:
        return self._batch.n

    def draw_batch(self, m: int) -> ExampleBatch:
        if m < 0:
            raise InvalidParamsError(f"batch size must be nonnegative, got {m}")
        if self._pos + m > self._batch.m:
            raise BudgetExhaustedError(
                f"replay stream exhausted: need {m} more examples, "
                f"have {self._batch.m - self._pos}"
            )
        sl = slice(self._pos, self._pos + m)
        self._pos += m
        self.draws += m
        return ExampleBatch(self._batch.xs[sl], self._batch.labels[sl])


def dump_examples_csv(batch: ExampleBatch, path) -> None:
    """Write one row per example: the n signs, then the label.

    Each entry is ``1`` or ``-1``, a ``,`` separates entries, and a ``\\n``
    follows every row, the last one included.  There is no header, so an
    empty batch (an oracle that was never consulted) gives an empty file.
    The writer holds one block of rows at a time (at most _CHUNK_ELEMS
    entries, or one wider row): it fills a ``-1,`` template per entry, drops
    the ``-`` of every +1 entry and writes the rest.  An entry other than -1
    or 1 raises InvalidParamsError.
    """
    m, width = batch.m, batch.n + 1
    rows = max(1, _CHUNK_ELEMS // width)
    template = np.empty((min(m, rows), width, 3), dtype=np.uint8)
    template[...] = np.frombuffer(b"-1,", dtype=np.uint8)
    template[:, -1, 2] = ord("\n")
    keep = np.ones(template.shape, dtype=bool)
    with open(path, "wb") as fh:
        for start in range(0, m, rows):
            xs = _check_signs(batch.xs[start : start + rows], 2, "example stream entries")
            labels = _check_signs(batch.labels[start : start + rows], 1, "example stream entries")
            block = keep[: len(xs)]
            np.less(xs, 0, out=block[:, :-1, 0])
            np.less(labels, 0, out=block[:, -1, 0])
            fh.write(template[: len(xs)][block])


def load_examples_csv(path) -> ExampleBatch:
    """Read a stream written by dump_examples_csv; every entry must be -1 or 1."""
    with open(path) as fh:
        try:
            blank = not any(line.strip() for line in fh)
        except UnicodeDecodeError:
            raise InvalidParamsError(f"{path} is not UTF-8 text") from None
        if blank:
            raise EmptySampleError(f"no examples in {path}")
        fh.seek(0)
        try:
            # the format has no comments: a '#' line is a malformed row; bytes
            # that are not UTF-8 beyond what the scan above read raise
            # UnicodeDecodeError, a ValueError
            data = np.loadtxt(fh, delimiter=",", dtype=np.int8, ndmin=2, comments=None)
        except ValueError as exc:
            raise InvalidParamsError(f"{path} is not a table of -1/1 entries: {exc}") from None
    if data.shape[1] < 2:
        raise InvalidParamsError(f"{path} needs at least one sign column plus a label")
    _check_signs(data, 2, f"entries of {path}")
    return ExampleBatch(data[:, :-1], data[:, -1])


# ---------------------------------------------------------------------------
# sample-size calibration


def _sample_size(formula):
    """Wrap a sample-size formula so that a count past float range (a power
    that overflows, or a divisor that underflows to 0) raises
    InvalidParamsError."""

    @functools.wraps(formula)
    def sized(*args, **kwargs) -> int:
        try:
            return formula(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            raise InvalidParamsError(f"{formula.__name__}: sample size too large") from None

    return sized


@_sample_size
def hoeffding_sample_size(card_s: int, sigma_val: float, epsilon: float, delta: float) -> int:
    """Examples needed so one coefficient estimate of a size-card_s subset is
    within epsilon with confidence 1 - delta:

        m = ceil( 2 * ln(2/delta) * (2^card_s / epsilon)^2 * (1/sigma)^(2*card_s) ).
    """
    if card_s < 0:
        raise DomainError(f"subset size must be nonnegative, got {card_s}")
    if not 0.0 < sigma_val <= 1.0:
        raise DomainError(f"sigma must lie in (0, 1], got {sigma_val}")
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    m = 2.0 * math.log(2.0 / delta) * (2.0**card_s / epsilon) ** 2 / sigma_val ** (2 * card_s)
    return math.ceil(m)


@_sample_size
def bias_sample_size(gamma: float, delta: float) -> int:
    """Unlabeled examples needed to estimate a coordinate bias to accuracy
    gamma: m = ceil(8 * ln(4/delta) / gamma^2).  The constant already budgets
    this phase at half the caller's confidence."""
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma}")
    if not 0.0 < delta < 4.0:
        raise DomainError(f"delta must make ln(4/delta) positive, got {delta}")
    return math.ceil(8.0 * math.log(4.0 / delta) / gamma**2)


# ---------------------------------------------------------------------------
# estimators


def _subset_indices(S: Iterable, n: int) -> list[int]:
    """S as increasing column indices; each must be a distinct integer in
    [0, n), not a bool."""
    try:
        out = _as_indices(S, n, "subset index")
    except InvalidIndexError as exc:
        raise DomainError(str(exc)) from None
    if len(set(out)) < len(out):
        raise DomainError(f"subset {tuple(out)} repeats an index")
    return sorted(out)


def estimate_coefficient(batch: ExampleBatch, S: Iterable[int], r: float) -> float:
    """Empirical coefficient (1/m) sum_t label_t * chi_S(x_t, r).

    Costs O(m * 2^|S|) for the moments of every subset of S.
    """
    if batch.m == 0:
        raise EmptySampleError("coefficient estimation needs at least one example")
    S = _subset_indices(S, batch.n)
    xs = _check_signs(batch.xs[:, S], 2, "example entries")
    labels = _check_signs(batch.labels, 1, "labels")
    moments = _Moments(_level_index(len(S), len(S)))
    moments.add(xs, labels)
    return float(moments.estimates(len(S), float(r))[0])


def estimate_bias(batch: ExampleBatch) -> float:
    """Pooled mean of every coordinate of every example.

    All coordinates share one bias in the learning model, so the m * n
    pooled entries give a Hoeffding radius sqrt(2 ln(2/delta) / (m n)), a
    factor sqrt(n) under one coordinate's.  estimate_coefficient_unknown_bias
    still sizes m by the single-coordinate calibration; the learner sizes it
    by the pooled radius its scan can afford (_bias_rows).
    """
    if batch.m == 0 or batch.n == 0:
        raise EmptySampleError("bias estimation needs at least one example coordinate")
    xs = _check_signs(batch.xs, 2, "example entries")
    return int(xs.sum(dtype=np.int64)) / (batch.m * batch.n)


def unknown_bias_accuracy(alpha: float, card_s: int) -> float:
    """Bias accuracy gamma = alpha^((|S|+1)/2) / (2 (|S|+1)) that keeps the
    character perturbation within half the estimation budget."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if card_s < 0:
        raise DomainError(f"subset size must be nonnegative, got {card_s}")
    return alpha ** ((card_s + 1) / 2.0) / (2.0 * (card_s + 1))


def _bias_rows(
    alpha: float, card_s: int, delta: float, n: int, threshold: float | None = None
) -> int:
    """The bias phase's sample size, the one count that both its draw and its
    error bound read.

    Without a threshold it is the per-coordinate count
    bias_sample_size(unknown_bias_accuracy(alpha, card_s), delta).  With the
    scan's threshold (card_s >= 1) it is the fewest rows whose pooled
    radius on n columns, sqrt(2 ln(2/delta) / (m n)), is at most the eps
    that makes _bias_slack's beta at level card_s, at the worst promised
    bias |r| = 1 - alpha, a quarter of the threshold:
    ((1 + eps)^card_s - 1) / sigma(1 - alpha)^card_s = threshold / 4.  That
    count is clipped to [1, the per-coordinate count], which it also takes
    when eps underflows.
    """
    rows = bias_sample_size(unknown_bias_accuracy(alpha, card_s), delta)
    if threshold is None:
        return rows
    # sigma(1 - alpha)^card_s, with sigma(1 - alpha) = sqrt(alpha (2 - alpha))
    sig_s = (alpha * (2.0 - alpha)) ** (card_s / 2.0)
    eps = math.expm1(math.log1p(threshold * sig_s / 4.0) / card_s)
    width = 2.0 * math.log(2.0 / delta) / n
    if not eps * eps * rows > width:  # the clip binds, or eps is 0 or NaN
        return rows
    return max(1, math.ceil(width / (eps * eps)))


def _clamped_bias_estimate(
    oracle, alpha: float, card_s: int, delta: float, threshold: float | None = None
) -> float:
    """The oracle's bias, estimated from the pooled entries of
    _bias_rows(alpha, card_s, delta, oracle.n, threshold) unlabeled draws
    and clamped into [-(1-alpha), 1-alpha]."""
    m = _bias_rows(alpha, card_s, delta, oracle.n, threshold)
    est = estimate_bias(oracle.draw_batch(m))
    return min(max(est, -(1.0 - alpha)), 1.0 - alpha)


def _bias_error(
    alpha: float, card_s: int, delta: float, n: int, threshold: float | None = None
) -> float:
    """Accuracy, at confidence 1 - delta, of _clamped_bias_estimate's bias at
    the same (alpha, card_s, delta, threshold) on n columns: the Hoeffding
    radius sqrt(2 ln(2/delta) / (m n)) of the mean of the m * n pooled
    entries of its m = _bias_rows(alpha, card_s, delta, n, threshold) rows.
    The clamp only moves an estimate toward a bias that keeps the promise."""
    m = _bias_rows(alpha, card_s, delta, n, threshold)
    return math.sqrt(2.0 * math.log(2.0 / delta) / (m * n))


def estimate_coefficient_unknown_bias(
    oracle, S: Iterable[int], alpha: float, epsilon: float, delta: float
) -> float:
    """Two-phase estimate when the oracle bias is not given.

    Phase one estimates the bias from unlabeled draws to accuracy gamma =
    alpha^((|S|+1)/2) / (2(|S|+1)); phase two estimates the coefficient of
    chi_S at the estimated bias to epsilon/2.  Confidence splits evenly
    between the phases.  The bias estimate is clamped to [-(1-alpha),
    1-alpha], which never hurts when the promise |r| <= 1-alpha holds and
    keeps sigma away from zero.
    """
    S = _subset_indices(S, oracle.n)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    r_est = _clamped_bias_estimate(oracle, alpha, len(S), delta)
    m2 = hoeffding_sample_size(len(S), sigma(r_est), epsilon / 2.0, delta / 2.0)
    return estimate_coefficient(oracle.draw_batch(m2), S, r_est)


# ---------------------------------------------------------------------------
# character geometry under mismatched biases


def _bias_at(r, i: int) -> float:
    arr = _real_array(r)
    return _check_bias(float(arr) if arr.ndim == 0 else float(arr[i]))


def chi_cross_coefficient(S: Iterable[int], T: Iterable[int], r, r_prime) -> float:
    """Coefficient of chi_T(., r) in the expansion of chi_S(., r_prime) under
    the r-biased measure.

    Zero unless T is contained in S; otherwise the product of sigma_i(r) over
    T, divided by sigma_i(r_prime) over S, times prod_{i in S \\ T}
    (r_i - r_prime_i).
    """
    S = frozenset(int(i) for i in S)
    T = frozenset(int(i) for i in T)
    if any(i < 0 for i in S | T):
        raise DomainError("subset indices must be nonnegative")
    if not T <= S:
        return 0.0
    out = 1.0
    for i in T:
        out *= sigma(_bias_at(r, i))
    for i in S:
        out /= sigma(_bias_at(r_prime, i))
    for i in S - T:
        out *= _bias_at(r, i) - _bias_at(r_prime, i)
    return out


def chi_l2_distance(S: Iterable[int], r, r_prime, n: int) -> float:
    """L2 distance under the r-biased measure between chi_S at the two
    biases, by exact enumeration of the cube (n <= 14)."""
    X = assignments(n).astype(np.float64)
    S = sorted(int(i) for i in S)
    for i in S:
        if not 0 <= i < n:
            raise DomainError(f"subset index {i} outside [0, {n})")
    rv = as_bias_vector(r, n)
    rpv = as_bias_vector(r_prime, n)
    dens = np.prod((1.0 + X * rv) / 2.0, axis=1)
    sig = sigma_vector(rv)
    sig_p = sigma_vector(rpv)
    col = np.ones(1 << n)
    col_p = np.ones(1 << n)
    for i in S:
        col *= (X[:, i] - rv[i]) / sig[i]
        col_p *= (X[:, i] - rpv[i]) / sig_p[i]
    diff = col_p - col
    return float(math.sqrt(np.dot(dens * diff, diff)))

"""Example oracles and calibrated coefficient estimators.

An oracle serves labeled draws from one biased product measure.  Sample
sizes come from Hoeffding bounds on the standardized characters, whose range
grows like (2 / sigma)^|S|, hence the (2^|S| / (epsilon * sigma^|S|))^2
factor in the calibration.

Every coefficient estimate comes from one moment engine.  For +/-1 data,

    sum_t y_t prod_{i in S} (x_{t,i} - r_i)
        = sum_{T subset S} prod_{i in S \\ T} (-r_i) * M_T,
    M_T = sum_t y_t prod_{i in T} x_{t,i},

and each M_T is an integer.  The engine computes the moments of every subset
up to the needed size by float64 matrix products over fixed blocks of rows.
All entries are +/-1, so every partial sum is an integer of magnitude at most
m < 2^53 and the products are exact in any summation order.  One combine step
then turns exact moments into an estimate with a fixed arithmetic order, so a
batch scan and a per-subset call produce bit-identical values and a replayed
example stream reproduces a run decision for decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .boolfn import Junta, assignments
from .errors import (
    BudgetExhaustedError,
    DomainError,
    EmptySampleError,
    InvalidParamsError,
)
from .measure import as_bias_vector, sample_batch, sigma, sigma_vector

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
    "estimate_level_batch",
    "hoeffding_sample_size",
    "load_examples_csv",
    "unknown_bias_accuracy",
]


@dataclass
class ExampleBatch:
    """A block of labeled assignments stored as sign arrays."""

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

    @classmethod
    def concat(cls, parts: Sequence["ExampleBatch"]) -> "ExampleBatch":
        return cls(
            np.concatenate([p.xs for p in parts], axis=0),
            np.concatenate([p.labels for p in parts]),
        )


class Oracle:
    """Labeled-example source for one target at one bias.

    The stream is derived from (master_seed, oracle_id), so distinct ids give
    independent streams and the same pair replays the same sequence.  Every
    served example is counted in ``draws``.
    """

    def __init__(self, f: Junta, r: float, master_seed, oracle_id: int = 0):
        r = float(r)
        if not -1.0 < r < 1.0:
            raise DomainError(f"oracle bias must lie in (-1, 1), got {r}")
        self.f = f
        self.bias = r
        self.oracle_id = int(oracle_id)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(self.oracle_id,))
        )
        self.draws = 0

    @property
    def n(self) -> int:
        return self.f.n

    def draw_batch(self, m: int) -> ExampleBatch:
        if m < 0:
            raise InvalidParamsError(f"batch size must be nonnegative, got {m}")
        xs = sample_batch(self.bias, self._rng, m, self.n)
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
    """One row per example: n sign columns then the label, all -1/1."""
    np.savetxt(path, np.column_stack([batch.xs, batch.labels]), fmt="%d", delimiter=",")


def load_examples_csv(path) -> ExampleBatch:
    """Read a stream written by dump_examples_csv; every entry must be -1 or 1."""
    with open(path) as fh:
        if not any(line.strip() for line in fh):
            raise EmptySampleError(f"no examples in {path}")
        fh.seek(0)
        try:
            # the format has no comments: a '#' line is a malformed row
            data = np.loadtxt(fh, delimiter=",", dtype=np.int8, ndmin=2, comments=None)
        except ValueError as exc:
            raise InvalidParamsError(f"{path} is not a table of -1/1 entries: {exc}") from None
    if data.shape[1] < 2:
        raise InvalidParamsError(f"{path} needs at least one sign column plus a label")
    if not np.all((data == 1) | (data == -1)):
        raise InvalidParamsError(f"{path} has entries other than -1 and 1")
    return ExampleBatch(data[:, :-1], data[:, -1])


# ---------------------------------------------------------------------------
# sample-size calibration


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


# Each block of rows in the moment products holds at most this many float64
# entries, so the engine's working memory does not grow with the sample size.
_CHUNK_ELEMS = 1 << 18


def _next_products(w: np.ndarray, xt: np.ndarray, j: int) -> np.ndarray:
    """Rows y * prod_{i in P} x_i for every j-subset P of the rows of xt, in
    colex order, from w holding those of the (j-1)-subsets.

    In colex order the j-subsets whose largest element is ``last`` form one
    contiguous block, and their remainders are the first C(last, j-1)
    (j-1)-subsets.
    """
    c, rows = xt.shape
    out = np.empty((math.comb(c, j), rows))
    for last in range(j - 1, c):
        lo, cnt = math.comb(last, j), math.comb(last, j - 1)
        np.multiply(w[:cnt], xt[last], out=out[lo : lo + cnt])
    return out


def _moment_tables(xs: np.ndarray, labels: np.ndarray, s: int) -> list:
    """Exact moments M_T of every column subset T with |T| <= s.

    tables[0] is M_empty; for l >= 1, tables[l][p][i] is M_{P + {i}} where P
    is the (l-1)-subset of colex rank p and i > max(P).  Working memory is
    O(_CHUNK_ELEMS + C(n, s-1) * n) whatever the number of rows.
    """
    m, c = xs.shape
    widths = [math.comb(c, j) for j in range(s)]
    rows = max(1, _CHUNK_ELEMS // max(1, sum(widths) + c))
    products = [np.zeros((width, c)) for width in widths]
    for start in range(0, m, rows):
        # one row per column, so each product extension writes whole rows
        xt = xs[start : start + rows].T.astype(np.float64, order="C")
        w = labels[start : start + rows].astype(np.float64)[None, :]
        for j in range(1, s + 1):
            products[j - 1] += w @ xt.T
            if j < s:
                w = _next_products(w, xt, j)
    return [float(labels.sum(dtype=np.int64))] + [table.tolist() for table in products]


def _moment(tables: list, T: Sequence[int]) -> float:
    if not T:
        return tables[0]
    rank = sum(math.comb(i, b + 1) for b, i in enumerate(T[:-1]))
    return tables[len(T)][rank][T[-1]]


def _combine(tables: list, S: Sequence[int], rv: list, sig: list, m: int) -> float:
    """The estimate (1/m) sum_t y_t chi_S(x_t, r) from exact moments.

    Sums the expansion over T subset S in one fixed order, so every caller
    gets the same bits for the same subset, bias and example block.
    """
    acc = 0.0
    for mask in range(1 << len(S)):
        term = _moment(tables, [i for b, i in enumerate(S) if mask >> b & 1])
        for b, i in enumerate(S):
            if not mask >> b & 1:
                term *= -rv[i]
        acc += term
    scale = 1.0
    for i in S:
        scale *= sig[i]
    return acc / scale / m


def estimate_coefficient(batch: ExampleBatch, S: Iterable[int], r) -> float:
    """Empirical coefficient (1/m) sum_t label_t * chi_S(x_t, r).

    Costs O(m * 2^|S|) for the moments of every subset of S.
    """
    if batch.m == 0:
        raise EmptySampleError("coefficient estimation needs at least one example")
    S = sorted(int(i) for i in S)
    for i in S:
        if not 0 <= i < batch.n:
            raise DomainError(f"subset index {i} outside [0, {batch.n})")
    rv = as_bias_vector(r, batch.n)[S]
    tables = _moment_tables(batch.xs[:, S], batch.labels, len(S))
    return _combine(tables, range(len(S)), rv.tolist(), sigma_vector(rv).tolist(), batch.m)


def estimate_level_batch(batch: ExampleBatch, s_max: int, r) -> dict[tuple[int, ...], float]:
    """Estimates for every subset of size 1..s_max, reusing one example block.

    Keys run by size, then in lexicographic order.  The moments of all
    subsets come from one pass of exact integer-valued products, and each
    entry is combined by the same arithmetic as a per-subset
    estimate_coefficient call, so the two paths agree bit for bit.
    """
    if batch.m == 0:
        raise EmptySampleError("coefficient estimation needs at least one example")
    if s_max < 1:
        raise InvalidParamsError(f"s_max must be >= 1, got {s_max}")
    rv = as_bias_vector(r, batch.n)
    top = min(s_max, batch.n)
    tables = _moment_tables(batch.xs, batch.labels, top)
    rl, sig = rv.tolist(), sigma_vector(rv).tolist()
    return {
        S: _combine(tables, S, rl, sig, batch.m)
        for size in range(1, top + 1)
        for S in combinations(range(batch.n), size)
    }


def estimate_bias(batch: ExampleBatch) -> float:
    """Pooled mean of every coordinate of every example.

    All coordinates share one bias in the learning model, so pooling across
    coordinates tightens the estimate by a factor sqrt(n) over the
    single-coordinate calibration that sizes the sample.
    """
    if batch.m == 0 or batch.n == 0:
        raise EmptySampleError("bias estimation needs at least one example coordinate")
    return int(batch.xs.sum(dtype=np.int64)) / (batch.m * batch.n)


def unknown_bias_accuracy(alpha: float, card_s: int) -> float:
    """Bias accuracy gamma = alpha^((|S|+1)/2) / (2 (|S|+1)) that keeps the
    character perturbation within half the estimation budget."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if card_s < 0:
        raise DomainError(f"subset size must be nonnegative, got {card_s}")
    return alpha ** ((card_s + 1) / 2.0) / (2.0 * (card_s + 1))


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
    S = sorted(int(i) for i in S)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    gamma = unknown_bias_accuracy(alpha, len(S))
    m1 = bias_sample_size(gamma, delta)
    r_est = estimate_bias(oracle.draw_batch(m1))
    r_est = min(max(r_est, -(1.0 - alpha)), 1.0 - alpha)
    m2 = hoeffding_sample_size(len(S), sigma(r_est), epsilon / 2.0, delta / 2.0)
    return estimate_coefficient(oracle.draw_batch(m2), S, r_est)


# ---------------------------------------------------------------------------
# character geometry under mismatched biases


def _bias_at(r, i: int) -> float:
    arr = np.asarray(r, dtype=np.float64)
    v = float(arr) if arr.ndim == 0 else float(arr[i])
    if not -1.0 < v < 1.0:
        raise DomainError(f"bias must lie in (-1, 1), got {v}")
    return v


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

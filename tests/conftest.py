import math
from typing import Sequence

import numpy as np
import pytest

from juntalab import Junta, random_junta

# filled in by the release-gate tests; echoed after the run so the verdict
# survives pytest's output capture
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("release gate")
        for line in CRITERION_LINES:
            terminalreporter.line(line)


def parity_core(k):
    """Core table of the k-variable parity (product of signs)."""
    out = []
    for idx in range(1 << k):
        sign = 1
        for b in range(k):
            sign *= 1 if (idx >> b) & 1 else -1
        out.append(sign)
    return tuple(out)


def fsum_coefficient(batch, S: Sequence[int], rv: np.ndarray) -> float:
    """Reference estimate (1/m) sum_t label_t * chi_S(x_t, r): one exactly
    rounded sum over the examples per subset, independent of the moment
    engine in juntalab.sampling."""
    terms = batch.labels.astype(np.float64)
    scale = 1.0
    for i in S:
        terms = terms * (batch.xs[:, i].astype(np.float64) - rv[i])
        scale *= math.sqrt((1.0 - rv[i]) * (1.0 + rv[i]))
    if scale != 1.0:
        terms = terms / scale
    # exactly rounded sum in example order; replays agree bit for bit
    return math.fsum(terms.tolist()) / batch.m


def majority_core(k):
    assert k % 2 == 1
    out = []
    for idx in range(1 << k):
        ones = idx.bit_count()
        out.append(1 if 2 * ones > k else -1)
    return tuple(out)


def random_suite(count, max_k, max_n, seed, require_nonconstant=True):
    """Deterministic batch of random juntas with k >= 1."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(1, max_k + 1))
        n = int(rng.integers(k, max_n + 1))
        out.append(
            random_junta(n, k, int(rng.integers(0, 2**31)), require_nonconstant=require_nonconstant)
        )
    return out


@pytest.fixture
def and2():
    return Junta(5, (0, 2), (-1, -1, -1, 1))


@pytest.fixture
def par3():
    return Junta(3, (0, 1, 2), parity_core(3))


@pytest.fixture
def par3_wide():
    return Junta(10, (2, 5, 8), parity_core(3))


@pytest.fixture
def maj3():
    return Junta(7, (0, 3, 6), majority_core(3))

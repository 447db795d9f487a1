"""Boolean juntas on the signed cube {-1,+1}^n.

A k-junta is stored as a core table over its relevant coordinates.  Table
indices follow one convention everywhere, including the JSON format and
learner truth tables: bit b of an index (least significant bit first)
corresponds to ``relevant[b]``, and a set bit means that variable is +1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidIndexError,
    InvalidParamsError,
    LengthMismatchError,
    SizeLimitError,
)

MAX_CORE_VARS = 20  # core tables are materialized, so k is capped at 2**20 entries
MAX_ENUM_VARS = 14  # full-cube enumeration cap shared by the brute-force paths

__all__ = [
    "MAX_CORE_VARS",
    "MAX_ENUM_VARS",
    "Junta",
    "assignments",
    "degree",
    "random_junta",
    "relevant_variables_bruteforce",
    "walsh_numerators",
]


def _as_sign(value, what: str) -> int:
    if value in (-1, 1) or value in (-1.0, 1.0):
        return 1 if value > 0 else -1
    raise InvalidParamsError(f"{what} must be -1 or +1, got {value!r}")


def _is_json_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Junta:
    """A function of n variables depending only on the ``relevant`` ones.

    ``relevant`` is a strictly increasing tuple of 0-based ambient indices
    and ``core`` holds the 2**k values of the function on those variables.
    """

    n: int
    relevant: tuple[int, ...]
    core: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 0:
            raise InvalidParamsError(f"n must be a nonnegative integer, got {self.n!r}")
        rel = tuple(int(i) for i in self.relevant)
        if len(rel) > MAX_CORE_VARS:
            raise InvalidParamsError(
                f"at most {MAX_CORE_VARS} relevant variables are supported, got {len(rel)}"
            )
        for i in rel:
            if not 0 <= i < self.n:
                raise InvalidIndexError(f"relevant index {i} outside [0, {self.n})")
        if any(a >= b for a, b in zip(rel, rel[1:])):
            raise InvalidParamsError(f"relevant indices must be strictly increasing, got {rel}")
        core = tuple(_as_sign(v, "core entry") for v in self.core)
        if len(core) != 1 << len(rel):
            raise LengthMismatchError(
                f"core must have 2**{len(rel)} = {1 << len(rel)} entries, got {len(core)}"
            )
        object.__setattr__(self, "relevant", rel)
        object.__setattr__(self, "core", core)

    @property
    def k(self) -> int:
        return len(self.relevant)

    def core_index(self, x: Sequence[int]) -> int:
        idx = 0
        for b, var in enumerate(self.relevant):
            if x[var] > 0:
                idx |= 1 << b
        return idx

    def eval(self, x: Sequence[int]) -> int:
        """Evaluate at one assignment of all n variables."""
        if len(x) != self.n:
            raise LengthMismatchError(f"assignment has length {len(x)}, expected {self.n}")
        for v in x:
            if v != -1 and v != 1:
                raise InvalidParamsError(f"assignment entries must be -1 or +1, got {v!r}")
        return self.core[self.core_index(x)]

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of an (m, n) array of sign rows.

        Entries are trusted to be -1/+1; use eval() when validation matters.
        """
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise LengthMismatchError(f"expected shape (m, {self.n}), got {xs.shape}")
        if self.k == 0:
            return np.full(xs.shape[0], self.core[0], dtype=np.int8)
        bits = (xs[:, list(self.relevant)] > 0).astype(np.int64)
        idx = bits @ (1 << np.arange(self.k, dtype=np.int64))
        return np.asarray(self.core, dtype=np.int8)[idx]

    def constant_value(self) -> int | None:
        """The constant sign if the core table is constant, else None.

        This is exact table inspection, not a sampling test.
        """
        first = self.core[0]
        return first if all(v == first for v in self.core) else None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "relevant": list(self.relevant),
            "core": "".join("1" if v > 0 else "0" for v in self.core),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Junta":
        try:
            n = data["n"]
            relevant = data["relevant"]
            core_str = data["core"]
        except (KeyError, TypeError) as exc:
            raise InvalidParamsError(f"junta JSON missing field: {exc}") from exc
        if not _is_json_int(n):
            raise InvalidParamsError(f"n must be a JSON integer, got {n!r}")
        if not isinstance(relevant, list) or not all(_is_json_int(i) for i in relevant):
            raise InvalidParamsError(f"relevant must be a list of JSON integers, got {relevant!r}")
        if not isinstance(core_str, str) or any(c not in "01" for c in core_str):
            raise InvalidParamsError("core must be a string over '0'/'1'")
        core = tuple(1 if c == "1" else -1 for c in core_str)
        return cls(n, tuple(relevant), core)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Junta":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParamsError(f"malformed junta JSON: {exc}") from exc
        return cls.from_json_dict(data)


def random_junta(n: int, k: int, seed, require_nonconstant: bool = False) -> Junta:
    """Draw a junta with k relevant variables chosen uniformly and a uniform core.

    With ``require_nonconstant`` the core is redrawn until it is not constant,
    which forces k >= 1.
    """
    if not 0 <= k <= n:
        raise InvalidParamsError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k > MAX_CORE_VARS:
        raise InvalidParamsError(f"k={k} exceeds the core cap {MAX_CORE_VARS}")
    if require_nonconstant and k == 0:
        raise InvalidParamsError("a 0-junta is constant; cannot require nonconstant")
    rng = np.random.default_rng(seed)
    relevant = tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
    while True:
        core = tuple(int(v) for v in 2 * rng.integers(0, 2, size=1 << k) - 1)
        if not require_nonconstant or len(set(core)) > 1:
            return Junta(n, relevant, core)


def relevant_variables_bruteforce(f: Junta) -> frozenset[int]:
    """Exact flip test over the full core table: i is relevant iff flipping
    x_i changes f at some point."""
    t = np.asarray(f.core)
    # in the (-1, 2, 2**b) view, [:, 0] and [:, 1] differ only in bit b
    flips = [np.any(np.diff(t.reshape(-1, 2, 1 << b), axis=1)) for b in range(f.k)]
    return frozenset(var for var, flip in zip(f.relevant, flips) if flip)


def _walsh(core: Sequence[int]) -> np.ndarray:
    """The integer Walsh transform as an int64 array (see walsh_numerators)."""
    t = np.asarray(core)
    size = t.size
    if t.ndim != 1 or size == 0 or size & (size - 1):
        raise LengthMismatchError(f"core length must be a power of two, got {size}")
    # each butterfly at most doubles the largest magnitude, so the transform
    # stays exact while size * max|core| fits in int64
    if size * max(int(t.max()), -int(t.min())) > np.iinfo(np.int64).max:
        raise InvalidParamsError(f"core entries too large for an exact transform of size {size}")
    t = t.astype(np.int64)
    for b in range(size.bit_length() - 1):
        v = t.reshape(-1, 2, 1 << b)
        v[:, 0], v[:, 1] = v[:, 0] + v[:, 1], v[:, 1] - v[:, 0]
    return t


def walsh_numerators(core: Sequence[int]) -> list[int]:
    """Integer Walsh transform of a core table.

    Returns W indexed by subset mask with W[mask] = sum_x core(x) * prod_{b in
    mask} x_b, so the level-0 orthonormal coefficient of the core function is
    W[mask] / 2**k.  Exact: the transform runs in int64, and a table whose
    transform could overflow it raises InvalidParamsError.
    """
    return _walsh(core).tolist()


def degree(f: Junta) -> int:
    """Largest subset size carrying a nonzero coefficient of the core, from
    the exact Walsh transform.  Constants have degree 0."""
    return int(np.bitwise_count(np.flatnonzero(_walsh(f.core))).max(initial=0))


@lru_cache(maxsize=8)
def assignments(n: int) -> np.ndarray:
    """All 2**n sign rows; row index bit b set means column b is +1.

    Capped at n <= 14 since every consumer is a brute-force enumeration path.
    """
    if n > MAX_ENUM_VARS:
        raise SizeLimitError(f"full enumeration is capped at n <= {MAX_ENUM_VARS}, got {n}")
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.empty((1 << n, n), dtype=np.int8)
    for b in range(n):
        out[:, b] = np.where((idx >> b) & 1, 1, -1)
    out.setflags(write=False)
    return out

"""Boolean juntas on the signed cube {-1,+1}^n.

A k-junta is stored as a core table over its relevant coordinates.  Table
indices follow one convention everywhere, including the JSON format and
learner truth tables: bit b of an index (least significant bit first)
corresponds to ``relevant[b]``, and a set bit means that variable is +1.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InvalidIndexError,
    InvalidParamsError,
    LengthMismatchError,
    SizeLimitError,
)

MAX_AMBIENT_VARS = 1 << 20  # samplers and bias vectors hold n entries per row
MAX_CORE_VARS = 20  # core tables are materialized, so k is capped at 2**20 entries
MAX_ENUM_VARS = 14  # full-cube enumeration cap shared by the brute-force paths

__all__ = [
    "MAX_AMBIENT_VARS",
    "MAX_CORE_VARS",
    "MAX_ENUM_VARS",
    "Junta",
    "assignments",
    "degree",
    "random_junta",
    "relevant_variables_bruteforce",
    "walsh_numerators",
]


def _check_signs(values, ndim: int, what: str) -> np.ndarray:
    """values as an int8 array, if it has ndim axes and every entry equals -1
    or 1; anything else, strings, None and nested sequences included, raises
    InvalidParamsError.  An int8 array comes back as itself, not a copy."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "iu":
            # reductions only: no temporary as large as a whole sample
            ok = arr.min(initial=1) >= -1 and arr.max(initial=1) <= 1
            ok = ok and np.count_nonzero(arr) == arr.size
        else:
            ok = np.all((arr == 1) | (arr == -1))
        if ok and arr.ndim == ndim:
            return arr.astype(np.int8, copy=False)
    except (TypeError, ValueError):
        pass
    raise InvalidParamsError(f"{what} must be -1 or +1")


def _as_indices(values, n: int, what: str) -> list[int]:
    """values as Python ints in [0, n); a bool, a non-integer or an index
    out of range raises InvalidIndexError.  numpy integers pass."""
    out = []
    for i in values:
        try:
            if isinstance(i, bool):  # operator.index refuses only numpy bools
                raise TypeError
            j = operator.index(i)
        except TypeError:
            raise InvalidIndexError(f"{what} {i!r} is not an integer") from None
        if not 0 <= j < n:
            raise InvalidIndexError(f"{what} {i} outside [0, {n})")
        out.append(j)
    return out


def _is_strict_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _sign_pattern(xs: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Table index of each row's signs on cols: bit b is cols[b], set means +1."""
    bits = (xs[:, list(cols)] > 0).astype(np.int64)
    return bits @ (1 << np.arange(len(cols), dtype=np.int64))


@dataclass(frozen=True)
class Junta:
    """A function of n variables depending only on the ``relevant`` ones.

    ``relevant`` is a strictly increasing tuple of 0-based ambient indices
    and ``core`` holds the 2**k values of the function on those variables.
    The read-only arrays ``table`` (the int8 core the constructor checked)
    and ``walsh`` (built on first use) are kept on the instance; equality,
    hashing, copies and pickles see only the three fields.
    """

    n: int
    relevant: tuple[int, ...]
    core: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 0 <= self.n <= MAX_AMBIENT_VARS:
            raise InvalidParamsError(
                f"n must be an integer in [0, {MAX_AMBIENT_VARS}], got {self.n!r}"
            )
        rel = tuple(_as_indices(self.relevant, self.n, "relevant index"))
        if len(rel) > MAX_CORE_VARS:
            raise InvalidParamsError(
                f"at most {MAX_CORE_VARS} relevant variables are supported, got {len(rel)}"
            )
        if any(a >= b for a, b in zip(rel, rel[1:])):
            raise InvalidParamsError(f"relevant indices must be strictly increasing, got {rel}")
        table = _check_signs(tuple(self.core), 1, "core entries")
        if table.size != 1 << len(rel):
            raise LengthMismatchError(
                f"core must have 2**{len(rel)} = {1 << len(rel)} entries, got {table.size}"
            )
        table.setflags(write=False)
        object.__setattr__(self, "relevant", rel)
        object.__setattr__(self, "core", tuple(table.tolist()))
        object.__setattr__(self, "_table", table)

    def __reduce__(self):
        # copies rebuild the arrays from the three fields rather than carry them
        return (Junta, (self.n, self.relevant, self.core))

    @property
    def k(self) -> int:
        return len(self.relevant)

    @property
    def table(self) -> np.ndarray:
        """The core as a read-only int8 array: the one the constructor checked."""
        return self._table

    @cached_property
    def walsh(self) -> np.ndarray:
        """The Walsh numerators of the core (see walsh_numerators) as a
        read-only int64 array, built once per junta."""
        w = _walsh(self.table)
        w.setflags(write=False)
        return w

    def eval(self, x: Sequence[int]) -> int:
        """Evaluate at one assignment of all n variables."""
        if len(x) != self.n:
            raise LengthMismatchError(f"assignment has length {len(x)}, expected {self.n}")
        x = _check_signs(x, 1, "assignment entries")
        return self.core[_sign_pattern(x[None, :], self.relevant)[0]]

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of an (m, n) array of sign rows.

        Entries are trusted to be -1/+1; use eval() when validation matters.
        """
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise LengthMismatchError(f"expected shape (m, {self.n}), got {xs.shape}")
        return self.table[_sign_pattern(xs, self.relevant)]

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
        if not _is_strict_int(n):
            raise InvalidParamsError(f"n must be a JSON integer, got {n!r}")
        if not isinstance(relevant, list) or not all(_is_strict_int(i) for i in relevant):
            raise InvalidParamsError(f"relevant must be a list of JSON integers, got {relevant!r}")
        if not isinstance(core_str, str) or any(c not in "01" for c in core_str):
            raise InvalidParamsError("core must be a string over '0'/'1'")
        core = tuple(1 if c == "1" else -1 for c in core_str)
        return cls(n, tuple(relevant), core)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def random_junta(n: int, k: int, seed, require_nonconstant: bool = False) -> Junta:
    """Draw a junta with k relevant variables chosen uniformly and a uniform core.

    With ``require_nonconstant`` the core is redrawn until it is not constant,
    which forces k >= 1.
    """
    if not 0 <= k <= n <= MAX_AMBIENT_VARS:
        raise InvalidParamsError(f"need 0 <= k <= n <= {MAX_AMBIENT_VARS}, got k={k}, n={n}")
    if k > MAX_CORE_VARS:
        raise InvalidParamsError(f"k={k} exceeds the core cap {MAX_CORE_VARS}")
    if require_nonconstant and k == 0:
        raise InvalidParamsError("a 0-junta is constant; cannot require nonconstant")
    rng = np.random.default_rng(seed)
    relevant = tuple(sorted(int(i) for i in rng.choice(n, size=k, replace=False)))
    while True:
        core = (2 * rng.integers(0, 2, size=1 << k) - 1).tolist()
        if not require_nonconstant or len(set(core)) > 1:
            return Junta(n, relevant, tuple(core))


def relevant_variables_bruteforce(f: Junta) -> frozenset[int]:
    """Exact flip test over the full core table: i is relevant iff flipping
    x_i changes f at some point."""
    t = f.table
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
    transform could overflow it raises InvalidParamsError.  Each call runs
    the transform afresh; ``Junta.walsh`` is the same transform of a junta's
    core, run once and kept.
    """
    return _walsh(core).tolist()


def degree(f: Junta) -> int:
    """Largest subset size carrying a nonzero coefficient of the core, from
    the exact Walsh transform.  Constants have degree 0."""
    return int(np.bitwise_count(np.flatnonzero(f.walsh)).max(initial=0))


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

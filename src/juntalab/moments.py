"""The exact moment engine behind every coefficient estimate.

For +/-1 data,

    sum_t y_t prod_{i in S} (x_{t,i} - r)
        = sum_{T subset S} (-r)^{|S \\ T|} * M_T,
    M_T = sum_t y_t prod_{i in T} x_{t,i},

and each M_T is an integer.  The engine packs each block of rows one bit per
row and column and counts M_T = m - 2 * popcount(y XOR x_T) in int64 for
every subset up to the needed size, one array per level in lexicographic
order.  The counts are running sums: rows can arrive in any number of
batches, each row is counted once, and the moments are exact whatever the
split.  One array combine then turns the exact moments of a level into its
estimates with a fixed order of elementwise float64 operations, so a batch
scan, a per-subset call and a scan that reads its stream in growing prefixes
produce bit-identical values on the same rows, and a replayed example stream
reproduces a run decision for decision.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .measure import _CHUNK_ELEMS, sigma

__all__: list[str] = []


def _binomials(c: int, s: int) -> np.ndarray:
    """The (c + 1, s + 1) table of C(a, b), column b the running sums of column
    b - 1: C(a, b) = sum_{a' < a} C(a', b - 1)."""
    table = np.zeros((c + 1, s + 1), dtype=np.int64)
    table[:, 0] = 1
    for b in range(1, s + 1):
        np.cumsum(table[:-1, b - 1], out=table[1:, b])
    return table


def _lex_rank(T: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each row of T, an increasing k-subset of
    range(c), among all k-subsets, with binom = _binomials(c, s), s >= k:

        C(c, k) - 1 - sum_i C(c - 1 - T[:, i], k - i),

    the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3) applied to the
    complements c - 1 - T[:, i], whose colexicographic order reverses the
    lexicographic one.
    """
    c, k = len(binom) - 1, T.shape[1]
    rank = np.full(len(T), binom[c, k] - 1)
    for i in range(k):
        rank -= binom[c - 1 - T[:, i], k - i]
    return rank


def _subsets(c: int, s: int) -> list[np.ndarray]:
    """The j-subsets of range(c) for j = 0..s, one (C(c, j), j) array per
    level in lexicographic order.

    The j-subsets with least element f are f joined to the (j-1)-subsets of
    {f+1, ..., c-1}, which are the last C(c-f-1, j-1) rows of level j-1.
    """
    binom = _binomials(c, s)
    levels = [np.zeros((1, 0), dtype=np.intp)]
    for j in range(1, s + 1):
        runs = binom[c - 1 :: -1, j - 1]  # C(c-f-1, j-1) for f = 0..c-1
        lead = np.repeat(np.arange(c), runs)
        first = np.cumsum(runs) - runs  # the run of f starts at first[f]
        tail = np.arange(len(lead)) + np.repeat(len(levels[-1]) - runs - first, runs)
        levels.append(np.column_stack([lead, levels[-1][tail]]))
    return levels


def _packed(xs: np.ndarray, labels: np.ndarray, words: int) -> tuple:
    """A block of rows, rows <= 64 * words, as 64-bit words: a (words, c)
    array for the c columns of xs and a (words, 1) array for the labels.
    Each row is one bit of each column's words, set when the sign is -1,
    and bits for rows past the block are 0.

    Each entry's 0/1 flag is one byte.  The rows fall into 8 parts of
    8 * words rows, and part k holds its column flags row by row, then its
    label flags.  Part k is shifted to bit k and or-ed into the others, as
    64-bit words over whole contiguous parts; a byte transpose then gathers
    each column's 8 bytes of a word.  Columns and labels map rows to bits
    the same way.
    """
    rows, c = xs.shape
    part = 8 * words
    flags = np.zeros((8, part * (c + 1)), dtype=np.uint8)
    x_flags = flags[:, : part * c].reshape(8, part, c).view(bool)
    y_flags = flags[:, part * c :].view(bool)
    full, rest = divmod(rows, part)
    np.less(xs[: full * part].reshape(full, part, c), 0, out=x_flags[:full])
    np.less(labels[: full * part].reshape(full, part), 0, out=y_flags[:full])
    if rest:
        np.less(xs[full * part :], 0, out=x_flags[full, :rest])
        np.less(labels[full * part :], 0, out=y_flags[full, :rest])
    parts = flags.view(np.uint64)
    packed = parts[0].copy()
    for k in range(1, 8):
        packed |= parts[k] << np.uint64(k)
    packed = packed.view(np.uint8)
    groups = packed[: part * c].reshape(words, 8, c).transpose(0, 2, 1)
    x = np.ascontiguousarray(groups).view(np.uint64)[..., 0]
    return x, packed[part * c :].view(np.uint64)[:, None]


# an index with at most this many entries is kept for later scans of the same
# (columns, levels); a larger one lives as long as its scan
_INDEX_CACHE_ENTRIES = 1 << 16
# a level's combine ranks are kept when they come to at most this many
# entries, and rebuilt at each combine when they do not
_KEPT_RANK_ENTRIES = 1 << 22


class _LevelIndex:
    """The engine's index structures for the subsets of c columns with
    |T| <= s, built once and shared by every batch counted against them.

    Level j holds the j-subsets in lexicographic order (_subsets); each
    j-subset's lead column and the lexicographic rank of its tail among the
    (j-1)-subsets, which the popcount pass gathers; and, per mask of a
    level's positions, the rank of the subset the mask selects, which the
    combine gathers.  The combine ranks of a level are built when the
    level is first combined, and kept unless they pass _KEPT_RANK_ENTRIES.
    """

    def __init__(self, c: int, s: int):
        self.s = s
        self.subsets, self.binom = _subsets(c, s), _binomials(c, s)
        self.lead = [T[:, 0] for T in self.subsets[1:]]
        self.tail = [_lex_rank(T[:, 1:], self.binom) for T in self.subsets[1:]]
        sizes = [len(T) for T in self.subsets]
        # bytes alive per 64 rows: a flag per entry while packing, then the
        # packed columns with level j-1's vectors and level j's (a gather,
        # the gathered lead columns and a popcount byte per subset)
        level = max((8 * a + 17 * b for a, b in zip(sizes, sizes[1:])), default=0)
        self.row_bytes = max(64 * (c + 1), 8 * c + level)
        self._ranks: dict = {}

    def ranks(self, j: int) -> list:
        """Per mask of level j's positions, from 0 to 2^j - 1, the rank of
        the subset it selects in its level; None for the whole subset."""
        if j in self._ranks:
            return self._ranks[j]
        S, full = self.subsets[j], (1 << j) - 1
        out = [
            None if mask == full else
            _lex_rank(S[:, [b for b in range(j) if mask >> b & 1]], self.binom)
            for mask in range(1 << j)
        ]
        if len(S) << j <= _KEPT_RANK_ENTRIES:
            self._ranks[j] = out
        return out


_kept_index = functools.lru_cache(maxsize=8)(_LevelIndex)


def _level_index(c: int, s: int) -> _LevelIndex:
    """The index for (c, s): a kept one when its subsets, ranks and combine
    ranks come to at most _INDEX_CACHE_ENTRIES entries, else a fresh one."""
    entries = sum(math.comb(c, j) * (j + 1 + (1 << j)) for j in range(s + 1))
    if entries <= _INDEX_CACHE_ENTRIES:
        return _kept_index(c, s)
    return _LevelIndex(c, s)


# the bound of _Moments.bound is raised by this factor, far above the rounding
# of either the bound or an estimate, so that a skipped level never hides a hit
_BOUND_SLACK = 1.0 + 2.0**-30


class _Moments:
    """Exact moments M_T of a growing example stream, for every subset T of
    its c columns with |T| <= s, one int64 array per level in lexicographic
    order.  Every entry of the rows must be -1 or 1.

    add() packs each block of rows one bit per row and column (bit set for
    -1), together with the labels.  With v_T the XOR of the label bits and
    the bits of the columns in T, popcount(v_T) counts the rows where
    y * x_T = -1; level j's vectors are level j-1's vectors of T minus its
    least element, gathered by tail rank, XOR that element's column.  The
    counts add up over blocks and calls, so M_T = m - 2 * count_T is exact
    however the stream is split and each row is counted once.  A block is a
    multiple of 64 rows, sized so that the buffers alive at once come to
    about _CHUNK_ELEMS bytes; working memory does not grow with the rows.
    """

    def __init__(self, index: _LevelIndex):
        self.index = index
        self.m = 0
        self.counts = [np.zeros(len(T), dtype=np.int64) for T in self.index.subsets]
        self._moments: list = []
        self._maxabs: dict = {}

    def add(self, xs: np.ndarray, labels: np.ndarray) -> None:
        ix = self.index
        rows = 64 * max(1, _CHUNK_ELEMS // ix.row_bytes)
        for start in range(0, len(labels), rows):
            block = slice(start, start + rows)
            words = -(-len(labels[block]) // 64)
            x, v = _packed(xs[block], labels[block], words)
            for j in range(ix.s + 1):
                if j == 1:  # level 1 leads with every column in order, tail empty
                    v = x ^ v
                elif j:
                    v = np.take(v, ix.tail[j - 1], axis=1)
                    v ^= np.take(x, ix.lead[j - 1], axis=1)
                # a block's count is at most 64 * words, well inside uint32
                self.counts[j] += np.add.reduce(np.bitwise_count(v), axis=0, dtype=np.uint32)
        self.m += len(labels)
        self._moments, self._maxabs = [], {}

    def moments(self, j: int) -> list:
        """The moments of levels 0..j, each level computed once per add."""
        for level in range(len(self._moments), j + 1):
            self._moments.append(self.m - 2 * self.counts[level])
        return self._moments

    def bound(self, j: int, r: float, unread: int = 0) -> float:
        """An upper bound on |estimate| over level j at bias r, once another
        ``unread`` rows, whatever they hold, are added:

            sum_t C(j, t) |r|^(j-t) (max_{|T|=t} |M_T| + unread) / (sigma^j (m + unread)),

        each subset's combine having C(j, t) terms of size t and each row
        moving each moment by 1, raised by _BOUND_SLACK."""
        a, total = abs(r), 0.0
        # at r = 0 only the level's own moments count
        for t in range(j + 1) if a else (j,):
            if t not in self._maxabs:
                count = self.counts[t]
                self._maxabs[t] = max(self.m - 2 * int(count.min()), 2 * int(count.max()) - self.m)
            total += math.comb(j, t) * a ** (j - t) * (self._maxabs[t] + unread)
        return total / sigma(r) ** j / (self.m + unread) * _BOUND_SLACK

    def estimates(self, j: int, r: float) -> np.ndarray:
        """The estimates (1/m) sum_t y_t chi_S(x_t, r) for each subset S of
        level j, in lexicographic order.

        For each mask of S's positions, from 0 to 2^j - 1, the term is the
        moment of the subset the mask selects, gathered by its rank and
        multiplied by -r once per missing position, in position order; the
        terms are summed in mask order, divided by sigma^j (built by
        repeated multiplication), then by m.  The moments are integers of
        magnitude at most m < 2^53, exact in float64, so every subset gets
        the same bits whichever level table, column selection or split of
        the stream it is read from.
        """
        moments, sig = self.moments(j), sigma(r)
        acc = np.zeros(len(self.index.subsets[j]))
        for mask, rank in enumerate(self.index.ranks(j)):
            level = moments[mask.bit_count()]
            term = (level if rank is None else level[rank]).astype(np.float64)
            for b in range(j):
                if not mask >> b & 1:
                    term *= -r
            acc += term
        scale = 1.0
        for _ in range(j):
            scale *= sig
        return acc / scale / self.m

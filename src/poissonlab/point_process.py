"""Target sets on the positive axis and rescaled-index occurrence counting.

An interval union S collects finitely many bounded intervals with rational
endpoints and explicit closedness.  For a word measure mu_w the index set

    J = { i >= 1 : i * mu_w in S }

selects the sequence positions whose rescaled index lands in S; counting
occurrences of the word at those positions is the point-process statistic
studied by the experiment runners.

J is kept as a short list of integer ranges (one per interval of S), never
materialized unless small, so index sets of size ~1e7 stay cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceError

# Relative width of the float guard band around interval endpoints; products
# i*mu_w landing inside the band are re-evaluated at (at least) 50 decimal
# digits.
GUARD_REL = 1e-12
_HP_DPS = 50

MATERIALIZE_LIMIT = 10**7


def parse_rational(value, what: str) -> Fraction:
    """The exact rational a config number stands for: an int, a Fraction, a
    'p/q' or decimal string, or a finite float, read as the decimal it prints
    as (0.3 is 3/10).  Booleans are refused."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError("not finite")
            return Fraction(repr(float(value)))
        if isinstance(value, str):
            return Fraction(value.strip())
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"{what}: cannot interpret {value!r} as a rational") from exc


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError("interval endpoints must be nonnegative")
        if self.lo > self.hi:
            raise ValueError("interval needs lo <= hi")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both sides")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, v) -> bool:
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True

    def label(self) -> str:
        return (("[" if self.lo_closed else "(") + str(self.lo) + ", "
                + str(self.hi) + ("]" if self.hi_closed else ")"))


def _merge(intervals: list[Interval]) -> tuple[Interval, ...]:
    if not intervals:
        return ()
    ivs = sorted(intervals, key=lambda t: (t.lo, not t.lo_closed))
    out = [ivs[0]]
    for iv in ivs[1:]:
        cur = out[-1]
        touches = iv.lo < cur.hi or (iv.lo == cur.hi and (iv.lo_closed or cur.hi_closed))
        if touches:
            if (iv.hi, iv.hi_closed) > (cur.hi, cur.hi_closed):
                out[-1] = Interval(cur.lo, iv.hi, cur.lo_closed, iv.hi_closed)
        else:
            out.append(iv)
    return tuple(out)


_INTERVAL_KEYS = ("lo", "hi", "lo_closed", "hi_closed")  # of an interval object


class IntervalUnion:
    """Canonical finite union of bounded intervals with rational endpoints."""

    def __init__(self, intervals: Sequence[Interval]):
        self.intervals = _merge(list(intervals))
        self.m = len(self.intervals)
        self.total_length = sum((iv.length for iv in self.intervals), Fraction(0))
        self.sup = max((iv.hi for iv in self.intervals), default=Fraction(0))

    @classmethod
    def from_spec(cls, spec) -> "IntervalUnion":
        """Build from a list of {lo, hi, lo_closed, hi_closed} mappings or tuples."""
        ivs = []
        for idx, item in enumerate(spec):
            try:
                if isinstance(item, dict):
                    unknown = sorted(str(key) for key in item if key not in _INTERVAL_KEYS)
                    if unknown:
                        raise ValueError(f"unknown key {unknown[0]!r}")
                    lo, hi = item["lo"], item["hi"]
                    lc, hc = item.get("lo_closed", False), item.get("hi_closed", True)
                else:
                    lo, hi, lc, hc = item
                if not (isinstance(lc, bool) and isinstance(hc, bool)):
                    raise ValueError(f"closedness flags must be booleans, got {lc!r}, {hc!r}")
                iv = Interval(parse_rational(lo, "lo"), parse_rational(hi, "hi"), lc, hc)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"interval [{idx}]: {exc}") from exc
            ivs.append(iv)
        return cls(ivs)

    def contains(self, v) -> bool:
        return any(iv.contains(v) for iv in self.intervals)

    def label(self) -> str:
        return " u ".join(iv.label() for iv in self.intervals) if self.intervals else "{}"

    def to_spec(self) -> list[dict]:
        return [
            {"lo": str(iv.lo), "hi": str(iv.hi),
             "lo_closed": iv.lo_closed, "hi_closed": iv.hi_closed}
            for iv in self.intervals
        ]


def unit_interval() -> IntervalUnion:
    """The default target set (0, 1]."""
    return IntervalUnion([Interval(Fraction(0), Fraction(1), False, True)])


@dataclass(frozen=True)
class IndexSet:
    """J as inclusive integer ranges, one per interval of S (empty ranges dropped)."""

    ranges: tuple[tuple[int, int], ...]
    count: int
    mu_w: object  # Fraction (exact path) or float

    def is_empty(self) -> bool:
        return self.count == 0

    def max_index(self) -> int:
        return max((b for _, b in self.ranges), default=0)

    def min_index(self) -> int:
        return min((a for a, _ in self.ranges), default=0)

    def indices(self) -> np.ndarray:
        if self.count > MATERIALIZE_LIMIT:
            raise ResourceError(f"index set of size {self.count} exceeds materialization guard")
        if not self.ranges:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(a, b + 1, dtype=np.int64) for a, b in self.ranges])


def _hp_below(i: int, bound: Fraction, mu_hp, inclusive: bool, dps: int) -> bool:
    """i*mu <= bound (inclusive) or i*mu < bound, with mu at ``dps`` digits.

    An exact rational mu is decided exactly, so ties i*mu == bound fall on
    the same side as on the exact path.
    """
    if isinstance(mu_hp, Fraction):
        return i * mu_hp <= bound if inclusive else i * mu_hp < bound
    import mpmath

    with mpmath.workdps(dps):
        prod = mpmath.mpf(i) * mu_hp
        b = mpmath.mpf(bound.numerator) / mpmath.mpf(bound.denominator)
        return prod <= b if inclusive else prod < b


def _last_index_float(bound: Fraction, mu: float, inclusive: bool,
                      mu_high: Callable | None, dps: int, limit: int | None = None) -> int:
    """Largest i >= 0 with i*mu <= bound (inclusive) or < bound, float path,
    or ``limit + 1`` where that i is past ``limit``.

    Products within the guard band of the bound are re-decided at ``dps``
    digits.  When the float product at ``limit + 1`` lies below the bound
    and outside the band, every index up to it is below as well, and the
    answer is ``limit + 1`` with no search.  The search starts at the float
    quotient bound/mu; when that start lies in the band (a tiny mu, whose
    float quotient can be off by many indices, or a bound close to a
    multiple of mu) it starts at the high-precision quotient instead, so it
    settles within a step or two either way.
    """
    if bound == 0:
        return 0  # i*mu > 0 = 0*mu for every i >= 1, exactly
    bf = float(bound)
    band = GUARD_REL * max(1.0, abs(bf))

    def near(i: int) -> bool:
        return mu_high is not None and abs(i * mu - bf) <= band

    def below(i: int) -> bool:
        if near(i):
            return _hp_below(i, bound, mu_high(dps), inclusive, dps)
        return i * mu <= bf if inclusive else i * mu < bf

    if limit is not None and not near(limit + 1) and below(limit + 1):
        return limit + 1
    i = math.floor(bf / mu)
    if near(i):
        import mpmath  # here: most words never come near an endpoint

        with mpmath.workdps(dps):
            q = mpmath.mpf(bound.numerator) / mpmath.mpf(bound.denominator)
            i = int(mpmath.floor(q / mu_high(dps)))
    while below(i + 1):
        i += 1
    while i > 0 and not below(i):
        i -= 1
    return i if limit is None else min(i, limit + 1)


def j_set(mu_w, S: IntervalUnion, mu_high: Callable | None = None,
          limit: int | None = None) -> IndexSet:
    """Index set J = {i >= 1 : i * mu_w in S}.

    ``mu_w`` may be an exact Rational (exact integer arithmetic throughout) or
    a float; in the float case products within a relative guard band of an
    endpoint are re-decided at 50-digit precision (more when indices pass
    ~1e30) through ``mu_high``, a callable ``dps -> high-precision mu`` that
    is evaluated at most once.

    With ``limit``, only the indices up to ``limit`` are wanted exactly, and
    whether J has any past it: every range endpoint past ``limit`` is
    lowered to ``limit + 1``, so a range that reaches past ``limit`` ends at
    ``limit + 1`` and one wholly past it reads ``(limit + 1, limit + 1)``.
    The float path then re-decides no upper-endpoint product past
    ``limit + 1`` at high precision for a range that starts by ``limit + 1``.
    """
    if isinstance(mu_w, Rational) and not isinstance(mu_w, float):
        mu = Fraction(mu_w)
        if mu <= 0:
            raise ValueError("mu_w must be positive")
        ranges = []
        for iv in S.intervals:
            lo_q = iv.lo / mu
            hi_q = iv.hi / mu
            a = math.ceil(lo_q) if iv.lo_closed else math.floor(lo_q) + 1
            b = math.floor(hi_q) if iv.hi_closed else math.ceil(hi_q) - 1
            a = max(a, 1)
            if b >= a:
                ranges.append((a, b))
        return _index_set(ranges, mu, limit)

    mu = float(mu_w)
    if not (mu > 0 or (mu == 0.0 and mu_high is not None)):  # a guarded 0 underflowed
        raise ValueError("mu_w must be positive")
    try:
        top = math.floor(float(S.sup) / mu)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ResourceError(f"index set of S = {S.label()}: the word's measure {mu:.3e} "
                            "is below the float range; lower k") from exc
    # neighbouring indices near the top must stay apart at that precision
    dps = max(_HP_DPS, len(str(top)) + 20)
    if mu_high is not None:
        mu_high = functools.cache(mu_high)
    ranges = []
    for iv in S.intervals:
        # first index past lo is one beyond the last index at or below it
        a = _last_index_float(iv.lo, mu, not iv.lo_closed, mu_high, dps) + 1
        b = _last_index_float(iv.hi, mu, iv.hi_closed, mu_high, dps,
                              limit if limit is not None and a <= limit + 1 else None)
        if b >= a:
            ranges.append((a, b))
    return _index_set(ranges, mu, limit)


def _index_set(ranges: list[tuple[int, int]], mu, limit: int | None) -> IndexSet:
    """The IndexSet of ``ranges``, each endpoint past ``limit`` lowered to
    ``limit + 1``."""
    if limit is not None:
        ranges = [(min(a, limit + 1), min(b, limit + 1)) for a, b in ranges]
    return IndexSet(tuple(ranges), sum(b - a + 1 for a, b in ranges), mu)


def required_prefix_length(word_len: int, J: IndexSet) -> int:
    """Sequence prefix length needed to evaluate every indicator indexed by J."""
    if J.is_empty():
        return 0
    return J.max_index() + word_len - 1


_ONES = np.uint64(2**64 - 1)
_SWAR = [np.uint64(v) for v in (0x5555555555555555, 0x3333333333333333,
                                0x0F0F0F0F0F0F0F0F, 0x0101010101010101)]


def _binary(a: np.ndarray) -> bool:
    """Whether every entry of the integer array ``a`` is 0 or 1 (a negative
    entry read unsigned is above 1)."""
    return a.size == 0 or int(a.view(f"u{a.itemsize}").max()) <= 1


def _popcount(v: np.ndarray) -> np.ndarray:
    """The set bits of each uint64 of ``v`` (overwritten), by SWAR: np.bitwise_count
    needs numpy 2."""
    m1, m2, m4, h01 = _SWAR
    v -= (v >> np.uint64(1)) & m1
    v[...] = (v & m2) + ((v >> np.uint64(2)) & m2)
    v += v >> np.uint64(4)
    v &= m4
    v *= h01
    v >>= np.uint64(56)
    return v


def _match_bits(x: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Bit-parallel (Shift-And) matches of each row's binary word in its
    binary stream: a (rows, n) uint64 array whose bit b of word i says
    whether the window that starts at symbol 64 * i + b (0-indexed) holds
    the word.  Each row is packed 64 symbols a word, little-endian
    ('<u8', the same on any host) and zero-padded; the matches are the AND
    over j < k of the packed row shifted down by j, each flipped where w_j is
    0.  Bits of windows that do not fit in a row are not meaningful."""
    k = words.shape[1]
    packed = np.zeros((len(x), 8 * (n + (k - 1) // 64 + 1)), dtype=np.uint8)
    packed[:, :-(-x.shape[1] // 8)] = np.packbits(x.astype(np.uint8, copy=False),
                                                   axis=1, bitorder="little")
    bits = packed.view("<u8")
    flips = np.where(words == 0, _ONES, np.uint64(0))
    hits = np.full((len(x), n), _ONES)
    low, high = np.empty_like(hits), np.empty_like(hits)
    for j in range(k):
        q, r = j // 64, np.uint64(j % 64)
        if r:
            np.right_shift(bits[:, q: q + n], r, out=low)
            low |= np.left_shift(bits[:, q + 1: q + 1 + n], np.uint64(64) - r, out=high)
            low ^= flips[:, j: j + 1]
        else:
            np.bitwise_xor(bits[:, q: q + n], flips[:, j: j + 1], out=low)
        hits &= low
    return hits


def count_word_occurrences(x: np.ndarray, words: np.ndarray,
                           ranges: Sequence[Sequence[tuple[int, int]]]) -> np.ndarray:
    """Occurrences of each row's word in its stream over inclusive index
    ranges, one list of ranges per target set.

    ``x`` is a (rows, length) symbol matrix and ``words`` the (rows, k)
    matrix of the words sought, one per row; positions are 1-indexed window
    starts, and each range is clipped to the windows that fit inside a row,
    so a range shifted to a block of the streams needs no clip of its own.
    Returns the (sets, rows) counts.

    Where every symbol of ``x`` and of ``words`` is 0 or 1, the windows from
    the first range's start to the last one's end, over all sets, are
    matched once 64 at a time (``_match_bits``) and each range's set bits
    counted under edge masks; otherwise ``k`` shifted equality masks are
    ANDed over each range of each set, so any alphabet and any ``k`` works.
    """
    k = words.shape[1]
    n_win = x.shape[1] - k + 1
    # per set, the 0-indexed window starts [s, e) of each range that keeps a window
    spans = [[(s, e) for a, b in rs if (e := min(b, n_win)) > (s := max(a, 1) - 1)]
             for rs in ranges]
    total = np.zeros((len(spans), len(x)), dtype=np.int64)
    every = [span for per_set in spans for span in per_set]
    if not every:
        return total
    if _binary(words) and _binary(x):
        first = min(s for s, _ in every) // 64  # the hit words that cover every span
        n = (max(e for _, e in every) - 1) // 64 + 1 - first
        hits = _match_bits(x[:, 64 * first: 64 * (first + n) + k - 1], words, n)
        for row, per_set in zip(total, spans):
            for s, e in per_set:
                part = hits[:, s // 64 - first: (e - 1) // 64 + 1 - first].copy()
                part[:, 0] &= _ONES << np.uint64(s % 64)
                part[:, -1] &= _ONES >> np.uint64(63 - (e - 1) % 64)
                row += _popcount(part).sum(axis=1, dtype=np.int64)
        return total
    for row, per_set in zip(total, spans):
        for s, e in per_set:
            acc = x[:, s: e] == words[:, :1]
            for j in range(1, k):
                acc &= x[:, s + j: e + j] == words[:, j: j + 1]
            row += np.count_nonzero(acc, axis=1)
    return total

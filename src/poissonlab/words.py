"""Finite-word combinatorics: periods, periodic extension, overlap merging.

Words are tuples of nonnegative integer symbols.  Alphabets may be
countable; only enumeration requires a finite alphabet.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .errors import ResourceError

Word = tuple[int, ...]

ENUMERATION_LIMIT = 1 << 24


def as_word(symbols: Sequence[int] | Iterable[int]) -> Word:
    w = tuple(int(s) for s in symbols)
    if any(s < 0 for s in w):
        raise ValueError("symbols must be nonnegative integers")
    return w


def periods(w: Sequence[int]) -> list[int]:
    """All p in 1..len(w)-1 with w[i] == w[i+p] for every valid i, ascending."""
    w = as_word(w)
    k = len(w)
    if k == 0:
        raise ValueError("empty word has no period set")
    return [p for p in range(1, k) if all(w[i] == w[i + p] for i in range(k - p))]


def ext(v: Sequence[int], n: int) -> Word:
    """Periodic extension of v to length n (truncation when n < len(v))."""
    v = as_word(v)
    if not v:
        raise ValueError("cannot extend the empty word")
    if n < 0:
        raise ValueError("length must be nonnegative")
    m = len(v)
    return tuple(v[i % m] for i in range(n))


def overlap_merge(w: Sequence[int], lag: int) -> Word:
    """Merged word covering two occurrences of w offset by ``lag`` < len(w).

    Requires lag to be a period of w; the overlapping region is then
    consistent and the merged word is w followed by its last ``lag`` symbols.
    """
    w = as_word(w)
    k = len(w)
    if not 1 <= lag < k:
        raise ValueError(f"lag must be in 1..{k - 1}, got {lag}")
    if any(w[i] != w[i + lag] for i in range(k - lag)):
        raise ValueError(f"lag {lag} is not a period of the word")
    return w + w[k - lag:]


def enumerate_words(alphabet_size: int, k: int) -> Iterator[Word]:
    """All words of length k over 0..alphabet_size-1 in lexicographic order."""
    if alphabet_size < 1 or k < 0:
        raise ValueError("need alphabet_size >= 1 and k >= 0")
    if alphabet_size**k > ENUMERATION_LIMIT:
        raise ResourceError(
            f"enumeration of {alphabet_size}**{k} words exceeds guard {ENUMERATION_LIMIT}"
        )
    return iter(product(range(alphabet_size), repeat=k))


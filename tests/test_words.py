import pytest
from hypothesis import given
from hypothesis import strategies as st

from poissonlab.words import as_word, enumerate_words, ext, overlap_merge, periods


def test_periods_examples():
    assert periods((1, 1)) == [1]
    assert periods((0, 1)) == []
    assert periods((0, 1, 0, 1)) == [2]
    assert periods((0, 0, 0, 0)) == [1, 2, 3]
    assert periods((0, 1, 0)) == [2]
    assert periods((0, 0, 0, 1)) == []


def test_ext_tiles_the_word():
    assert ext((0, 1), 5) == (0, 1, 0, 1, 0)
    assert ext((7,), 3) == (7, 7, 7)
    assert ext((1, 2, 3), 3) == (1, 2, 3)
    assert ext((0, 1), 1) == (0,)  # truncation is allowed
    with pytest.raises(ValueError):
        ext((0, 1), -1)


def test_overlap_merge_examples():
    assert overlap_merge((1, 1), 1) == (1, 1, 1)
    assert overlap_merge((0, 1, 0, 1), 2) == (0, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        overlap_merge((1, 0), 1)  # 1 is not a period of 10


def test_enumerate_words_count_and_order():
    ws = list(enumerate_words(2, 3))
    assert len(ws) == 8
    assert ws[0] == (0, 0, 0)
    assert ws[-1] == (1, 1, 1)
    assert len(set(ws)) == 8
    assert list(enumerate_words(3, 1)) == [(0,), (1,), (2,)]


def test_as_word_validation():
    assert as_word([0, 1, 0]) == (0, 1, 0)
    assert as_word([]) == ()
    with pytest.raises(ValueError):
        as_word([0, -1])
    with pytest.raises(ValueError):
        periods(())


words_st = st.lists(st.integers(min_value=0, max_value=2),
                    min_size=1, max_size=12).map(tuple)


@given(words_st)
def test_periods_definition(w):
    k = len(w)
    ps = periods(w)
    for p in range(1, k):
        holds = all(w[i] == w[i + p] for i in range(k - p))
        assert (p in ps) == holds


@given(words_st, st.integers(min_value=1, max_value=11))
def test_overlap_merge_consistent_with_periods(w, lag):
    if lag >= len(w):
        return
    if lag in periods(w):
        m = overlap_merge(w, lag)
        assert len(m) == len(w) + lag
        assert m[: len(w)] == w
        assert m[lag:] == w
    else:
        with pytest.raises(ValueError):
            overlap_merge(w, lag)


@given(words_st, st.integers(min_value=1, max_value=30))
def test_ext_is_periodic(w, n):
    if n < len(w):
        return
    e = ext(w, n)
    assert len(e) == n
    assert e[: len(w)] == w
    assert len(w) >= n or len(w) in periods(e)

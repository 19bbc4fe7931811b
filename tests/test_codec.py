"""Tests for the packed +-1 sequence codec and the candidate-set
enumerator in `_util`, checked against the loops they replaced."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poolseq_limits._util import (candidate_sets, hamming, pack_rows,
                                  unpack_rows)


def seq_to_int(seq) -> int:
    """Encode a +-1 sequence as an integer, first position most significant,
    so integer order matches lexicographic order with -1 < +1."""
    v = 0
    for a in seq:
        v = (v << 1) | (1 if a > 0 else 0)
    return v


def int_to_seq(v: int, kappa: int) -> tuple[int, ...]:
    return tuple(1 if (v >> (kappa - 1 - k)) & 1 else -1 for k in range(kappa))


@st.composite
def row_pairs(draw):
    """Two +-1 row sets sharing one length kappa in 1..40."""
    kappa = draw(st.integers(1, 40))

    def rows():
        n = draw(st.integers(1, 8))
        bits = draw(arrays(np.bool_, (n, kappa)))
        return np.where(bits, 1, -1).astype(np.int8)

    return kappa, rows(), rows()


@settings(max_examples=300)
@given(row_pairs())
def test_codec_matches_reference_loops(case):
    kappa, a, b = case
    codes_a, codes_b = pack_rows(a), pack_rows(b)
    assert codes_a.dtype == np.int64
    assert codes_a.tolist() == [seq_to_int(r) for r in a]
    back = unpack_rows(codes_a, kappa)
    assert back.dtype == np.int8
    np.testing.assert_array_equal(back, a)
    assert [tuple(r) for r in back.tolist()] == \
        [int_to_seq(v, kappa) for v in codes_a.tolist()]
    rows = [tuple(r) for r in a.tolist()]
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (codes_a[i] < codes_a[j]) == (rows[i] < rows[j])
    want = (a[:, None, :] != b[None, :, :]).sum(axis=2)
    np.testing.assert_array_equal(hamming(codes_a, codes_b), want)


@pytest.mark.parametrize("kappa", range(1, 6))
def test_candidate_sets_match_combinations(kappa):
    """The array-built subsets are itertools' M-subsets of the 2^kappa
    codes, in the same lexicographic order, for every M."""
    for M in range(1, min(6, 1 << kappa) + 1):
        want = list(combinations(range(1 << kappa), M))
        got = candidate_sets(1 << kappa, M)
        assert got.dtype == np.int64 and got.shape == (len(want), M)
        assert [tuple(row) for row in got.tolist()] == want

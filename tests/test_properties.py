"""Property tests (hypothesis) for the edit-distance kernel and the accuracy metric."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from specsim._kernels import levenshtein
from specsim.metrics import accuracy

from oracles import classic_levenshtein

PROPERTY = settings(derandomize=True, max_examples=300, database=None, deadline=None)

# A small vocabulary makes shared tokens, and so trimmed prefixes and suffixes, common.
tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=40).map(tuple)


@PROPERTY
@given(tokens, tokens)
def test_levenshtein_matches_classic_dp_and_is_symmetric(a, b):
    d = levenshtein(a, b)
    assert d == classic_levenshtein(a, b)
    assert d == levenshtein(b, a)


@PROPERTY
@given(tokens, tokens)
def test_accuracy_in_unit_interval(final, reference):
    assert 0.0 <= accuracy(final, reference) <= 1.0

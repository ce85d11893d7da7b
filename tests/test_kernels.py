"""Token kernels: prefix/suffix scans and edit distance against classic DP."""

from __future__ import annotations

import random

from specsim._kernels import common_prefix_len, common_suffix_len, levenshtein

from oracles import classic_levenshtein


def test_prefix_suffix_basics():
    assert common_prefix_len((), ()) == 0
    assert common_prefix_len(("a",), ()) == 0
    assert common_prefix_len(("a", "b"), ("a", "b")) == 2
    assert common_prefix_len(("a", "b", "c"), ("a", "x")) == 1
    assert common_suffix_len(("a", "b"), ("z", "a", "b")) == 2
    assert common_suffix_len(("a",), ("b",)) == 0


def test_levenshtein_against_classic_dp():
    rng = random.Random(7)
    for _ in range(300):
        n, m = rng.randint(0, 30), rng.randint(0, 30)
        a = tuple(rng.choice("abcde") for _ in range(n))
        b = tuple(rng.choice("abcde") for _ in range(m))
        assert levenshtein(a, b) == classic_levenshtein(a, b)
    rng = random.Random(11)
    for _ in range(500):
        n, m = rng.randint(0, 200), rng.randint(0, 200)
        a = tuple(f"w{rng.randrange(12)}" for _ in range(n))
        b = tuple(f"w{rng.randrange(12)}" for _ in range(m))
        assert levenshtein(a, b) == classic_levenshtein(a, b)


def test_levenshtein_trim_paths():
    mid = tuple("abcabcab")
    cases = [
        (mid, mid),  # identical: trims to empty
        (("x",) + mid + ("y",), ("p",) + mid + ("q", "r")),  # edits at both ends
        ((), mid),  # one side empty
        (mid, ()),
        (mid, mid[2:]),  # one side a suffix of the other
        (mid, mid[:-3]),  # one side a prefix of the other
        (tuple("aaaa"), tuple("aa")),  # prefix and suffix overlap
    ]
    for a, b in cases:
        assert levenshtein(a, b) == classic_levenshtein(a, b)
        assert levenshtein(b, a) == classic_levenshtein(a, b)


def test_long_near_identical_sequences():
    base = tuple(f"tok{i}" for i in range(5000))
    mutated = list(base)
    mutated[1234] = "x"
    del mutated[4000]
    assert levenshtein(base, tuple(mutated)) == 2
    assert common_prefix_len(base, tuple(mutated)) == 1234
    assert common_prefix_len(base, base) == 5000


def test_common_suffix_len_crosses_chunk_stride():
    base = tuple(f"tok{i}" for i in range(5000))
    assert common_suffix_len(base, base) == 5000
    assert common_suffix_len(("head",) + base, base) == 5000
    for k in (1, 255, 256, 257, 511, 1000, 4999):
        changed = list(base)
        changed[len(base) - 1 - k] = "x"
        assert common_suffix_len(base, tuple(changed)) == k
        assert common_suffix_len(tuple(changed), ("extra",) + base) == k

"""Token-sequence kernels on the engine's hot paths: prefix/suffix scans and edit distance."""

from __future__ import annotations

from typing import Sequence


def common_prefix_len(a: Sequence, b: Sequence) -> int:
    """Length of the longest common prefix of two token sequences."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def common_suffix_len(a: Sequence, b: Sequence) -> int:
    """Length of the longest common suffix of two token sequences."""
    for i, (x, y) in enumerate(zip(reversed(a), reversed(b))):
        if x != y:
            return i
    return min(len(a), len(b))


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Token-level edit distance (insert/delete/substitute, unit costs).

    Strips the common prefix and suffix, then runs the bit-parallel
    recurrence of Myers (1999) in Hyyrö's (2001) Levenshtein form: one
    column of the DP matrix is held as vertical +1/-1 delta bit vectors
    (Python ints as wide as the longer side) and advanced once per token of
    the shorter side, so the cost is O(len(b) * len(a) / word size).
    """
    p = common_prefix_len(a, b)
    a, b = a[p:], b[p:]
    s = common_suffix_len(a, b)
    a, b = a[:len(a) - s], b[:len(b) - s]
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if not b:
        return m
    peq: dict = {}  # token -> bit mask of its positions in a
    for i, tok in enumerate(a):
        peq[tok] = peq.get(tok, 0) | 1 << i
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    vp, vn, dist = mask, 0, m
    for tok in b:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | (mask & ~(d0 | vp))
        hn = vp & d0
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = hp << 1 | 1
        vp = (hn << 1 | ~(d0 | hp)) & mask
        vn = hp & d0 & mask
    return dist

"""Committed target output: mass-weighted consensus templates with holes.

A template is the engine's monotonic-commitment state: a committed prefix,
then optionally the hole (the undetermined middle) and a committed suffix.
Consensus over a tau-mass cover of hypotheses commits their longest common
prefix and suffix; refinement only ever grows the committed material, and
emission is append-only, reads the prefix only and keeps idiom spans atomic.
The session's emitted tokens are the one record of how far emission has
got. A conflict's slot number counts the hole as one slot.

Templates are immutable values; the owning session swaps them atomically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._kernels import common_prefix_len, common_suffix_len
from .phrases import IdiomSpan

_TAU_SLACK = 1e-9  # mass sums land within an ulp of the threshold


@dataclass(frozen=True, slots=True)
class RevisionConflict:
    """A fresh template contradicted an already committed token.

    `slot` indexes `TargetTemplate.slots`, where the hole counts as one slot.
    """

    slot: int
    committed: str | None
    got: str | None


@dataclass(frozen=True, slots=True)
class TargetTemplate:
    """A committed `prefix`, then the hole and a committed `suffix`; a
    `suffix` of None means the template is complete, with no hole. `slots`
    renders it one slot per token with the hole as one None slot, and a
    RevisionConflict's `slot` indexes that rendering."""

    prefix: tuple[str, ...]
    suffix: tuple[str, ...] | None = None

    @property
    def slots(self) -> tuple[str | None, ...]:
        """The committed tokens in order, with None for the hole."""
        if self.suffix is None:
            return self.prefix
        return self.prefix + (None,) + self.suffix

    def fixed_tokens(self) -> tuple[str, ...]:
        """The committed tokens in order, the hole skipped (the idiom scan reads it)."""
        return self.prefix if self.suffix is None else self.prefix + self.suffix

    def render(self) -> str:
        return " ".join("[*]" if s is None else s for s in self.slots)

    def complete(self) -> bool:
        return self.suffix is None


def all_hole_template() -> TargetTemplate:
    return TargetTemplate((), ())


def fixed_template(tokens: Sequence[str]) -> TargetTemplate:
    return TargetTemplate(tuple(tokens))


def consensus(hyps: Sequence[tuple[Sequence[str], float]], tau: float) -> TargetTemplate:
    """Commit what the tau-mass cover of hypotheses agrees on.

    Takes hypotheses sorted by mass descending; uses the smallest prefix of
    them whose cumulative mass reaches tau. The template is their longest
    common prefix, the hole, and their longest common suffix; the suffix is
    truncated if prefix and suffix would overlap inside any cover member
    (the prefix wins, being emittable earliest). Identical cover members
    commit fully with no hole. Below-tau total commits nothing.
    """
    cover: list[Sequence[str]] = []
    cum = 0.0
    for toks, mass in hyps:
        cover.append(toks)
        cum += mass
        if cum >= tau - _TAU_SLACK:
            break
    else:
        return all_hole_template()

    first = tuple(cover[0])
    if all(tuple(h) == first for h in cover[1:]):
        return TargetTemplate(first)
    p = min(len(first), *(common_prefix_len(first, h) for h in cover[1:]))
    s = min(len(first), *(common_suffix_len(first, h) for h in cover[1:]))
    shortest = min(len(h) for h in cover)
    if p + s > shortest:
        s = shortest - p
    return TargetTemplate(first[:p], first[len(first) - s:])


def refine(committed: TargetTemplate,
           fresh: TargetTemplate) -> TargetTemplate | RevisionConflict:
    """Merge a fresh consensus into the committed template.

    Committed tokens are immutable; the committed hole absorbs whatever
    fresh pins down around it. Any contradiction returns a RevisionConflict
    and leaves the committed template untouched.
    """
    pre_c, suf_c = committed.prefix, committed.suffix
    pre_f, suf_f = fresh.prefix, fresh.suffix

    if suf_c is None:
        if suf_f is None:
            if pre_f == pre_c:
                return committed
            return _first_diff_conflict(pre_c, pre_f)
        if (common_prefix_len(pre_c, pre_f) < len(pre_f)
                or common_suffix_len(pre_c, suf_f) < len(suf_f)
                or len(pre_f) + len(suf_f) > len(pre_c)):
            return _fresh_vs_complete_conflict(pre_c, pre_f, suf_f)
        return committed

    if suf_f is None:
        full = pre_f
        m = common_prefix_len(pre_c, full)
        if m < len(pre_c):
            return RevisionConflict(m, pre_c[m], full[m] if m < len(full) else None)
        s = common_suffix_len(suf_c, full)
        if s < len(suf_c):
            off = len(suf_c) - 1 - s
            got_i = len(full) - 1 - s
            return RevisionConflict(len(pre_c) + 1 + off, suf_c[off],
                                    full[got_i] if got_i >= 0 else None)
        if len(full) < len(pre_c) + len(suf_c):
            return RevisionConflict(len(pre_c), suf_c[0] if suf_c else None, None)
        return fresh

    m = common_prefix_len(pre_c, pre_f)
    if m < min(len(pre_c), len(pre_f)):
        return RevisionConflict(m, pre_c[m], pre_f[m])
    s = common_suffix_len(suf_c, suf_f)
    if s < min(len(suf_c), len(suf_f)):
        off = len(suf_c) - 1 - s
        return RevisionConflict(len(pre_c) + 1 + off, suf_c[off],
                                suf_f[len(suf_f) - 1 - s])
    if len(pre_f) <= len(pre_c) and len(suf_f) <= len(suf_c):
        return committed
    return TargetTemplate(max(pre_c, pre_f, key=len), max(suf_c, suf_f, key=len))


def _first_diff_conflict(a: tuple[str, ...], b: tuple[str, ...]) -> RevisionConflict:
    i = common_prefix_len(a, b)
    return RevisionConflict(i, a[i] if i < len(a) else None,
                            b[i] if i < len(b) else None)


def _fresh_vs_complete_conflict(done: tuple[str, ...], pre_f: tuple[str, ...],
                                suf_f: tuple[str, ...]) -> RevisionConflict:
    i = common_prefix_len(done, pre_f)
    if i < len(pre_f):
        return RevisionConflict(i, done[i] if i < len(done) else None, pre_f[i])
    s = common_suffix_len(done, suf_f)
    off = len(suf_f) - 1 - s
    if s < len(suf_f):
        got = suf_f[off]
        pos = len(done) - 1 - s
        return RevisionConflict(max(pos, 0), done[pos] if pos >= 0 else None, got)
    return RevisionConflict(len(pre_f), None, None)


def extend_into_hole(committed: TargetTemplate,
                     tokens: Sequence[str]) -> TargetTemplate:
    """Append fixed tokens at the start of the hole (catch-up translations).

    With no hole the tokens append at the template's end. Never conflicts:
    the filled region was undetermined.
    """
    if not tokens:
        return committed
    return TargetTemplate(committed.prefix + tuple(tokens), committed.suffix)


def resolve_with(committed: TargetTemplate,
                 final: Sequence[str]) -> TargetTemplate:
    """Force-complete after a final-translation conflict: fill the hole from
    the aligned middle when the committed prefix agrees, else drop the hole.
    Committed tokens are never altered."""
    pre, suf = committed.prefix, committed.suffix
    if suf is None:
        return committed
    final = tuple(final)
    if common_prefix_len(final, pre) == len(pre):
        middle = final[len(pre):max(len(pre), len(final) - len(suf))]
    else:
        middle = ()
    return TargetTemplate(pre + middle + suf)


def emittable(template: TargetTemplate, idioms: Sequence[IdiomSpan],
              start: int) -> tuple[str, ...]:
    """The committed prefix from `start` on, never ending strictly inside an
    idiom span.

    Idiom spans are indexed over `fixed_tokens()` (the hole skipped), so a
    span straddling the hole boundary holds emission back until the hole
    resolves.
    """
    end = len(template.prefix)
    for span in sorted(idioms, key=lambda s: s.start, reverse=True):
        if span.start < end < span.end:
            end = span.start
    return template.prefix[start:end]

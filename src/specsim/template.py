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
    """A fresh template contradicted the committed one.

    `slot` indexes the committed `TargetTemplate.slots`, where the hole
    counts as one slot; `committed` is the committed token at the conflict
    and `got` the fresh one, None past an end. There are three kinds:

    - prefix edge: the first position where the prefixes contradict;
    - end edge: the same from the back of the ends, its slot clamped at 0;
    - width: a complete side too short to hold the other side's prefix and
      suffix; the slot is the other side's hole, and no token is named.
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


def all_hole_template() -> TargetTemplate:
    return TargetTemplate((), ())


def fixed_template(tokens: Sequence[str]) -> TargetTemplate:
    return TargetTemplate(tuple(tokens))


def consensus(hyps: Sequence[tuple[Sequence[str], float, bool]],
              tau: float) -> TargetTemplate:
    """Commit what the tau-mass cover of hypotheses agrees on.

    Takes (translation, mass, terminal) hypotheses sorted by mass
    descending; uses the smallest prefix of them whose cumulative mass
    reaches tau. The template is their longest common prefix, the hole, and
    their longest common suffix; the suffix is truncated if prefix and
    suffix would overlap inside any cover member (the prefix wins, being
    emittable earliest). Identical cover members commit fully with no hole.
    A member that is not terminal was cut at the prediction horizon, so its
    translation's end is not the utterance's: a cover holding one commits
    the common prefix and a hole only. Below-tau total commits nothing.
    """
    cover: list[Sequence[str]] = []
    cum = 0.0
    ends = True  # every cover member runs to the utterance's end
    for toks, mass, terminal in hyps:
        cover.append(toks)
        ends = ends and terminal
        cum += mass
        if cum >= tau - _TAU_SLACK:
            break
    else:
        return all_hole_template()

    first = tuple(cover[0])
    if all(tuple(h) == first for h in cover[1:]):
        return TargetTemplate(first, None if ends else ())
    p = min(len(first), *(common_prefix_len(first, h) for h in cover[1:]))
    if not ends:
        return TargetTemplate(first[:p], ())
    s = min(len(first), *(common_suffix_len(first, h) for h in cover[1:]))
    shortest = min(len(h) for h in cover)
    if p + s > shortest:
        s = shortest - p
    return TargetTemplate(first[:p], first[len(first) - s:])


def refine(committed: TargetTemplate,
           fresh: TargetTemplate) -> TargetTemplate | RevisionConflict:
    """Merge a fresh consensus into the committed template.

    Committed tokens are immutable; the committed hole absorbs whatever
    fresh pins down around it. A complete template has no hole, so its
    prefix is also its end, and neither edge of it may grow. Checked in
    order, a prefix-edge, end-edge or width contradiction returns a
    RevisionConflict and leaves the committed template untouched.
    Otherwise a complete committed template comes back unchanged, a
    complete fresh one replaces it, and two hole templates merge into the
    longer prefix and the longer suffix.
    """
    done_c, done_f = committed.suffix is None, fresh.suffix is None
    n = common_prefix_len(committed.prefix, fresh.prefix)
    if _clash(committed.prefix, fresh.prefix, n, done_c, done_f):
        return RevisionConflict(n, _at(committed.prefix, n), _at(fresh.prefix, n))
    end_c = committed.prefix if done_c else committed.suffix
    end_f = fresh.prefix if done_f else fresh.suffix
    s = common_suffix_len(end_c, end_f)
    if _clash(end_c, end_f, s, done_c, done_f):
        return RevisionConflict(max(len(committed.slots) - 1 - s, 0),
                                _at(end_c[::-1], s), _at(end_f[::-1], s))
    if done_c != done_f:
        done, part = (committed, fresh) if done_c else (fresh, committed)
        if len(part.prefix) + len(part.suffix) > len(done.prefix):
            return RevisionConflict(len(part.prefix), None, None)
    if done_c:
        return committed
    if done_f:
        return fresh
    if (len(fresh.prefix) <= len(committed.prefix)
            and len(fresh.suffix) <= len(committed.suffix)):
        return committed
    return TargetTemplate(max(committed.prefix, fresh.prefix, key=len),
                          max(committed.suffix, fresh.suffix, key=len))


def _at(seq: tuple[str, ...], i: int) -> str | None:
    return seq[i] if i < len(seq) else None


def _clash(a: tuple[str, ...], b: tuple[str, ...], n: int,
           a_done: bool, b_done: bool) -> bool:
    """Whether edges a and b, which agree on their first n tokens, contradict:
    both go on and differ, or one ends at n on a complete template while the
    other goes on."""
    a_on, b_on = n < len(a), n < len(b)
    return (a_on or b_on) and (a_on or a_done) and (b_on or b_done)


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

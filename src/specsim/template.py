"""Committed target output: mass-weighted consensus templates with holes.

A template is the engine's monotonic-commitment state: an ordered run of
Fixed tokens and at most one Hole (the undetermined middle). Consensus over
a tau-mass cover of hypotheses commits their longest common prefix and
suffix; refinement only ever grows the committed material, and emission is
append-only with idiom spans kept atomic.

Templates are immutable values; the owning session swaps them atomically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._kernels import common_prefix_len, common_suffix_len
from .phrases import IdiomSpan

_TAU_SLACK = 1e-9  # mass sums land within an ulp of the threshold


@dataclass(frozen=True, slots=True)
class Hole:
    """The undetermined middle of a template; a template holds at most one."""


@dataclass(frozen=True, slots=True)
class RevisionConflict:
    """A fresh template contradicted an already committed Fixed slot."""

    slot: int
    committed: str | None
    got: str | None


@dataclass(frozen=True, slots=True)
class TargetTemplate:
    """Fixed tokens and at most one Hole; emit_ptr marks what was emitted."""

    slots: tuple[object, ...]
    emit_ptr: int = 0

    def hole_index(self) -> int | None:
        for i, s in enumerate(self.slots):
            if isinstance(s, Hole):
                return i
        return None

    def parts(self) -> tuple[tuple[str, ...], bool, tuple[str, ...]]:
        """(fixed prefix, has hole, fixed suffix); suffix empty without a hole."""
        i = self.hole_index()
        if i is None:
            return tuple(self.slots), False, ()
        return tuple(self.slots[:i]), True, tuple(self.slots[i + 1:])

    def fixed_tokens(self) -> tuple[str, ...]:
        """All Fixed tokens in order, holes skipped (the idiom-scan rendering)."""
        return tuple(s for s in self.slots if not isinstance(s, Hole))

    def render(self) -> str:
        return " ".join("[*]" if isinstance(s, Hole) else s for s in self.slots)

    def complete(self) -> bool:
        return self.hole_index() is None


def all_hole_template() -> TargetTemplate:
    return TargetTemplate((Hole(),))


def fixed_template(tokens: Sequence[str]) -> TargetTemplate:
    return TargetTemplate(tuple(tokens))


def consensus(hyps: Sequence[tuple[Sequence[str], float]], tau: float) -> TargetTemplate:
    """Commit what the tau-mass cover of hypotheses agrees on.

    Takes hypotheses sorted by mass descending; uses the smallest prefix of
    them whose cumulative mass reaches tau. The template is their longest
    common prefix, one Hole, and their longest common suffix; the suffix is
    truncated if prefix and suffix would overlap inside any cover member
    (the prefix wins, being emittable earliest). Identical cover members
    commit fully with no Hole. Below-tau total commits nothing.
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

    first = cover[0]
    if all(tuple(h) == tuple(first) for h in cover[1:]):
        return fixed_template(first)
    p = min(len(first), *(common_prefix_len(first, h) for h in cover[1:]))
    s = min(len(first), *(common_suffix_len(first, h) for h in cover[1:]))
    shortest = min(len(h) for h in cover)
    if p + s > shortest:
        s = shortest - p
    slots = tuple(first[:p]) + (Hole(),) + (tuple(first[len(first) - s:]) if s else ())
    return TargetTemplate(slots)


def refine(committed: TargetTemplate,
           fresh: TargetTemplate) -> TargetTemplate | RevisionConflict:
    """Merge a fresh consensus into the committed template.

    Committed Fixed slots are immutable; the committed Hole absorbs whatever
    fresh pins down around it. Any contradiction returns a RevisionConflict
    and leaves the committed template untouched.
    """
    pre_c, hole_c, suf_c = committed.parts()
    pre_f, hole_f, suf_f = fresh.parts()

    if not hole_c:
        if not hole_f:
            if pre_f == pre_c:
                return committed
            return _first_diff_conflict(pre_c, pre_f)
        if (common_prefix_len(pre_c, pre_f) < len(pre_f)
                or common_suffix_len(pre_c, suf_f) < len(suf_f)
                or len(pre_f) + len(suf_f) > len(pre_c)):
            return _fresh_vs_complete_conflict(pre_c, pre_f, suf_f)
        return committed

    if not hole_f:
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
        return TargetTemplate(tuple(full), committed.emit_ptr)

    m = common_prefix_len(pre_c, pre_f)
    if m < min(len(pre_c), len(pre_f)):
        return RevisionConflict(m, pre_c[m], pre_f[m])
    s = common_suffix_len(suf_c, suf_f)
    if s < min(len(suf_c), len(suf_f)):
        off = len(suf_c) - 1 - s
        return RevisionConflict(len(pre_c) + 1 + off, suf_c[off],
                                suf_f[len(suf_f) - 1 - s])
    new_pre = pre_f if len(pre_f) > len(pre_c) else pre_c
    new_suf = suf_f if len(suf_f) > len(suf_c) else suf_c
    if new_pre == pre_c and new_suf == suf_c:
        return committed
    return TargetTemplate(new_pre + (Hole(),) + new_suf, committed.emit_ptr)


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
    i = committed.hole_index()
    toks = tuple(tokens)
    if i is None:
        slots = committed.slots + toks
    else:
        slots = committed.slots[:i] + toks + committed.slots[i:]
    return TargetTemplate(slots, committed.emit_ptr)


def resolve_with(committed: TargetTemplate,
                 final: Sequence[str]) -> TargetTemplate:
    """Force-complete after a final-translation conflict: fill the hole from
    the aligned middle when the committed prefix agrees, else drop the hole.
    Committed slots are never altered."""
    pre, has_hole, suf = committed.parts()
    if not has_hole:
        return committed
    final = tuple(final)
    if common_prefix_len(final, pre) == len(pre) and len(final) >= len(pre):
        middle = final[len(pre):max(len(pre), len(final) - len(suf))]
    else:
        middle = ()
    return TargetTemplate(pre + middle + suf, committed.emit_ptr)


def emittable(template: TargetTemplate,
              idioms: Sequence[IdiomSpan]) -> tuple[tuple[str, ...], TargetTemplate]:
    """Maximal emission from emit_ptr: stop before the first Hole, never end
    strictly inside an idiom span.

    Idiom spans are indexed over the template's Fixed-token rendering (holes
    skipped), so a span straddling the hole boundary holds emission back
    until the hole resolves. Returns the tokens and the advanced template.
    """
    hole = template.hole_index()
    end = hole if hole is not None else len(template.slots)
    for span in sorted(idioms, key=lambda s: s.start, reverse=True):
        if span.start < end < span.end:
            end = span.start
    if end <= template.emit_ptr:
        return (), template
    toks = tuple(template.slots[template.emit_ptr:end])
    advanced = TargetTemplate(template.slots, end)
    return toks, advanced

"""Deterministic phrase-table translation with longest-match-leftmost scanning.

Doubles as the idiom glossary: entries flagged atomic mark target spans that
must be emitted as one unit. A table is built once and never changes, so it
is safe for concurrent reads and whatever is derived from it stays valid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True, slots=True)
class IdiomSpan:
    """Half-open target-token index range [start, end) of an atomic phrase."""

    start: int
    end: int


class PhraseTable:
    """Mapping of source token spans to target token spans, built once.

    Lookup is longest-match-first at each position, scanning left to right;
    tokens with no matching entry pass through unchanged. The constructor
    copies `entries` and `atomic`, so later changes to either never reach the
    table, and raises ValueError on an empty source, a blank token on either
    side, or an atomic source with no entry.
    """

    def __init__(self, entries: Mapping[Sequence[str], Sequence[str]] | None = None,
                 atomic: Iterable[Sequence[str]] = ()):
        self._entries: dict[tuple[str, ...], tuple[str, ...]] = {}
        for source, target in (entries or {}).items():
            src, tgt = tuple(source), tuple(target)
            if not src:
                raise ValueError("empty source key")
            if not all(isinstance(t, str) and t for t in src + tgt):
                raise ValueError(f"blank token in entry {src!r} -> {tgt!r}")
            self._entries[src] = tgt
        self._atomic = {tuple(a) for a in atomic}
        missing = self._atomic - self._entries.keys()
        if missing:
            raise ValueError(f"atomic source {min(missing, key=repr)!r} has no entry")
        lengths: dict[str, set[int]] = {}
        for src in self._entries:
            lengths.setdefault(src[0], set()).add(len(src))
        self._by_first = {tok: sorted(lens, reverse=True) for tok, lens in lengths.items()}
        self.max_source_len = max(map(len, self._entries), default=1)
        # atomic_targets() by first token, longest first
        self._idioms: dict[str, list[tuple[str, ...]]] = {}
        for t in self.atomic_targets():
            self._idioms.setdefault(t[0], []).append(t)

    def entries(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        return dict(self._entries)

    def atomic_targets(self) -> list[tuple[str, ...]]:
        """Target sides of atomic entries, longest first then lexicographic."""
        targets = {self._entries[src] for src in self._atomic if self._entries[src]}
        return sorted(targets, key=lambda t: (-len(t), t))

    def match_at(self, source: Sequence[str], pos: int) -> tuple[str, ...] | None:
        """Longest entry source matching at pos, or None."""
        first = source[pos]
        for ln in self._by_first.get(first, ()):
            if pos + ln <= len(source):
                cand = tuple(source[pos:pos + ln])
                if cand in self._entries:
                    return cand
        return None


def _scan(table: PhraseTable, source: Sequence[str], pos: int, stop: int,
          out: list[str]) -> int:
    """Greedy longest-match-leftmost from pos while pos < stop, appending to
    out; unmatched tokens pass through. A match starting before stop may run
    past it, never past the end of source. Returns the new scan position."""
    while pos < stop:
        key = table.match_at(source, pos)
        if key is None:
            out.append(source[pos])
            pos += 1
        else:
            out.extend(table._entries[key])
            pos += len(key)
    return pos


def translate(table: PhraseTable, source: Sequence[str]) -> tuple[str, ...]:
    """Greedy longest-match-leftmost translation; unmatched tokens pass through."""
    out: list[str] = []
    _scan(table, source, 0, len(source), out)
    return tuple(out)


def idiom_spans(table: PhraseTable, target: Sequence[str]) -> list[IdiomSpan]:
    """All maximal non-overlapping occurrences of atomic targets, leftmost-longest."""
    by_first = table._idioms
    if not by_first:
        return []
    spans: list[IdiomSpan] = []
    pos = 0
    n = len(target)
    while pos < n:
        hit = None
        for cand in by_first.get(target[pos], ()):
            if pos + len(cand) <= n and tuple(target[pos:pos + len(cand)]) == cand:
                hit = cand
                break  # candidates are longest-first
        if hit is None:
            pos += 1
        else:
            spans.append(IdiomSpan(pos, pos + len(hit)))
            pos += len(hit)
    return spans


def parse_phrase_table(text: str) -> PhraseTable:
    """Tab-separated entries: `source tokens<TAB>target tokens[<TAB>atomic]`;
    a source may appear on one line only. Lines end at "\n" only, so line
    numbers count as an editor counts them; a CR before it is whitespace."""
    entries: dict[tuple[str, ...], tuple[str, ...]] = {}
    atomic: list[tuple[str, ...]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 2 or 3 tab-separated fields")
        flag = parts[2].strip() if len(parts) == 3 else ""
        if flag and flag != "atomic":
            raise ValueError(f"line {lineno}: unknown flag {flag!r}")
        source = tuple(parts[0].split())
        if not source:
            raise ValueError(f"line {lineno}: empty source key")
        if source in entries:
            raise ValueError(f"line {lineno}: duplicate entry for source "
                             f"{' '.join(source)!r}")
        entries[source] = tuple(parts[1].split())
        if flag:
            atomic.append(source)
    return PhraseTable(entries, atomic)


class StreamTranslation:
    """Incremental greedy translation of an append-only source list, in place.

    `src` is the source list itself, not a copy: its owner (a session's
    observed prefix) may append to it directly and leave the scan behind;
    `extend` both appends and scans up to date. `pos` and `out` only grow:
    `out` is the committed target prefix of src[:pos], and a match is
    committed only once no longer table entry could still start at or
    before the scan position (the pending window keeps the last
    max_source_len - 1 tokens open), so later tokens never change it.
    `split` returns the committed target as a new tuple, and the pending
    source tokens src[pos:], so the translation of the stream plus any
    continuation is the committed tuple plus translate(pending +
    continuation); `preview` computes that without committing. Every call
    must pass the same table.
    """

    __slots__ = ("src", "pos", "out")

    def __init__(self, src: list[str] | None = None):
        self.src: list[str] = [] if src is None else src
        self.pos = 0
        self.out: list[str] = []

    def extend(self, table: PhraseTable, tokens: Sequence[str]) -> None:
        """Append tokens and commit every match that can no longer change:
        O(len(tokens) + unscanned tokens + max_source_len)."""
        src = self.src
        src.extend(tokens)
        self.pos = _scan(table, src, self.pos, len(src) - (table.max_source_len - 1),
                         self.out)

    def split(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The committed target tuple and the pending (unscanned) source tokens."""
        return tuple(self.out), tuple(self.src[self.pos:])

    def preview(self, table: PhraseTable, continuation: Sequence[str]) -> tuple[str, ...]:
        """Translation of the full stream plus continuation; does not commit."""
        out, pending = self.split()
        return out + translate(table, pending + tuple(continuation))

    def finish(self, table: PhraseTable) -> tuple[str, ...]:
        return self.preview(table, ())


def settled_translation(table: PhraseTable, source: Sequence[str]) -> tuple[str, ...]:
    """The part of translate(table, source) that no token appended to source
    can change: the `out` of a StreamTranslation extended by source."""
    stream = StreamTranslation()
    stream.extend(table, source)
    return tuple(stream.out)


class PrefixView(Sequence[str]):
    """Read-only snapshot of the first n tokens of a stream's source.

    O(1) to take, because the source is append-only; indexing and slicing
    cost O(slice). `table` is the phrase table the stream is translated
    with: split_prefix, given that same table, reads a current view's
    stream (`is_current`) instead of translating the prefix itself.
    """

    __slots__ = ("stream", "table", "_n")

    def __init__(self, stream: StreamTranslation, table: PhraseTable):
        self.stream = stream
        self.table = table
        self._n = len(stream.src)

    def is_current(self) -> bool:
        """Whether nothing has been appended to the stream since the snapshot."""
        return self._n == len(self.stream.src)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            if step == 1:
                return tuple(self.stream.src[start:stop])
            return tuple(self.stream.src[i] for i in range(start, stop, step))
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("prefix index out of range")
        return self.stream.src[i]

    def __iter__(self) -> Iterator[str]:
        return islice(self.stream.src, self._n)


def split_prefix(table: PhraseTable, prefix: Sequence[str]
                 ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """StreamTranslation.split of prefix translated with table: from the stream
    of a current PrefixView over that table in O(new tokens), else from
    scratch in O(len(prefix))."""
    if isinstance(prefix, PrefixView) and prefix.table is table and prefix.is_current():
        stream = prefix.stream
        stream.extend(table, ())  # scan what was appended since
    else:
        stream = StreamTranslation()
        stream.extend(table, prefix)
    return stream.split()

"""Deterministic phrase-table translation with longest-match-leftmost scanning.

Doubles as the idiom glossary: entries flagged atomic mark target spans that
must be emitted as one unit. Tables are immutable after load and safe for
concurrent reads.
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
    """Mapping of source token spans to target token spans.

    Lookup is longest-match-first at each position, scanning left to right;
    tokens with no matching entry pass through unchanged.
    """

    def __init__(self, entries: Mapping[Sequence[str], Sequence[str]] | None = None,
                 atomic: Iterable[Sequence[str]] = ()):
        self._entries: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._atomic: set[tuple[str, ...]] = set()
        self._by_first: dict[str, list[int]] = {}
        self.max_source_len = 1
        if entries:
            atomic_keys = {tuple(a) for a in atomic}
            for src, tgt in entries.items():
                self.add(src, tgt, atomic=tuple(src) in atomic_keys)

    def add(self, source: Sequence[str], target: Sequence[str], atomic: bool = False):
        """Add or replace an entry, atomic or not as this call says; ValueError
        on an empty source or a blank token."""
        src, tgt = tuple(source), tuple(target)
        if not src:
            raise ValueError("empty source key")
        if not all(isinstance(t, str) and t for t in src + tgt):
            raise ValueError(f"blank token in entry {src!r} -> {tgt!r}")
        self._entries[src] = tgt
        if atomic:
            self._atomic.add(src)
        else:
            self._atomic.discard(src)
        lens = self._by_first.setdefault(src[0], [])
        if len(src) not in lens:
            lens.append(len(src))
            lens.sort(reverse=True)
        self.max_source_len = max(self.max_source_len, len(src))

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> dict[tuple[str, ...], tuple[str, ...]]:
        return dict(self._entries)

    def is_atomic(self, source: Sequence[str]) -> bool:
        return tuple(source) in self._atomic

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
    targets = table.atomic_targets()
    if not targets:
        return []
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for t in targets:
        by_first.setdefault(t[0], []).append(t)
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
    a source may appear on one line only."""
    table = PhraseTable()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 2 or 3 tab-separated fields")
        atomic = False
        if len(parts) == 3:
            flag = parts[2].strip()
            if flag and flag != "atomic":
                raise ValueError(f"line {lineno}: unknown flag {flag!r}")
            atomic = flag == "atomic"
        source = tuple(parts[0].split())
        if source in table._entries:
            raise ValueError(f"line {lineno}: duplicate entry for source "
                             f"{' '.join(source)!r}")
        try:
            table.add(source, parts[1].split(), atomic=atomic)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return table


class StreamTranslation:
    """Incremental greedy translation of an append-only source list, in place.

    `src` is the source list itself, not a copy: its owner (a session's
    observed prefix) may append to it directly and leave the scan behind;
    `extend` both appends and scans up to date. `pos` and `out` only grow:
    `out` is the committed target prefix of src[:pos], and a match is
    committed only once no longer table entry could still start at or
    before the scan position (the pending window keeps the last
    max_source_len - 1 tokens open), so later tokens never change it.
    `preview` translates the pending tokens plus a hypothetical continuation
    without committing; it reuses one tuple of `out`, rebuilt only after
    `out` has grown. Every call must pass the same table.
    """

    __slots__ = ("src", "pos", "out", "_out_tuple")

    def __init__(self, src: list[str] | None = None):
        self.src: list[str] = [] if src is None else src
        self.pos = 0
        self.out: list[str] = []
        self._out_tuple: tuple[str, ...] = ()

    def extend(self, table: PhraseTable, tokens: Sequence[str]) -> None:
        """Append tokens and commit every match that can no longer change:
        O(len(tokens) + unscanned tokens + max_source_len)."""
        src = self.src
        src.extend(tokens)
        self.pos = _scan(table, src, self.pos, len(src) - (table.max_source_len - 1),
                         self.out)

    def preview(self, table: PhraseTable, continuation: Sequence[str]) -> tuple[str, ...]:
        """Translation of the full stream plus continuation; does not commit."""
        if len(self._out_tuple) != len(self.out):
            self._out_tuple = tuple(self.out)
        return self._out_tuple + translate(table, self.src[self.pos:] + list(continuation))

    def finish(self, table: PhraseTable) -> tuple[str, ...]:
        return self.preview(table, ())


class PrefixView(Sequence[str]):
    """Read-only snapshot of the first n tokens of a stream's source.

    O(1) to take, because the source is append-only; indexing and slicing
    cost O(slice). `table` is the phrase table the stream is translated
    with: a consumer holding that same table may read a current view's
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

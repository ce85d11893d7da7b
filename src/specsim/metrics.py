"""Session quality and latency metrics.

Everything here is a pure function of the output event log plus the
transcript, so a written log replays to the identical report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from ._kernels import levenshtein


class EmptyEmission(ValueError):
    pass


def average_lagging(g: Sequence[int], src_len: int) -> float:
    """Average lagging over one utterance.

    g[j] is the number of source tokens heard when target token j+1 was
    emitted. With gamma = T/S and tau the first emission index that had heard
    the full source (T if none), AL = (1/tau) * sum_{j=1..tau} (g(j) - (j-1)/gamma).
    ValueError if src_len is below 1, EmptyEmission if g is empty.
    """
    if src_len < 1:
        raise ValueError(f"src_len must be at least 1, got {src_len}")
    t = len(g)
    if t == 0:
        raise EmptyEmission("no target tokens were emitted")
    gamma = t / src_len
    tau = t
    for j, seen in enumerate(g, start=1):
        if seen >= src_len:
            tau = j
            break
    total = 0.0
    for j in range(1, tau + 1):
        total += g[j - 1] - (j - 1) / gamma
    return total / tau


def accuracy(final: Sequence[str], reference: Sequence[str]) -> float:
    """1 - normalized token-level edit distance, in [0, 1]."""
    longest = max(len(final), len(reference))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(tuple(final), tuple(reference)) / longest


@dataclass(frozen=True, slots=True)
class SessionReport:
    al: float | None
    al_wait_until_end: float
    hit_rate: float
    divergences: int
    conflicts: int
    catchups: int
    accuracy: float | None
    emitted_len: int
    source_len: int

    def to_dict(self) -> dict:
        out = {
            "al": self.al,
            "al_wait_until_end": self.al_wait_until_end,
            "hit_rate": self.hit_rate,
            "divergences": self.divergences,
            "conflicts": self.conflicts,
            "catchups": self.catchups,
            "emitted_len": self.emitted_len,
            "source_len": self.source_len,
        }
        if self.accuracy is not None:
            out["accuracy"] = self.accuracy
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True) + "\n"


def compute_report(events: Sequence, source_len: int,
                   reference: Sequence[str] | None) -> SessionReport:
    """Assemble the report from the event log (see engine.OutputEvent).

    hit accounting: every source token was either matched by a named branch,
    the subject of a Diverge, or bypassed by a Catchup span, so hits fall out
    of the log without a dedicated event kind.
    """
    emitted: list[str] = []
    g: list[int] = []
    divergences = conflicts = catchups = bypassed = 0
    for ev in events:
        kind = ev.kind
        if kind == "emit":
            emitted.extend(ev.toks)
            g.extend([ev.src_seen] * len(ev.toks))
        elif kind == "diverge":
            divergences += 1
        elif kind == "conflict":
            conflicts += 1
        elif kind == "catchup":
            catchups += 1
            bypassed += ev.span
    hits = source_len - divergences - bypassed
    al = average_lagging(g, source_len) if g and source_len else None
    acc = accuracy(emitted, reference) if reference is not None else None
    return SessionReport(
        al=al,
        al_wait_until_end=float(source_len),
        hit_rate=hits / source_len if source_len else 1.0,
        divergences=divergences,
        conflicts=conflicts,
        catchups=catchups,
        accuracy=acc,
        emitted_len=len(emitted),
        source_len=source_len,
    )

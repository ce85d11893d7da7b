"""Per-utterance session: advance, expand, prune, commit, emit, recover.

Each observed token advances the prediction tree; matches refresh the
consensus template and emit newly fixed tokens, divergences trigger
re-prediction on the full observed prefix, buffer overflow triggers a direct
catch-up translation, and a perplexity check each time the observed prefix
reaches or passes a multiple of the drift window flags context drift.
Emission is append-only: committed output is never retracted.

A hit tick expands from the frontier `advance` hands back, without walking
the tree again. It prunes only when a prune may fold something: after a
tree is built (at the start, on re-predict and on catch-up), after an
expansion, and after an advance that left a named node with less mass. A
prune of a tree whose named nodes only gained mass and lost siblings since
the last prune changes nothing, so the skipped ones would not change the log
either. A commit whose named leaves hold less than tau of the mass changes
nothing: consensus below tau is the all-hole template, and refine keeps the
committed template for it. So such a commit is skipped before its leaves are
sorted. A commit whose refine leaves the template as it was skips the
emission scan: every template change is emitted right after it, so there is
nothing left to emit. Commits run only on ticks on which the hypotheses
changed (a new tree counts as a change), so a conflict is logged once per
tick on which the hypotheses changed; a standing conflict is not logged
again on the ticks between.
`ReferenceSession` in `tests/oracles.py`, which skips none of these steps,
is their executable spec: the engine must match it tick for tick.

`session.events` is the session's only record: each event is appended as
it happens, `deliver`, `step`, `catchup` and `finalize` return the events
they appended (the log's tail from the call's start), and the report
derives every count from the log alone.

One session is one logical execution stream and the one owner of its
observed prefix: an append-only list that is also the source of the
session's StreamTranslation. Backends and trees get O(1) PrefixView
snapshots of it, never copies. The stream is scanned lazily: a hit tick only
appends, NgramBackend scans the stream inside its predict, and finalize reads
it with `finish`. Distinct sessions may share a backend: it keeps no
per-session state, and its memo changes its speed, never its predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .metrics import SessionReport, compute_report
from .phrases import (PhraseTable, PrefixView, StreamTranslation, idiom_spans,
                      translate)
from .predictor import Backend, NoPrediction, Prediction, check_predictions
from .stream import ContextDoc, EngineConfig, TokenEvent
from .template import (_TAU_SLACK, RevisionConflict, TargetTemplate,
                       all_hole_template, consensus, emittable, extend_into_hole,
                       fixed_template, refine, resolve_with)
from .tree import (PredictionTree, advance, build_tree, expand,
                   expandable_leaves, leaf_hypotheses, named_mass, prune)


class OutOfOrderToken(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class OutputEvent:
    """One entry of the session's output log."""

    kind: str  # emit | diverge | repredict | catchup | context_shift | conflict
    t_ms: int
    toks: tuple[str, ...] = ()
    span: int = 0
    src_seen: int = 0
    slot: int | None = None
    committed: str | None = None
    got: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "t_ms": self.t_ms}
        if self.kind == "emit":
            out["toks"] = list(self.toks)
            out["src"] = self.src_seen
        elif self.kind == "catchup":
            out["span"] = self.span
        elif self.kind == "conflict":
            out["slot"] = self.slot
            out["committed"] = self.committed
            out["got"] = self.got
        return out


class Session:
    """State for one utterance; see start_session."""

    def __init__(self, config: EngineConfig, context: ContextDoc,
                 backend: Backend, table: PhraseTable):
        self.config = config
        self.context = context
        self.backend = backend
        self.table = table
        self.observed: list[str] = []
        self.stream = StreamTranslation(self.observed)
        self.delivered = 0
        # never more than buffer_limit + 1 events, so popping a list's head is
        # cheap; an empty list takes 56 bytes against over 700 for a deque
        self.buffer: list[TokenEvent] = []
        self.template: TargetTemplate = all_hole_template()
        self.emitted: list[str] = []
        self.events: list[OutputEvent] = []
        self.last_t = 0
        self.finalized = False
        self._next_drift = config.drift_window  # observed length of the next check
        self.tree: PredictionTree  # None once finalized
        self._new_tree()
        self._baseline_ppl = self._context_perplexity()

    # -- predictor plumbing ------------------------------------------------

    def _view(self) -> PrefixView:
        return PrefixView(self.stream, self.table)

    def _ranked(self, prefix: Sequence[str]) -> tuple[Prediction, ...]:
        """The backend's tuple for prefix, checked where it becomes tree mass;
        NoPrediction is the empty tuple. The session's one call of predict."""
        backend, k = self.backend, self.config.k
        try:
            return check_predictions(backend, backend.predict(self.context, prefix, k), k)
        except NoPrediction:
            return ()

    def _new_tree(self):
        """Re-anchor at the full observed prefix: commit and prune are due."""
        prefix = self._view()  # backend query and tree anchor
        self.tree = build_tree(prefix, self._ranked(prefix))
        self._dirty = self._prune_due = True

    def _context_perplexity(self) -> float | None:
        ppl = getattr(self.backend, "perplexity", None)
        if ppl is None or not self.context.body:
            return None
        return ppl(self.context.body)

    # -- delivery ----------------------------------------------------------

    def _take(self, ev: TokenEvent):
        if ev.index != self.delivered:
            raise OutOfOrderToken(f"expected index {self.delivered}, got {ev.index}")
        self.delivered += 1
        self.last_t = ev.t_ms
        self.buffer.append(ev)

    # -- emission ----------------------------------------------------------

    def _emit(self, t_ms: int):
        spans = idiom_spans(self.table, self.template.fixed_tokens())
        toks = emittable(self.template, spans, len(self.emitted))
        if toks:
            self.emitted.extend(toks)
            self.events.append(OutputEvent("emit", t_ms, toks=toks,
                                           src_seen=self.delivered))

    def _refine(self, fresh: TargetTemplate, t_ms: int) -> bool:
        """Refine the template by fresh, or log the conflict and return False."""
        merged = refine(self.template, fresh)
        if isinstance(merged, RevisionConflict):
            self.events.append(OutputEvent("conflict", t_ms, slot=merged.slot,
                                           committed=merged.committed, got=merged.got))
            return False
        self.template = merged
        return True

    def _commit(self, t_ms: int):
        """Consensus over current hypotheses, refine, emit. Every template
        change is emitted right after it, so an unchanged one (refine kept
        it, or a conflict) has nothing left to emit.

        A named mass below tau - 2 * _TAU_SLACK returns early, before the
        leaves are sorted: consensus's running sum of the same masses is
        within n ulps of their correctly rounded sum, so it cannot reach
        tau - _TAU_SLACK, the consensus would be the all-hole template, and
        refine keeps the committed template for that."""
        self._dirty = False
        if named_mass(self.tree) < self.config.tau - 2 * _TAU_SLACK:
            return
        before = self.template
        self._refine(consensus(leaf_hypotheses(self.tree), self.config.tau), t_ms)
        if self.template is not before:
            self._emit(t_ms)

    # -- per-event processing ----------------------------------------------

    def _process(self, ev: TokenEvent):
        token, t_ms = ev.surface, ev.t_ms
        self.observed.append(token)

        outcome = advance(self.tree, token)
        if outcome.diverged:
            self.events.append(OutputEvent("diverge", t_ms))
            self.events.append(OutputEvent("repredict", t_ms))
            self._new_tree()
        else:
            if outcome.changed:
                self._dirty = True
            if outcome.moved:
                self._prune_due = True
            leaves = expandable_leaves(outcome.frontier, self.config.d)
            if leaves:
                prefix = self._view()  # what every expandable leaf has consumed
                for leaf in leaves:
                    if expand(self.tree, leaf, self._ranked(prefix)):
                        self._dirty = self._prune_due = True
            if self._prune_due:
                if prune(self.tree, self.config.epsilon):
                    self._dirty = True
                self._prune_due = False

        if self._dirty:
            self._commit(t_ms)
        self._drift_check(t_ms)

    def _drift_check(self, t_ms: int):
        """Check the last drift window once the observed prefix reaches or
        passes the next multiple of it, so a catch-up skips no check."""
        cfg = self.config
        n = len(self.observed)
        if n < self._next_drift or self._baseline_ppl is None:
            return
        self._next_drift = (n // cfg.drift_window + 1) * cfg.drift_window
        window = tuple(self.observed[-cfg.drift_window:])
        ppl = self.backend.perplexity(window)  # type: ignore[attr-defined]
        if ppl / self._baseline_ppl > cfg.drift_ratio:
            self.events.append(OutputEvent("context_shift", t_ms))


def start_session(config: EngineConfig, context: ContextDoc, backend: Backend,
                  table: PhraseTable) -> Session:
    """Build the initial tree from the empty prefix and an empty template."""
    return Session(config, context, backend, table)


def deliver(session: Session, ev: TokenEvent) -> list[OutputEvent]:
    """Queue one event; an overfull buffer triggers catch-up immediately."""
    if session.finalized:
        raise ValueError("session already finalized")
    if ev.is_final:
        raise ValueError("final event must go to finalize()")
    n = len(session.events)
    session._take(ev)
    if len(session.buffer) > session.config.buffer_limit:
        catchup(session)
    return session.events[n:]


def step(session: Session) -> list[OutputEvent]:
    """Process the oldest buffered event, if any."""
    if not session.buffer:
        return []
    n = len(session.events)
    session._process(session.buffer.pop(0))
    return session.events[n:]


def feed(session: Session, ev: TokenEvent) -> list[OutputEvent]:
    """Deliver one event and process one buffered event (the standard path).
    After a catch-up the buffer is empty, so step adds nothing."""
    return deliver(session, ev) + step(session)


def catchup(session: Session) -> list[OutputEvent]:
    """Drain the buffer, bypassing speculation: translate the span directly,
    commit it into the hole, run the drift check the span may have passed,
    re-anchor the tree at the new full prefix."""
    if not session.buffer:
        raise ValueError("catch-up requires a non-empty buffer")
    n = len(session.events)
    span = [ev.surface for ev in session.buffer]
    t_ms = session.buffer[-1].t_ms
    session.buffer.clear()
    session.observed.extend(span)
    session.events.append(OutputEvent("catchup", t_ms, span=len(span)))
    session.template = extend_into_hole(session.template,
                                        translate(session.table, span))
    session._emit(t_ms)
    session._drift_check(t_ms)
    session._new_tree()
    return session.events[n:]


def finalize(session: Session, ev: TokenEvent | None = None,
             reference: Sequence[str] | None = None
             ) -> tuple[list[OutputEvent], SessionReport]:
    """Drain pending events, resolve every hole, emit the remainder.

    The hole filler is the best surviving utterance-end hypothesis consistent
    with the full observed source; with none (typically after divergence) the
    observed source is translated directly. A conflicting filler is recorded
    and the committed template force-completes instead; emission never
    retracts. The finalized session keeps its log and output, not its tree.
    """
    if session.finalized:
        raise ValueError("session already finalized")
    n = len(session.events)
    if ev is not None:
        if not ev.is_final:
            raise ValueError("finalize requires the final event")
        session._take(ev)
    while session.buffer:
        session._process(session.buffer.pop(0))

    t_ms = session.last_t
    final_tr = _final_translation(session)
    session.tree = None  # type: ignore[assignment]
    if not session._refine(fixed_template(final_tr), t_ms):
        session.template = resolve_with(session.template, final_tr)
    session._emit(t_ms)
    session.finalized = True
    report = compute_report(session.events, session.delivered, reference)
    return session.events[n:], report


def _final_translation(session: Session) -> tuple[str, ...]:
    """Translation of the best surviving terminal leaf with everything
    consumed, else the direct translation of the observed source."""
    best: tuple[float, tuple[str, ...]] | None = None
    for node in session.tree.leaves():
        if node.is_other or not node.terminal or not node.consumed:
            continue
        key = (-node.path_p, node.translation)
        if best is None or key < best:
            best = key
    return best[1] if best is not None else session.stream.finish(session.table)

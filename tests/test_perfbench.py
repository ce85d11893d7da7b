"""The benchmark's tracer (perfbench/spans.py) finds every name it wraps,
and every wrapper and observer runs on a real session.

A traced benchmark run looks each function up by name on its owner, so a
renamed or removed import there ends the run with a KeyError; its observers
read their call's arguments by position, so a reordered signature ends it
with an IndexError or an AttributeError.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from specsim import engine
from specsim.ngram import train_ngram
from specsim.phrases import PhraseTable
from specsim.predictor import NgramBackend
from specsim.stream import ContextDoc, EngineConfig, TokenEvent

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_owner_and_attribute_resolves():
    spans = load_spans()
    # Tracer.installed reads vars(owner)[attr]: an inherited method would not do
    missing = [f"{owner}.{attr}" for _, owner, attr in spans.SPANS
               if attr not in vars(spans._owner(owner))]
    assert missing == []


def test_a_traced_session_reaches_every_span():
    """One small n-gram session under the tracer. Like the benchmark's
    Player it calls deliver, step and finalize through the engine module,
    where the wrappers are installed. The context body is scored for
    perplexity, a horizon below the sentence length makes leaves to expand,
    a burst over the buffer limit runs a catch-up, a final token that no
    hypothesis predicted, and that no sentence ends with, leaves finalize no
    finished hypothesis, so it translates the stream, and a reference is
    scored. That session's named mass never reaches tau, so its commits are
    skipped before consensus ranks the leaves; a second session on a one-sentence
    corpus holds over 0.9 of the mass in one hypothesis and commits it."""
    spans = load_spans()
    model = train_ngram([["a", "b", "c", "d", "e"], ["a", "b", "d", "c", "e"]], 2)
    table = PhraseTable({("a",): ("A",), ("b", "c"): ("BC",), ("d",): ("D",)},
                        atomic=[("b", "c")])
    backend = NgramBackend(model, table, max_len=2)
    tokens = ["a", "b", "c", "d", "e", "a", "b", "a"]
    events = [TokenEvent(i, tok, 100 * i, is_final=i == len(tokens) - 1)
              for i, tok in enumerate(tokens)]
    tracer = spans.Tracer()
    with tracer.installed():
        session = engine.start_session(EngineConfig(k=2, d=3, buffer_limit=2),
                                       ContextDoc("c", ("a", "b", "c", "d", "e")),
                                       backend, table)
        for ticks in ([events[0]], [events[1]], [events[2]], events[3:6], [events[6]]):
            for ev in ticks:
                engine.deliver(session, ev)
            engine.step(session)
        engine.finalize(session, events[7], ("A", "BC", "D", "e", "A", "b", "A"))
        sure = NgramBackend(train_ngram([["x", "y"]], 2, alpha=0.01), table, max_len=3)
        session = engine.start_session(EngineConfig(), ContextDoc("c"), sure, table)
        engine.deliver(session, TokenEvent(0, "x", 0))
        engine.step(session)
        engine.finalize(session, TokenEvent(1, "y", 100, is_final=True))
    assert [name for name in tracer.names if tracer.count(name) == 0] == []
    assert all(math.isfinite(v) for v in tracer.observed(1).values())

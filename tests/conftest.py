"""Shared fixtures: golden files, expected outputs, the benchmark's workloads,
toy models, randomized scenario generators."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from specsim.ngram import END, parse_corpus, train_ngram
from specsim.phrases import PhraseTable, parse_phrase_table, translate
from specsim.predictor import NgramBackend, Prediction, ScriptedBackend, load_scripted_fixture
from specsim.stream import ContextDoc, EngineConfig, Transcript, parse_transcript, transcript_from_tokens

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Every pinned event-log digest and golden report, in one file: a change
# that alters a log on purpose edits this file and says why in CHANGES.md.
EXPECTED = json.loads((FIXTURES / "expected.json").read_text("utf-8"))


def load_perfbench(name: str):
    """A module of the benchmark harness, loaded from perfbench/<name>.py
    (not a package). It is registered before it runs: @dataclass looks its
    module up in sys.modules."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def set_up_workload(wl):
    """What perfbench/run.py's set_up builds from a generated workload: the
    parsed transcripts, the config, the phrase table and a fresh backend."""
    table = parse_phrase_table(wl.phrases)
    model = train_ngram(parse_corpus(wl.corpus), wl.order, wl.alpha)
    backend = NgramBackend(model, table, max_len=wl.max_len)
    transcripts = [parse_transcript(u.jsonl) for u in wl.utterances]
    return transcripts, EngineConfig(**wl.config), table, backend


@pytest.fixture(scope="session")
def shopping_transcript() -> Transcript:
    return parse_transcript((FIXTURES / "shopping" / "transcript.jsonl").read_text("utf-8"))


@pytest.fixture(scope="session")
def shopping_backend() -> ScriptedBackend:
    return load_scripted_fixture((FIXTURES / "shopping" / "predictions.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def shopping_table() -> PhraseTable:
    return parse_phrase_table((FIXTURES / "shopping" / "phrases.tsv").read_text("utf-8"))


@pytest.fixture()
def shopping_context() -> ContextDoc:
    return ContextDoc("daily-life")


@pytest.fixture(scope="session")
def toy_model():
    return train_ngram([["a", "b", "c"], ["a", "b", "d"]], 2, 0.1)


def make_scenario(rng: random.Random, ending: str | None = None):
    """One randomized scripted scenario with table-derived translations.

    Returns (transcript, backend, table, context). Every hypothesis
    translation is the phrase translation of its full hypothetical source,
    so after any divergence the final output must equal the phrase
    translation of the observed source (absent conflicts).

    With `ending`, the source and every hypothesis end in that token, whose
    one-token phrase is part of no longer one: all translations share their
    last token, so consensus commits a suffix. Without it the random draws
    are the same as ever.
    """
    vocab = [f"s{i}" for i in range(8)]
    n = rng.randint(3, 10)
    true = [rng.choice(vocab) for _ in range(n)]

    entries = {(tok,): (f"t{i}",) for i, tok in enumerate(vocab)}
    for _ in range(rng.randint(0, 3)):
        start = rng.randrange(0, n)
        ln = rng.randint(2, 3)
        span = tuple(true[start:start + ln])
        if len(span) >= 2:
            entries[span] = tuple(f"g{rng.randrange(50)}" for _ in range(rng.randint(1, 3)))
    tail: tuple[str, ...] = ()
    if ending is not None:
        tail = (ending,)
        entries[tail] = (ending.upper(),)
        true.append(ending)
    table = PhraseTable(entries)

    def make_items(prefix: tuple[str, ...]):
        remainder = tuple(true[len(prefix):])
        count = rng.randint(1, 4)
        conts: list[tuple[str, ...]] = []
        if remainder and rng.random() < 0.7:
            conts.append(remainder)
        while len(conts) < count:
            ln = rng.randint(1, 6)
            cont = tuple(rng.choice(vocab) for _ in range(ln)) + tail
            if cont not in conts:
                conts.append(cont)
        masses = sorted((rng.uniform(0.05, 0.5) for _ in conts), reverse=True)
        scale = min(1.0, 0.97 / sum(masses))
        return [
            Prediction(cont + (END,), m * scale,
                       translate(table, prefix + cont))
            for cont, m in zip(conts, masses)
        ]

    entries = {("ctx", ()): make_items(())}
    for i in range(1, len(true)):
        if rng.random() < 0.8:
            prefix = tuple(true[:i])
            entries[("ctx", prefix)] = make_items(prefix)
    backend = ScriptedBackend(entries)
    transcript = transcript_from_tokens(true, reference=translate(table, true))
    return transcript, backend, table, ContextDoc("ctx")


def random_config(rng: random.Random) -> EngineConfig:
    return EngineConfig(
        k=rng.randint(1, 5),
        d=rng.randint(1, 3),
        epsilon=rng.choice([0.01, 0.05, 0.1]),
        tau=rng.choice([0.6, 0.75, 0.9]),
        buffer_limit=rng.randint(1, 6),
    )


def make_ngram_scenario(rng: random.Random, tau: float):
    """One randomized n-gram scenario at threshold tau.

    Returns (transcript, backend, table, context, config). The source is two
    corpus sentences, with one token substituted in 30 % of cases; the table
    holds an atomic idiom; 30 % of contexts carry a body, with drift checks
    every 2 to 4 tokens. Horizons of 1 to 4 tokens truncate hypotheses,
    which the session then expands.
    """
    vocab = [f"w{i}" for i in range(4)]
    corpus = [[rng.choice(vocab) for _ in range(rng.randint(2, 6))]
              for _ in range(rng.randint(1, 5))]
    table = PhraseTable({**{(w,): (w.upper(),) for w in vocab},
                         ("w0", "w1"): ("W01",), ("w2", "w3"): ("W2", "W3")},
                        atomic=[("w2", "w3")])
    model = train_ngram(corpus, rng.randint(1, 3), rng.choice([0.1, 0.01]))
    backend = NgramBackend(model, table, max_len=rng.randint(1, 4))
    body: tuple[str, ...] = ()
    if rng.random() < 0.3:
        body = tuple(rng.choice(corpus))
    config = EngineConfig(k=rng.randint(1, 5), d=rng.randint(1, 3),
                          epsilon=rng.choice([0.01, 0.05]), tau=tau,
                          buffer_limit=rng.randint(1, 4),
                          drift_ratio=rng.choice([1.2, 2.0]),
                          drift_window=rng.randint(2, 4))
    tokens = rng.choice(corpus) + rng.choice(corpus)
    if rng.random() < 0.3:
        tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
    transcript = transcript_from_tokens(tokens, reference=translate(table, tokens))
    return transcript, backend, table, ContextDoc("ctx", body), config

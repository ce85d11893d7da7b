"""Every boundary value checks itself in its constructor: Python-built
configs, models, tables and backends are refused as their loaders refuse
the same values."""

from __future__ import annotations

import pytest

from specsim.ngram import END, START, NgramModel, train_ngram
from specsim.phrases import PhraseTable
from specsim.predictor import NgramBackend, Prediction, ScriptedBackend
from specsim.stream import EngineConfig


def _model(order=2, alpha=0.1, vocab=("a",), counts=None):
    return NgramModel(order, alpha, vocab, {(): {"a": 1}} if counts is None else counts)


def _scripted(p=0.5, cont=("x",), tr=("t",)):
    return ScriptedBackend({("c", ()): [Prediction(cont, p, tr)]})


@pytest.mark.parametrize("build", [
    pytest.param(lambda: EngineConfig(k=1.5), id="config-k-float"),
    pytest.param(lambda: EngineConfig(k=True), id="config-k-bool"),
    pytest.param(lambda: EngineConfig(epsilon="0.1"), id="config-epsilon-string"),
    pytest.param(lambda: EngineConfig(drift_window=2.5), id="config-drift-window-float"),
    pytest.param(lambda: _model(counts={(): {"a": 1, "zz": 5}}), id="model-stray-count-token"),
    pytest.param(lambda: _model(order=True), id="model-order-bool"),
    pytest.param(lambda: _model(alpha=float("inf")), id="model-alpha-inf"),
    pytest.param(lambda: _model(vocab=("a", "")), id="model-blank-vocab-token"),
    pytest.param(lambda: _model(counts={(): {"a": -1}}), id="model-negative-count"),
    pytest.param(lambda: _model(vocab=("a", START)), id="model-start-symbol-in-vocab"),
    pytest.param(lambda: _model(vocab=("a", "b c")), id="model-vocab-token-with-space"),
    pytest.param(lambda: _model(counts={("a b",): {"a": 1}}),
                 id="model-history-token-with-space"),
    pytest.param(lambda: _model(counts={("a", "a"): {"a": 1}}),
                 id="model-history-longer-than-order"),
    pytest.param(lambda: train_ngram([["a", END, "b"]], 2), id="train-end-symbol-in-corpus"),
    pytest.param(lambda: train_ngram([["a"], [START, "b"]], 2), id="train-start-symbol-in-corpus"),
    pytest.param(lambda: train_ngram([["a b", "c"], ["a b", "d"]], 2),
                 id="train-token-with-space"),
    pytest.param(lambda: PhraseTable({("a",): ("x", "")}), id="phrase-blank-target-token"),
    pytest.param(lambda: PhraseTable({("a", ""): ("x",)}), id="phrase-blank-source-token"),
    pytest.param(lambda: PhraseTable({("",): ("x",)}), id="phrase-blank-token-in-entries"),
    pytest.param(lambda: PhraseTable({("a",): ("x",)}, atomic=[("b",)]),
                 id="phrase-atomic-source-without-entry"),
    pytest.param(lambda: _scripted(p=float("nan")), id="scripted-p-nan"),
    pytest.param(lambda: _scripted(p=2.0), id="scripted-p-above-1"),
    pytest.param(lambda: _scripted(cont=()), id="scripted-empty-continuation"),
    pytest.param(lambda: _scripted(tr=None), id="scripted-translation-none"),
    pytest.param(lambda: NgramBackend(train_ngram([["a"]], 2), PhraseTable(), max_len=0),
                 id="ngram-backend-max-len-0"),
])
def test_constructor_rejects(build):
    with pytest.raises(ValueError):
        build()


def test_scripted_backend_names_the_bad_entry():
    with pytest.raises(ValueError, match=r"context .c., prefix <empty>: prediction with probability nan"):
        _scripted(p=float("nan"))

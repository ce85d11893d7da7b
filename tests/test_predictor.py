"""Prediction sets, scripted lookup, n-gram backend, remote wire handling."""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import unittest.mock
import urllib.error
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim import predictor
from specsim.engine import start_session
from specsim.ngram import END, train_ngram
from specsim.phrases import (PhraseTable, PrefixView, StreamTranslation,
                             settled_translation, translate)
from specsim.predictor import (NgramBackend, NoPrediction, Prediction,
                               RemoteBackend, load_scripted_fixture,
                               prediction_set, residual_mass)
from specsim.stream import ContextDoc, EngineConfig

CTX = ContextDoc("daily-life")


def test_prediction_set_sorts_and_computes_residual():
    ranked = prediction_set([
        Prediction(("b", END), 0.2, ("tb",)),
        Prediction(("a", END), 0.2, ("ta",)),
        Prediction(("c", END), 0.5, ("tc",)),
    ])
    assert [pr.continuation[0] for pr in ranked] == ["c", "a", "b"]
    assert residual_mass(ranked) == pytest.approx(0.1, abs=1e-12)
    assert prediction_set(ranked) == ranked


def test_prediction_set_validation_flags_problems():
    # an overweight set would leave a negative residual mass
    with pytest.raises(ValueError, match="sum"):
        prediction_set([Prediction(("a",), 0.9, ()), Prediction(("b",), 0.4, ())])
    with pytest.raises(ValueError, match="continuation"):
        prediction_set([Prediction((), 0.5, ())])


def test_scripted_backend_shopping_prefix(shopping_backend):
    ps = shopping_backend.predict(CTX, (), 4)
    assert [pr.p for pr in ps] == [0.4, 0.3, 0.2]
    assert residual_mass(ps) == pytest.approx(0.1, abs=1e-9)
    assert ps[0].translation[-3:] == ("with", "my", "friend")
    assert all(pr.continuation[-1] == END for pr in ps)


def test_scripted_backend_unknown_prefix_raises(shopping_backend):
    with pytest.raises(NoPrediction):
        shopping_backend.predict(CTX, ("未知",), 4)
    with pytest.raises(NoPrediction):
        shopping_backend.predict(ContextDoc("other-context"), (), 4)


def test_scripted_backend_caps_items_at_k(shopping_backend):
    ps = shopping_backend.predict(CTX, (), 2)
    assert len(ps) == 2
    assert residual_mass(ps) == pytest.approx(0.3, abs=1e-9)


def test_fixture_validate_lists_violations():
    text = json.dumps({"contexts": {"c": [
        {"prefix": ["a"],
         "items": [{"cont": ["x"], "p": 0.9, "tr": ["t"]},
                   {"cont": ["y"], "p": 0.4, "tr": ["t"]}]},
    ]}})
    with pytest.raises(ValueError, match="sum"):
        load_scripted_fixture(text)


def _fixture_with(item=None, rec=None):
    item = {"cont": ["x"], "p": 0.5, "tr": ["t"]} if item is None else item
    rec = {"prefix": ["a"], "items": [item]} if rec is None else rec
    return json.dumps({"contexts": {"c": [rec]}})


@pytest.mark.parametrize("text", [
    _fixture_with(rec={"prefix": "ab", "items": []}),
    _fixture_with(rec={"prefix": ["a", ""], "items": []}),
    _fixture_with(rec={"prefix": ["a"], "items": {"cont": ["x"]}}),
    _fixture_with(rec=["a"]),
    json.dumps({"contexts": {"c": {"prefix": []}}}),
    json.dumps([1]),
    _fixture_with({"cont": "xyz", "p": 0.5, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": 0.5, "tr": "uv"}),
    _fixture_with({"cont": [], "p": 0.5, "tr": ["t"]}),
    _fixture_with({"cont": ["x", ""], "p": 0.5, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": 0.5, "tr": [3]}),
    _fixture_with({"cont": ["x"], "p": 0.5}),
    _fixture_with(["x", 0.5, "t"]),
    _fixture_with({"cont": ["x"], "p": float("nan"), "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": float("inf"), "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": 1.7, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": 1 + 1e-10, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": 10 ** 400, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": 0, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": -0.2, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": True, "tr": ["t"]}),
    _fixture_with({"cont": ["x"], "p": "0.5", "tr": ["t"]}),
    "[" * 100_000 + "]" * 100_000,
    _fixture_with(rec={"prefix": ["a"], "items": [{"cont": [1], "p": 0.5, "tr": []},
                                                   {"cont": ["y"], "p": 0.5, "tr": []}]}),
], ids=["prefix-string", "prefix-blank-token", "items-object", "entry-list",
        "entries-object", "top-level-list", "cont-string", "tr-string",
        "cont-empty", "cont-blank-token", "tr-non-string", "tr-missing",
        "item-list", "p-nan", "p-inf", "p-above-1", "p-just-above-1",
        "p-huge-int", "p-zero", "p-negative", "p-bool", "p-string",
        "nested-too-deeply", "cont-number-tied-with-token"])
def test_fixture_rejects_bad_shape(text):
    with pytest.raises(ValueError):
        load_scripted_fixture(text)


def test_fixture_accepts_edge_values():
    backend = load_scripted_fixture(_fixture_with({"cont": ["x"], "p": 1, "tr": []}))
    ps = backend.predict(ContextDoc("c"), ("a",), 4)
    assert ps == (Prediction(("x",), 1.0, ()),) and residual_mass(ps) == 0.0


def test_fixture_rejects_duplicates_and_bad_shape():
    with pytest.raises(ValueError):
        load_scripted_fixture(json.dumps({"contexts": {"c": [
            {"prefix": [], "items": []},
            {"prefix": [], "items": []},
        ]}}))
    with pytest.raises(ValueError):
        load_scripted_fixture(json.dumps({"nope": 1}))


def test_ngram_backend_matches_model_and_translates():
    model = train_ngram([["a", "b"], ["a", "c"]], 2, alpha=0.1)
    table = PhraseTable({("a",): ("A",), ("b",): ("B",), ("c",): ("C",)})
    backend = NgramBackend(model, table, max_len=3)
    ps = backend.predict(CTX, ("a",), 2)
    want = model.continuations(("a",), 2, 3)
    assert [pr.continuation for pr in ps] == [c for c, _ in want]
    assert [pr.p for pr in ps] == [p for _, p in want]
    for pr in ps:
        assert pr.continuation[-1] == END
        assert pr.translation == translate(table, ("a",) + pr.continuation[:-1])


def test_ngram_backend_deterministic_and_cached():
    model = train_ngram([["a", "b", "c"]], 3)
    table = PhraseTable()
    backend = NgramBackend(model, table, max_len=4)
    first = backend.predict(CTX, ("a",), 3)
    second = backend.predict(CTX, ("a",), 3)
    assert first == second
    grown = backend.predict(CTX, ("a", "b"), 3)
    fresh = NgramBackend(model, table, max_len=4).predict(CTX, ("a", "b"), 3)
    assert grown == fresh


def test_a_warm_backend_answers_as_a_cold_one_after_its_table_source_changes():
    """The table copies its entries, so a change to the mapping it was built
    from reaches neither the table nor the translations a backend memoised
    from it; only a table built anew sees the change."""
    model = train_ngram([["a", "b", "c"], ["a", "b", "d"]], 3)
    entries = {("a",): ("A",), ("x", "y"): ("XY",)}
    table = PhraseTable(entries)
    warm = NgramBackend(model, table, max_len=4)
    before = warm.predict(CTX, ("a",), 2)
    assert before[0].translation == ("A", "b", "c")
    entries[("b", "c")] = ("BC",)
    assert warm.predict(CTX, ("a",), 2) == before
    assert NgramBackend(model, table, max_len=4).predict(CTX, ("a",), 2) == before
    rebuilt = NgramBackend(model, PhraseTable(entries), max_len=4).predict(CTX, ("a",), 2)
    assert rebuilt[0].translation == ("A", "BC")


def test_ngram_backend_same_answer_for_every_kind_of_prefix():
    """A current view (whose stream the backend reads and scans), a plain
    tuple, a stale view and a view over another table all give the same
    predictions; the stale and foreign streams hold translations that would
    differ if the backend read them."""
    rng = random.Random(8)
    vocab = ["a", "b", "c", "d"]
    for _ in range(40):
        model = train_ngram([[rng.choice(vocab) for _ in range(rng.randint(2, 7))]
                             for _ in range(5)], rng.randint(1, 3))
        table = PhraseTable({**{(w,): (w.upper(),) for w in vocab},
                             ("a", "b"): ("AB",), ("b", "c", "d"): ("BCD",)})
        other = PhraseTable({(w,): (w + "?",) for w in vocab})
        backend = NgramBackend(model, table, max_len=rng.randint(1, 4))
        k = rng.randint(1, 4)
        tokens = [rng.choice(vocab) for _ in range(12)]
        live = StreamTranslation()
        for n in range(len(tokens) + 1):
            prefix = tuple(tokens[:n])
            want = NgramBackend(model, table, max_len=backend.max_len).predict(
                CTX, prefix, k)
            current = PrefixView(live, table)
            stale_stream = StreamTranslation()
            stale_stream.extend(table, prefix)
            stale = PrefixView(stale_stream, table)
            stale_stream.extend(table, ["d", "c", "b", "a"])
            foreign_stream = StreamTranslation()
            foreign_stream.extend(other, prefix)
            foreign = PrefixView(foreign_stream, other)
            for view in (current, prefix, stale, foreign):
                assert backend.predict(CTX, view, k) == want
            assert current.is_current() and not stale.is_current()
            if n < len(tokens):
                live.src.append(tokens[n])  # appended, not scanned


MEMO_VOCAB = ["a", "b", "c", "d"]


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.lists(st.lists(st.sampled_from(MEMO_VOCAB), min_size=1, max_size=6),
                min_size=1, max_size=6),
       st.integers(1, 3), st.integers(1, 4),
       st.dictionaries(st.lists(st.sampled_from(MEMO_VOCAB), min_size=2,
                                max_size=3).map(tuple),
                       st.lists(st.sampled_from("XYZ"), max_size=2),
                       min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, 4096]),
       st.lists(st.tuples(st.sampled_from(MEMO_VOCAB + ["zz"]), st.integers(1, 5),
                          st.sampled_from(["current", "stale", "tuple"])),
                min_size=1, max_size=25))
def test_a_memo_hit_equals_a_cold_search(corpus, order, max_len, entries, cache_size,
                                         queries):
    """A backend that has served earlier prefixes, and evicted some of them,
    answers as a fresh one does. Entries of two and three source tokens
    leave pending tokens in the stream, so the memo keys tails by them."""
    model = train_ngram(corpus, order)
    table = PhraseTable({**{(w,): (w.upper(),) for w in MEMO_VOCAB}, **entries})
    with unittest.mock.patch.object(predictor, "ENUM_CACHE_SIZE", cache_size):
        warm = NgramBackend(model, table, max_len=max_len)
        live = StreamTranslation()
        for token, k, kind in queries:
            live.src.append(token)  # appended, not scanned
            prefix = tuple(live.src)
            if kind == "current":
                view = PrefixView(live, table)
            elif kind == "stale":
                stream = StreamTranslation()
                stream.extend(table, prefix)
                view = PrefixView(stream, table)
                stream.extend(table, ["d", "c"])
            else:
                view = prefix
            cold = NgramBackend(model, table, max_len=max_len).predict(CTX, prefix, k)
            # a truncated hypothesis translates to the part no later token
            # can change
            assert all(pr.translation == (
                translate(table, prefix + pr.continuation[:-1])
                if pr.continuation[-1] == END
                else settled_translation(table, prefix + pr.continuation))
                for pr in cold)
            assert warm.predict(CTX, view, k) == cold
            assert len(warm._enum_cache) <= cache_size
            assert all(len(tails) <= order for _, tails in warm._enum_cache.values())


def test_ngram_backend_never_raises_no_prediction():
    model = train_ngram([["a"]], 2)
    backend = NgramBackend(model, PhraseTable(), max_len=2)
    ps = backend.predict(CTX, ("zzz",), 3)
    assert ps and prediction_set(ps) == ps


# -- remote ------------------------------------------------------------------


def fake_transport(items=None, status=200, body=None, exc=None):
    calls = []

    def transport(url, payload, timeout):
        calls.append((url, json.loads(payload.decode("utf-8")), timeout))
        if exc is not None:
            raise exc
        raw = body if body is not None else json.dumps({"items": items}).encode()
        return status, raw

    transport.calls = calls
    return transport


def test_remote_wellformed_response():
    transport = fake_transport([
        {"cont": ["x", END], "p": 0.5, "tr": ["tx"]},
        {"cont": ["y", END], "p": 0.3, "tr": ["ty"]},
    ])
    ps = RemoteBackend("http://h:1", transport=transport).predict(CTX, ("a",), 4)
    assert residual_mass(ps) == pytest.approx(0.2, abs=1e-9)
    url, sent, _ = transport.calls[0]
    assert url == "http://h:1/predict"
    assert sent == {"context_id": "daily-life", "prefix": ["a"], "k": 4}


def test_remote_overshoot_rescaled():
    transport = fake_transport([
        {"cont": ["x"], "p": 0.8, "tr": ["tx"]},
        {"cont": ["y"], "p": 0.4, "tr": ["ty"]},
    ])
    ps = RemoteBackend("http://h:1", transport=transport).predict(CTX, (), 4)
    total = sum(pr.p for pr in ps)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert residual_mass(ps) == pytest.approx(0.0, abs=1e-9)
    assert ps[0].p == pytest.approx(0.8 / 1.2, abs=1e-12)


@pytest.mark.parametrize("kwargs", [
    {"exc": TimeoutError("deadline")},
    {"exc": urllib.error.URLError("connection refused")},
    {"status": 500},
    {"body": b"not json"},
    {"items": [{"cont": [], "p": 0.5, "tr": []}]},
    {"items": [{"cont": ["x"], "p": -1, "tr": []}]},
    {"items": [{"cont": ["x"], "p": float("nan"), "tr": ["tx"]}]},
    {"items": [{"cont": ["x"], "p": float("inf"), "tr": ["tx"]}]},
    {"items": [{"cont": "abc", "p": 0.5, "tr": ["tx"]}]},
    {"items": [{"cont": ["x"], "p": 0.5, "tr": "xyz"}]},
    {"items": [{"cont": ["x", ""], "p": 0.5, "tr": ["tx"]}]},
    {"items": [{"cont": ["x"], "p": 0.5, "tr": [1]}]},
    {"items": [{"cont": ["x"], "p": "0.5", "tr": ["tx"]}]},
    {"items": [{"cont": ["x"], "p": True, "tr": ["tx"]}]},
    {"items": [{"cont": ["x"], "p": 10 ** 400, "tr": ["tx"]}]},
    {"items": [{"cont": ["x"], "p": 5e-324, "tr": ["tx"]},  # rescaled to 0
               {"cont": ["y"], "p": 2.0, "tr": ["ty"]}]},
    {"body": b"[" * 100000 + b"]" * 100000},
])
def test_remote_failures_surface_as_no_prediction(kwargs):
    backend = RemoteBackend("http://h:1", transport=fake_transport(**kwargs))
    with pytest.raises(NoPrediction):
        backend.predict(CTX, (), 4)


def test_importing_specsim_loads_no_http_client():
    # a fresh interpreter: this one has imported urllib for the tests
    src = os.path.dirname(os.path.dirname(predictor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, specsim; print(sorted(m for m in "
            "('urllib.request', 'ssl', 'http.client') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


def test_remote_against_live_local_server():
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            n = int(self.headers["Content-Length"])
            req = json.loads(self.rfile.read(n))
            items = [{"cont": ["ok", END], "p": 0.7,
                      "tr": ["echo"] + req["prefix"]}]
            out = json.dumps({"items": items}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        backend = RemoteBackend(f"http://127.0.0.1:{server.server_port}")
        ps = backend.predict(CTX, ("前",), 4)
        assert ps[0].translation == ("echo", "前")
        assert residual_mass(ps) == pytest.approx(0.3, abs=1e-9)
    finally:
        server.shutdown()
        server.server_close()


def test_prediction_sets_always_valid_across_backends():
    rng = random.Random(8)
    model = train_ngram([[rng.choice("ab") for _ in range(3)] for _ in range(4)], 2)
    backend = NgramBackend(model, PhraseTable(), max_len=3)
    for _ in range(50):
        prefix = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        k = rng.randint(1, 5)
        ps = backend.predict(CTX, prefix, k)
        assert len(ps) <= k and prediction_set(ps) == ps


# -- one check for every backend ---------------------------------------------


def _verdict(build):
    """The set build() returns, or None when it refuses the input."""
    try:
        return build()
    except (ValueError, NoPrediction):
        return None


# p above 1 is left out: the remote backend rescales an overshoot by design.
@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.floats(max_value=1.0) | st.sampled_from([math.nan, math.inf, 5e-324]),
       st.lists(st.text(max_size=2), max_size=3))
def test_loader_remote_and_prediction_set_agree(p, cont):
    item = {"cont": cont, "p": p, "tr": ["t"]}
    direct = _verdict(lambda: prediction_set([Prediction(tuple(cont), p, ("t",))]))
    loaded = _verdict(lambda: load_scripted_fixture(_fixture_with(item)).predict(
        ContextDoc("c"), ("a",), 4))
    remote = _verdict(lambda: RemoteBackend(
        "http://h:1", transport=fake_transport([item])).predict(CTX, (), 4))
    assert loaded == direct and remote == direct
    assert (direct is None) == (not (0 < p <= 1 and cont and all(cont)))


def test_ngram_backend_drops_underflowed_continuations():
    model = train_ngram([["a", "b"]], 2, alpha=1e-200)
    assert any(p == 0.0 for _, p in model.continuations((), 12, 12))
    backend = NgramBackend(model, PhraseTable(), max_len=12)
    session = start_session(EngineConfig(k=12), CTX, backend, PhraseTable())
    ps = backend.predict(CTX, (), 12)
    assert ps and all(pr.p > 0 for pr in ps)
    assert sum(not n.is_other for n in session.tree.leaves()) == len(ps)


def test_ngram_backend_memo_is_lru_bounded(monkeypatch):
    monkeypatch.setattr(predictor, "ENUM_CACHE_SIZE", 8)
    model = train_ngram([["a", "b"], ["b", "c"]], 2)
    searched = []
    search = model.continuations

    def counted(prefix, k, max_len):
        searched.append(prefix[-1])
        return search(prefix, k, max_len)

    monkeypatch.setattr(model, "continuations", counted)
    backend = NgramBackend(model, PhraseTable(), max_len=3)
    for i in range(100):  # distinct out-of-vocabulary histories
        backend.predict(CTX, (f"w{i}",), 2)
        backend.predict(CTX, ("a",), 2)  # kept recent, so never evicted
        assert len(backend._enum_cache) <= 8
    assert searched.count("a") == 1
    backend.predict(CTX, ("w0",), 2)  # long evicted
    assert searched.count("w0") == 2


def test_ngram_backend_predictions_do_not_depend_on_memo_size(monkeypatch):
    rng = random.Random(5)
    vocab = ["a", "b", "c", "d"]
    model = train_ngram([[rng.choice(vocab) for _ in range(rng.randint(1, 6))]
                         for _ in range(8)], 3)
    table = PhraseTable({("a", "b"): ("AB",)})
    queries = [(tuple(rng.choice(vocab + ["zz"]) for _ in range(rng.randint(0, 5))),
                rng.randint(1, 4)) for _ in range(200)]
    unbounded = NgramBackend(model, table, max_len=4)
    want = [unbounded.predict(CTX, prefix, k) for prefix, k in queries]
    monkeypatch.setattr(predictor, "ENUM_CACHE_SIZE", 1)
    bounded = NgramBackend(model, table, max_len=4)
    assert [bounded.predict(CTX, prefix, k) for prefix, k in queries] == want
    assert len(bounded._enum_cache) == 1

"""The check a backend's tuple passes where it becomes tree mass: at build
(start_session, re-predict, catch-up) and at an expansion."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.engine import feed, start_session
from specsim.phrases import PhraseTable
from specsim.predictor import Prediction, check_predictions
from specsim.stream import ContextDoc, EngineConfig, TokenEvent

from oracles import total_mass

CTX = ContextDoc("ctx")
PROPERTY = settings(derandomize=True, max_examples=400, database=None, deadline=None)

TOKENS = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3)
# sums rescaled to these: 1 + 5e-10 passes, 1 + 2e-9 does not
TOTALS = st.sampled_from([0.6, 1.0, 1.0 + 5e-10, 1.0 + 2e-9, 1.01])
# a field of one prediction replaced by a drawn value, most of them malformed
FAULTS = st.one_of(
    st.tuples(st.just("p"), st.sampled_from(
        [math.nan, 0.0, -0.0, -0.5, -math.inf, 1.0 + 1e-12, 1.5, math.inf, 0.25])),
    st.tuples(st.just("continuation"), st.one_of(
        st.just(()), TOKENS, TOKENS.map(lambda t: tuple(t) + ("",)),
        TOKENS.map(lambda t: tuple(t) + (1,)), TOKENS.map(lambda t: (None,) + tuple(t)))),
    st.tuples(st.just("translation"), st.just(None) | TOKENS),
)


@st.composite
def backend_results(draw):
    """(container kind, predictions, k): a tuple, list or generator of drawn
    predictions, perhaps more than k of them, their p rescaled to a drawn sum
    and perhaps one field of one of them replaced by a FAULTS value."""
    items = draw(st.lists(st.tuples(TOKENS.map(tuple), st.floats(0.01, 1.0),
                                    TOKENS.map(tuple)), max_size=5))
    scale = draw(TOTALS) / (math.fsum(p for _, p, _ in items) or 1)
    preds = [Prediction(cont, p * scale, tr) for cont, p, tr in items]
    fault = draw(st.none() | st.none() | FAULTS)
    if fault is not None and preds:
        i = draw(st.integers(0, len(preds) - 1))
        fields = {"continuation": preds[i].continuation, "p": preds[i].p,
                  "translation": preds[i].translation, fault[0]: fault[1]}
        preds[i] = Prediction(**fields)
    kind = draw(st.sampled_from(["tuple", "tuple", "tuple", "list", "generator"]))
    return kind, preds, draw(st.just(5) | st.integers(1, 4))


def acceptable(kind, preds, k):
    """The rule, restated: a tuple of at most k predictions with p in (0, 1],
    non-empty tuples of non-empty str tokens as continuations and tuple
    translations, the p summing to at most 1 + 1e-9."""
    return (kind == "tuple" and len(preds) <= k
            and all(0 < pr.p <= 1 and isinstance(pr.continuation, tuple)
                    and pr.continuation
                    and all(isinstance(t, str) and t for t in pr.continuation)
                    and isinstance(pr.translation, tuple) for pr in preds)
            and math.fsum(pr.p for pr in preds) <= 1 + 1e-9)


class DrawnBackend:
    """Answers prefixes in `answers` (a length -> (kind, predictions) map)
    with that result, built afresh on every call."""

    def __init__(self, answers):
        self.answers = answers

    def predict(self, context, prefix, k):
        kind, preds = self.answers[len(prefix)]
        if kind == "list":
            return list(preds)
        if kind == "generator":
            return (pr for pr in preds)
        return tuple(preds)


def check_mass(tree):
    assert abs(total_mass(tree) - 1.0) <= 1e-9
    assert all(n.path_p >= 0 for n in tree.leaves() if n.is_other)


@PROPERTY
@given(backend_results())
def test_a_drawn_tuple_is_refused_or_builds_a_tree_of_mass_one(result):
    kind, preds, k = result
    backend = DrawnBackend({0: (kind, preds)})
    if acceptable(kind, preds, k):
        check_mass(start_session(EngineConfig(k=k), CTX, backend, PhraseTable()).tree)
    else:
        with pytest.raises(ValueError, match="DrawnBackend"):
            start_session(EngineConfig(k=k), CTX, backend, PhraseTable())


@PROPERTY
@given(backend_results(), st.integers(2, 3))
def test_a_drawn_tuple_is_refused_or_expands_a_tree_of_mass_one(result, d):
    # the tree built at the start holds one truncated hypothesis, "a", whose
    # leaf the first token consumes, so that tick expands it with the draw
    kind, preds, k = result
    backend = DrawnBackend({0: ("tuple", [Prediction(("a",), 0.5, ("A",))]),
                            1: (kind, preds)})
    session = start_session(EngineConfig(k=k, d=d), CTX, backend, PhraseTable())
    check_mass(session.tree)
    if acceptable(kind, preds, k):
        feed(session, TokenEvent(0, "a", 0))
        check_mass(session.tree)
        assert session.tree.root.children[0].children  # the draw was attached
    else:
        with pytest.raises(ValueError, match="DrawnBackend"):
            feed(session, TokenEvent(0, "a", 0))


def test_two_predictions_of_p_point_nine_are_refused():
    # without the check they built a tree of leaf mass 1.8 and an other of 0
    class Overweight:
        def predict(self, context, prefix, k):
            return (Prediction(("a",), 0.9, ("A",)), Prediction(("b",), 0.9, ("B",)))

    with pytest.raises(ValueError, match=r"Overweight.predict: probabilities sum to 1\.8"):
        start_session(EngineConfig(), CTX, Overweight(), PhraseTable())


def test_the_message_names_the_backend_and_the_prediction():
    bad = Prediction(("a", ""), 0.5, ("A",))
    with pytest.raises(ValueError, match=r"^Backend7\.predict: prediction with "
                                         r"probability 0\.5 and continuation \('a', ''\)"):
        check_predictions(type("Backend7", (), {})(), (bad,), 4)
    with pytest.raises(ValueError, match=r"returned 2 predictions, more than k=1"):
        check_predictions(object(), (Prediction(("a",), 0.5, ()),) * 2, 1)
    with pytest.raises(ValueError, match=r"^object\.predict returned a list"):
        check_predictions(object(), [], 4)
    with pytest.raises(ValueError, match=r"\('a', 0\.5\) is not a Prediction"):
        check_predictions(object(), (("a", 0.5),), 4)

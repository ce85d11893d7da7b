"""n-gram training counts, smoothing arithmetic, continuation search, perplexity."""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.ngram import (END, START, EmptyCorpus, NgramModel, parse_corpus,
                           train_ngram)

from oracles import (conditional_oracle, enumerate_continuations, perplexity_oracle,
                     train_ngram_oracle)


def test_train_hand_counts_order2():
    m = train_ngram([["a", "b", "c"], ["a", "b", "d"]], 2)
    assert m.counts[("b",)] == {"c": 1, "d": 1}
    assert m.counts[("a",)] == {"b": 2}
    assert m.counts[("<s>",)] == {"a": 2}
    assert m.counts[("c",)] == {END: 1}
    assert m.vocab == (END, "a", "b", "c", "d")


def test_train_unigram_single_token():
    m = train_ngram([["a"]], 1)
    assert m.counts[()] == {"a": 1, END: 1}


def test_train_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_ngram([], 2)


@st.composite
def corpora(draw):
    """(order, corpus): up to 12 sentences drawn from at most 4 distinct ones,
    so most corpora repeat a sentence, and in about one in four a sentence
    holds a reserved symbol."""
    order = draw(st.integers(1, 4))
    sigma = "abcd"[:draw(st.integers(1, 4))]
    distinct = draw(st.lists(st.lists(st.sampled_from(sigma), max_size=6),
                             min_size=1, max_size=4))
    corpus = [list(draw(st.sampled_from(distinct))) for _ in range(draw(st.integers(0, 12)))]
    if corpus and not draw(st.integers(0, 3)):
        sent = corpus[draw(st.integers(0, len(corpus) - 1))]
        sent.insert(draw(st.integers(0, len(sent))), draw(st.sampled_from([START, END])))
    return order, corpus


def _trained(train, order, corpus):
    try:
        return train(corpus, order)
    except ValueError as err:
        return type(err), str(err)


def test_training_matches_token_by_token_counting():
    seen = {"repeat": 0, "clash": 0, "order": set()}

    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(corpora())
    def agree(order_corpus):
        order, corpus = order_corpus
        got, want = (_trained(train, order, corpus)
                     for train in (train_ngram, train_ngram_oracle))
        if isinstance(want, tuple):  # the same error class, message and sentence
            assert got == want
            seen["clash"] += want[0] is ValueError and "reserved symbol" in want[1]
            return
        seen["repeat"] += len({tuple(s) for s in corpus}) < len(corpus)
        seen["order"].add(order)
        assert (got.order, got.vocab, got.totals) == (want.order, want.vocab, want.totals)
        # equal counts, histories and row keys inserted in the same order
        assert got.counts == want.counts
        assert list(got.counts) == list(want.counts)
        assert all(list(got.counts[h]) == list(row) for h, row in want.counts.items())
        assert got.to_json() == want.to_json()

    agree()
    assert seen["repeat"] > 50 and seen["clash"] > 30 and seen["order"] == {1, 2, 3, 4}


def test_additive_smoothing_value():
    m = train_ngram([["a", "b", "c"], ["a", "b", "d"]], 2, alpha=0.1)
    # V=5 (a b c d </s>): (1 + 0.1) / (2 + 0.5)
    assert m.conditional(("b",), "c") == pytest.approx(1.1 / 2.5, abs=1e-12)
    assert m.conditional(("b",), "d") == pytest.approx(1.1 / 2.5, abs=1e-12)
    assert m.conditional(("b",), "a") == pytest.approx(0.1 / 2.5, abs=1e-12)


def test_backoff_applies_only_to_unseen_history():
    m = train_ngram([["a", "b"]], 2, alpha=0.1)
    # seen history: plain smoothed value, no factor
    seen = m.conditional(("a",), "b")
    assert seen == pytest.approx((1 + 0.1) / (1 + 0.1 * 3), abs=1e-12)
    # unseen history "q": drops to the unigram with the 0.4 factor
    v = len(m.vocab)
    uni_b = (m.counts[()]["b"] + 0.1) / (m.totals[()] + 0.1 * v)
    assert m.conditional(("q",), "b") == pytest.approx(0.4 * uni_b, abs=1e-12)


def test_distributions_sum_to_one_for_every_stored_history():
    rng = random.Random(13)
    for _ in range(50):
        order = rng.randint(1, 3)
        corpus = [[rng.choice("abcdef") for _ in range(rng.randint(1, 6))]
                  for _ in range(rng.randint(1, 8))]
        m = train_ngram(corpus, order, alpha=rng.choice([0.05, 0.1, 1.0]))
        for hist in m.counts:
            total = math.fsum(m.conditional(hist, tok) for tok in m.vocab)
            assert abs(total - 1.0) <= 1e-9, (hist, total)


def test_empty_model_is_uniform():
    m = NgramModel(1, 0.1, ["a", "b", "c"], {})
    v = len(m.vocab)
    assert m.conditional((), "a") == pytest.approx(1 / v, abs=1e-12)
    assert m.perplexity(["a", "b"]) == pytest.approx(v, abs=1e-9)


def test_continuations_toy_example():
    m = train_ngram([["a", "b", "c"], ["a", "b", "d"]], 2, alpha=0.1)
    out = m.continuations(["a"], 2, 3)
    assert [cont for cont, _ in out] == [("b", "c", END), ("b", "d", END)]
    p_expected = (2.1 / 2.5) * (1.1 / 2.5) * (1.1 / 1.5)
    assert out[0][1] == pytest.approx(p_expected, abs=1e-12)
    assert out[0][1] == out[1][1]


def test_continuations_single_sentence_top1():
    m = train_ngram([["x", "y"]], 2, alpha=0.1)
    out = m.continuations([], 1, 5)
    cont, p = out[0]
    assert cont == ("x", "y", END)
    hand = m.conditional(("<s>",), "x") * m.conditional(("x",), "y") \
        * m.conditional(("y",), END)
    assert p == pytest.approx(hand, abs=1e-12)


@st.composite
def models(draw, alphas=st.sampled_from([0.1, 0.5, 1, 4.0, 1e5, 1e18])):
    """Small models: trained ones, and ones loaded from JSON with count-0 entries.
    A large alpha puts counted conditionals just above the uncounted one, and
    1e18 makes every c + alpha round to alpha."""
    order = draw(st.integers(1, 3))
    sigma = "abcde"[:draw(st.integers(1, 5))]
    corpus = draw(st.lists(st.lists(st.sampled_from(sigma), min_size=1, max_size=5),
                           min_size=1, max_size=6))
    alpha = draw(alphas)
    m = train_ngram(corpus, order, alpha=alpha)
    if draw(st.booleans()):
        data = json.loads(m.to_json())
        for row in data["counts"].values():
            for tok in draw(st.lists(st.sampled_from(m.vocab), max_size=3)):
                row.setdefault(tok, 0)
        m = NgramModel.from_json(json.dumps(data))
    return m, sigma


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(models(), st.data())
def test_continuations_match_exhaustive_enumeration(model_sigma, data):
    m, sigma = model_sigma
    prefix = data.draw(st.lists(st.sampled_from(sigma + "q"), max_size=3))
    k = data.draw(st.integers(1, 6))
    max_len = data.draw(st.integers(1, 4))
    assert m.continuations(prefix, k, max_len) == enumerate_continuations(
        m, prefix, k, max_len)


# int alphas keep c + alpha and the denominator in int arithmetic; 1e300
# leaves every conditional near 1 / |V| and 5e-324 underflows the uncounted
# ones to 0
ALPHAS = st.one_of(st.integers(1, 10**300), st.floats(5e-324, 1e300),
                   st.sampled_from([1, 10**18, 5e-324, 1e-320, 1e18, 1e300]))
# "q" is in no model's vocab, and START pads a history as continuations does
QUERIED = st.sampled_from(["a", "b", "c", "d", "e", "q", END])


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(models(ALPHAS),
       st.lists(st.tuples(st.lists(QUERIED | st.just(START), max_size=4), QUERIED),
                min_size=1, max_size=5),
       st.lists(QUERIED, min_size=1, max_size=6))
def test_conditional_and_perplexity_match_the_counting_formula(model_sigma, queries,
                                                               window):
    m, _ = model_sigma
    for history, token in queries:
        assert m.conditional(history, token) == conditional_oracle(m, history, token)
    assert m.perplexity(window) == perplexity_oracle(m, window)


def test_row_memo_is_bounded_by_the_model():
    m = train_ngram([list("abcdefgh"), list("hgfedcba"), list("aceg")], 3)
    histories = list(itertools.product(m.vocab + (START,), repeat=m.order - 1))
    bound = len(m.counts) * m.order
    assert len(histories) > bound  # one row per history would break the bound
    for hist in histories:
        m.continuations(hist, 1, 1)
    assert 0 < len(m._rows) <= bound


def test_continuations_deterministic():
    m = train_ngram([["a", "b"], ["a", "c"]], 2)
    a = m.continuations(["a"], 3, 4)
    b = m.continuations(["a"], 3, 4)
    assert a == b


def test_perplexity_hand_value_and_ordering():
    m = train_ngram([["a", "b", "c"], ["a", "b", "d"]], 2, alpha=0.1)
    hand = (2.1 / 8.5) * (2.1 / 2.5) * (1.1 / 2.5)
    assert m.perplexity(["a", "b", "c"]) == pytest.approx(
        math.exp(-math.log(hand) / 3), abs=1e-12)
    assert m.perplexity(["a", "b", "c"]) < m.perplexity(["q", "q", "q"])


# a tiny alpha is a model the boundary accepts; on unseen tokens it makes a
# conditional underflow to 0 (5e-324) or the mean negative log exceed the
# largest exp argument, about 709 (1e-320)
@pytest.mark.parametrize("alpha, underflows", [(5e-324, True), (1e-320, False)])
def test_perplexity_is_infinite_where_the_float_arithmetic_gives_out(alpha, underflows):
    m = train_ngram([["a", "b", "c"]] * 50, 3, alpha=alpha)
    window = ("x", "y", "q")
    conditionals = [m.conditional(window[:i], tok) for i, tok in enumerate(window)]
    assert (0.0 in conditionals) == underflows
    if not underflows:
        assert -math.fsum(map(math.log, conditionals)) / len(window) > 709.8
    assert m.perplexity(window) == math.inf
    assert m.perplexity(("a", "b", "c")) < math.inf


def test_model_json_roundtrip_is_stable():
    m = train_ngram([["a", "b", "c"], ["a", "b", "d"]], 2)
    text = m.to_json()
    again = NgramModel.from_json(text)
    assert again == m
    assert again.to_json() == text


def _model_json(**fields):
    data = {"order": 2, "alpha": 0.1, "vocab": ["a"], "counts": {"": {"a": 1}}}
    data.update(fields)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100000, id="nested-too-deeply"),
    pytest.param("{}", id="no-fields"),
    pytest.param("[]", id="list"),
    pytest.param('"model"', id="string"),
    pytest.param(_model_json(order=True), id="order-bool"),
    pytest.param(_model_json(order=0), id="order-zero"),
    pytest.param(_model_json(order=2.0), id="order-float"),
    pytest.param(_model_json(alpha=0), id="alpha-zero"),
    pytest.param(_model_json(alpha=-1.0), id="alpha-negative"),
    pytest.param(_model_json(alpha=float("inf")), id="alpha-infinite"),
    pytest.param(_model_json(alpha=float("nan")), id="alpha-nan"),
    pytest.param(_model_json(alpha=False), id="alpha-bool"),
    pytest.param(_model_json(alpha="0.1"), id="alpha-string"),
    pytest.param(_model_json(alpha=10 ** 400), id="alpha-huge-int"),
    pytest.param(_model_json(vocab="a"), id="vocab-string"),
    pytest.param(_model_json(vocab=["a", ""]), id="vocab-empty-token"),
    pytest.param(_model_json(vocab=["a", 1]), id="vocab-number"),
    pytest.param(_model_json(counts=[]), id="counts-list"),
    pytest.param(_model_json(counts={"a": 5}), id="count-row-number"),
    pytest.param(_model_json(counts={"a": {"b": -1}}), id="count-negative"),
    pytest.param(_model_json(counts={"a": {"b": 1.5}}), id="count-float"),
    pytest.param(_model_json(counts={"a": {"b": True}}), id="count-bool"),
    pytest.param(_model_json(counts={"a": {"b": None}}), id="count-null"),
    pytest.param(_model_json(counts={"": {"a": 1, "zz": 5}}), id="count-token-outside-vocab"),
    pytest.param(_model_json(counts={"a": {START: 1}}), id="count-start-token"),
])
def test_model_json_rejects_bad_shapes(text):
    with pytest.raises(ValueError):
        NgramModel.from_json(text)


def test_parse_corpus():
    assert parse_corpus("a b\n\nc\n") == [["a", "b"], ["c"]]
    assert parse_corpus("a b\r\n\r\nc\r\n") == [["a", "b"], ["c"]]


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_parse_corpus_splits_sentences_at_newline_only(sep):
    # a separator str.splitlines breaks at would add a </s> and a <s>
    assert parse_corpus(f"a b{sep}c d\n") == [["a", "b", "c", "d"]]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_history_is_the_padded_tail(order):
    m = train_ngram([["a", "b", "c", "d", "e"]], order)
    for n in range(6):
        prefix = tuple("abcde"[:n])
        padded = (START,) * max(0, order - 1 - n) + prefix
        want = padded[-(order - 1):] if order > 1 else ()
        assert m.history(prefix) == want
        assert m.history(list(prefix)) == want

"""Average lagging, accuracy, report assembly from event logs."""

from __future__ import annotations

import random

import pytest

from specsim.engine import OutputEvent
from specsim.metrics import (EmptyEmission, SessionReport, accuracy,
                             average_lagging, compute_report)

from oracles import average_lagging_oracle


def test_al_wait_until_end():
    assert average_lagging([3, 3, 3], 3) == pytest.approx(3.0, abs=1e-12)


def test_al_per_token_streaming():
    assert average_lagging([1, 2, 3], 3) == pytest.approx(1.0, abs=1e-12)


def test_al_empty_emission():
    with pytest.raises(EmptyEmission):
        average_lagging([], 3)


@pytest.mark.parametrize("src_len", [0, -1])
def test_al_rejects_a_source_shorter_than_one_token(src_len):
    # 0 divided by zero, and -1 returned 1.0
    with pytest.raises(ValueError, match=f"src_len must be at least 1, got {src_len}"):
        average_lagging([1, 2], src_len)


def test_al_constant_g_equals_source():
    for c in (1, 2, 5):
        assert average_lagging([c] * c, c) == pytest.approx(float(c), abs=1e-12)


def test_al_matches_formula_oracle_on_random_inputs():
    rng = random.Random(17)
    for _ in range(300):
        s = rng.randint(1, 12)
        t = rng.randint(1, 15)
        g = sorted(rng.randint(1, s) for _ in range(t))
        assert average_lagging(g, s) == pytest.approx(
            average_lagging_oracle(g, s), abs=1e-12)


def test_accuracy_identical_and_disjoint():
    assert accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert accuracy(["a", "b"], ["x", "y"]) == 0.0
    assert accuracy([], []) == 1.0


def test_accuracy_shopping_reference():
    final = "Yesterday , I went shopping with my friend".split()
    assert accuracy(final, list(final)) == 1.0


def test_accuracy_symmetric():
    rng = random.Random(23)
    for _ in range(100):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 8))]
        assert accuracy(a, b) == pytest.approx(accuracy(b, a), abs=1e-12)
        assert 0.0 <= accuracy(a, b) <= 1.0


def _emit(t, toks, src):
    return OutputEvent("emit", t, toks=tuple(toks), src_seen=src)


def test_compute_report_zero_divergence_run():
    events = [_emit(0, ["x", "y"], 1), _emit(10, ["z"], 3)]
    rep = compute_report(events, source_len=3, reference=("x", "y", "z"))
    assert rep.divergences == 0 and rep.hit_rate == 1.0
    assert rep.accuracy == 1.0
    assert rep.emitted_len == 3 and rep.source_len == 3
    assert rep.al == pytest.approx(average_lagging_oracle([1, 1, 3], 3), abs=1e-12)
    assert rep.al_wait_until_end == 3.0


def test_compute_report_counts_divergences_and_catchups():
    events = [
        OutputEvent("diverge", 5),
        OutputEvent("repredict", 5),
        OutputEvent("catchup", 7, span=2),
        _emit(8, ["a"], 4),
        OutputEvent("conflict", 9, slot=0, committed="a", got="b"),
    ]
    rep = compute_report(events, source_len=4, reference=None)
    assert rep.divergences == 1 and rep.catchups == 1 and rep.conflicts == 1
    assert rep.hit_rate == pytest.approx((4 - 1 - 2) / 4)
    assert rep.accuracy is None
    assert "accuracy" not in rep.to_dict()


def test_report_json_shape():
    rep = SessionReport(al=1.0, al_wait_until_end=8.0, hit_rate=0.875,
                        divergences=1, conflicts=0, catchups=0, accuracy=1.0,
                        emitted_len=8, source_len=8)
    data = rep.to_dict()
    assert set(data) == {"al", "al_wait_until_end", "hit_rate", "divergences",
                         "conflicts", "catchups", "accuracy", "emitted_len",
                         "source_len"}
    assert rep.to_json().endswith("\n")

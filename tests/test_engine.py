"""Session pipeline: feed/advance/commit flow, divergence recovery, catch-up,
drift checks, monotone emission, determinism."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc
from collections import Counter
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim import engine
from specsim.engine import (OutOfOrderToken, catchup, deliver, feed, finalize,
                            start_session, step)
from specsim.metrics import compute_report
from specsim.ngram import END, train_ngram
from specsim.phrases import PhraseTable, translate
from specsim.predictor import NgramBackend, NoPrediction, Prediction, ScriptedBackend
from specsim.replay import events_to_jsonl, replay
from specsim.stream import ContextDoc, EngineConfig, TokenEvent, transcript_from_tokens
from specsim.template import (_TAU_SLACK, TargetTemplate, all_hole_template,
                              fixed_template, tau_cover)
from specsim.tree import leaf_hypotheses, prune

from conftest import make_ngram_scenario, make_scenario, random_config
from oracles import ReferenceSession, total_mass, tree_state

CTX = ContextDoc("daily-life")


def session_for(backend, table, **cfg):
    return start_session(EngineConfig(**cfg), CTX, backend, table)


def kinds(events):
    return [ev.kind for ev in events]


# -- start_session -----------------------------------------------------------


def test_start_session_builds_tree_from_empty_prefix(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table)
    assert sum(not n.is_other for n in s.tree.leaves()) == 3
    assert s.template.render() == "[*]"
    assert not s.buffer


def test_start_session_no_prediction_gives_other_only(shopping_table):
    class Empty:
        def predict(self, context, prefix, k):
            raise NoPrediction("nothing")

    s = session_for(Empty(), shopping_table)
    assert all(n.is_other for n in s.tree.leaves())
    assert total_mass(s.tree) == 1.0


def test_start_session_ngram_tree_matches_continuations(shopping_table):
    model = train_ngram([["a", "b"], ["a", "c"]], 2)
    backend = NgramBackend(model, shopping_table, max_len=3)
    s = start_session(EngineConfig(k=2), ContextDoc("c"), backend, shopping_table)
    want = model.continuations((), 2, 3)
    named = [n for n in s.tree.leaves() if not n.is_other]
    assert [n.path_p for n in named] == [p for _, p in want]


def test_start_session_rejects_bad_config(shopping_backend, shopping_table):
    with pytest.raises(ValueError):
        session_for(shopping_backend, shopping_table, k=0)


# -- the golden flow, step by step --------------------------------------------


def test_feed_shopping_flow(shopping_backend, shopping_table, shopping_transcript):
    s = session_for(shopping_backend, shopping_table)
    events = shopping_transcript.events
    out = feed(s, events[0])
    assert kinds(out) == ["emit"]
    assert out[0].toks == ("Yesterday", ",", "I")
    for ev in events[1:5]:
        assert feed(s, ev) == []
    assert s.template.render() == "Yesterday , I [*] with my friend"
    out = feed(s, events[5])  # 買い物 diverges
    assert kinds(out) == ["diverge", "repredict", "emit"]
    assert out[2].toks == ("went", "shopping", "with", "my", "friend")
    assert feed(s, events[6]) == []
    fin, report = finalize(s, events[7], shopping_transcript.reference)
    assert fin == []
    assert " ".join(s.emitted) == "Yesterday , I went shopping with my friend"
    assert report.accuracy == 1.0
    assert report.conflicts == 0
    assert report.divergences == 1
    assert report.hit_rate == 7 / 8


def test_feed_rejects_out_of_order(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table)
    with pytest.raises(OutOfOrderToken):
        feed(s, TokenEvent(3, "х", 0))


def test_feed_rejects_final_event(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table)
    with pytest.raises(ValueError):
        feed(s, TokenEvent(0, "x", 0, is_final=True))


def test_single_certain_hypothesis_emits_without_divergence(shopping_table):
    from specsim.ngram import END
    from specsim.predictor import Prediction, ScriptedBackend
    backend = ScriptedBackend({("daily-life", ()):
                               [Prediction(("a", "b", END), 1.0, ("X", "Y"))]})
    s = session_for(backend, shopping_table)
    out = feed(s, TokenEvent(0, "a", 0))
    assert kinds(out) == ["emit"]
    assert out[0].toks == ("X", "Y")
    _, report = finalize(s, TokenEvent(1, "b", 10, is_final=True), ("X", "Y"))
    assert report.divergences == 0
    assert report.hit_rate == 1.0
    assert report.accuracy == 1.0
    assert s.emitted == ["X", "Y"]


# -- catch-up ------------------------------------------------------------------


def test_catchup_triggers_on_buffer_overflow(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table, buffer_limit=2)
    assert deliver(s, TokenEvent(0, "私は", 0)) == []
    assert deliver(s, TokenEvent(1, "昨日", 10)) == []
    out = deliver(s, TokenEvent(2, "、", 20))
    assert kinds(out) == ["catchup", "emit"]
    assert out[0].span == 3
    assert out[1].toks == ("Yesterday", ",", "I")
    assert not s.buffer
    assert kinds(s.events).count("catchup") == 1


def test_catchup_output_equals_direct_translation(shopping_table):
    rng = random.Random(1)
    for _ in range(30):
        transcript, backend, table, ctx = make_scenario(rng)
        s = start_session(EngineConfig(buffer_limit=1), ctx, backend, table)
        toks = transcript.tokens()
        deliver(s, transcript.events[0])
        out = deliver(s, transcript.events[1])
        assert kinds(out)[0] == "catchup"
        emitted = [t for ev in out for t in ev.toks]
        want = list(translate(table, toks[:2]))
        # emission may be held back by a trailing hole, never reordered
        assert emitted == want[:len(emitted)]
        assert s.observed == list(toks[:2])


def test_catchup_requires_nonempty_buffer(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table)
    with pytest.raises(ValueError):
        catchup(s)


def test_replay_lag_profile_single_burst(shopping_backend, shopping_table,
                                         shopping_transcript):
    s = session_for(shopping_backend, shopping_table, buffer_limit=2)
    events, report = replay(shopping_transcript, s, lag_profile=(3,))
    assert kinds(events).count("catchup") == 1
    assert report.catchups == 1
    assert report.accuracy == 1.0
    assert " ".join(s.emitted) == "Yesterday , I went shopping with my friend"


def test_replay_repeated_bursts_fire_repeated_catchups(shopping_backend,
                                                       shopping_table,
                                                       shopping_transcript):
    s = session_for(shopping_backend, shopping_table, buffer_limit=2)
    events, report = replay(shopping_transcript, s, lag_profile=(3, 3))
    assert report.catchups == 2
    # mid-sentence catch-up translates out of order; output still completes
    assert s.template.suffix is None
    assert report.emitted_len == len(s.emitted)


# -- context drift --------------------------------------------------------------


def drift_session(body, window=4, ratio=2.0, buffer_limit=32):
    corpus = [["a", "b", "c", "d"], ["a", "b", "c", "e"], ["b", "c", "d", "e"]]
    model = train_ngram(corpus, 2, alpha=0.1)
    table = PhraseTable()
    backend = NgramBackend(model, table, max_len=4)
    cfg = EngineConfig(drift_window=window, drift_ratio=ratio, buffer_limit=buffer_limit)
    return start_session(cfg, ContextDoc("c", tuple(body)), backend, table)


def test_drift_no_shift_on_in_domain_window():
    s = drift_session(["a", "b", "c", "d", "a", "b", "c", "e"])
    for i, tok in enumerate(["a", "b", "c", "d"]):
        events = feed(s, TokenEvent(i, tok, i))
        assert all(ev.kind != "context_shift" for ev in events)
    assert "context_shift" not in kinds(s.events)


def test_drift_shift_on_out_of_domain_window():
    s = drift_session(["a", "b", "c", "d", "a", "b", "c", "e"])
    shifts = []
    for i, tok in enumerate(["q", "q", "q", "q"]):
        shifts += [ev for ev in feed(s, TokenEvent(i, tok, i))
                   if ev.kind == "context_shift"]
    assert len(shifts) == 1
    assert kinds(s.events).count("context_shift") == 1


def test_a_catchup_runs_the_drift_check_it_jumps_over():
    body = ["a", "b", "c", "d", "a", "b", "c", "e"]
    events = [TokenEvent(i, tok, i) for i, tok in enumerate(["a"] + ["q"] * 11)]
    real_time = drift_session(body, buffer_limit=4)
    for ev in events:
        feed(real_time, ev)
    assert kinds(real_time.events).count("context_shift") == 3

    burst = drift_session(body, buffer_limit=4)
    feed(burst, events[0])
    asked = []
    predict = burst.backend.predict
    burst.backend.predict = lambda ctx, prefix, k: (
        asked.append(len(prefix)) or predict(ctx, prefix, k))
    out = []
    for ev in events[1:6]:  # the fifth overfills the buffer: a catch-up to 6
        out += deliver(burst, ev)
    assert kinds(out)[0] == "catchup" and kinds(out).count("context_shift") == 1
    assert asked == [6]  # the catch-up re-predicts once, at the new prefix
    for ev in events[6:]:
        feed(burst, ev)
    assert kinds(burst.events).count("context_shift") == 3


def test_drift_never_fires_for_scripted_backend(shopping_backend, shopping_table,
                                                shopping_transcript):
    s = start_session(EngineConfig(drift_window=2), ContextDoc("daily-life", ("x",)),
                      shopping_backend, shopping_table)
    events, _ = replay(shopping_transcript, s)
    assert all(ev.kind != "context_shift" for ev in events)


# -- truncated hypotheses ---------------------------------------------------------

# Every conditional along these sentences is about 1/6 or more at order 2, so
# the hypotheses that leave the spoken sentence at one point never hold a
# tau = 0.9 cover between them, and each clean real-time replay must
# translate it exactly. Multi-token and atomic phrases end where
# a horizon of 1-4 tokens often cuts a hypothesis: "eat" alone would be
# translated word by word, "eat rice" is an idiom.
HORIZON_SENTENCES = [
    "i want to go home now", "i want to eat rice now", "you want to go out",
    "i like to eat rice", "we go home now", "good morning to you",
]
HORIZON_TABLE = PhraseTable({
    ("i",): ("I",), ("want", "to"): ("WISH",), ("i", "want", "to"): ("I-WISH",),
    ("go", "home"): ("HOME-A", "HOME-B"), ("eat", "rice"): ("MEAL-A", "MEAL-B"),
    ("go", "out"): ("LEAVE",), ("good", "morning"): ("HELLO-A", "HELLO-B"),
    ("now",): ("NOW",),
}, atomic=[("go", "home"), ("eat", "rice"), ("good", "morning")])


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.sampled_from(HORIZON_SENTENCES), st.integers(1, 4), st.integers(2, 3),
       st.integers(1, 4), st.integers(1, 3))
def test_a_short_horizon_translates_a_training_sentence_without_conflict(
        sentence, max_len, order, k, d):
    model = train_ngram([s.split() for s in HORIZON_SENTENCES], order, alpha=0.01)
    backend = NgramBackend(model, HORIZON_TABLE, max_len=max_len)
    source = sentence.split()
    session = start_session(EngineConfig(k=k, d=d), CTX, backend, HORIZON_TABLE)
    events, report = replay(transcript_from_tokens(source), session)
    assert "conflict" not in kinds(events)
    assert tuple(session.emitted) == translate(HORIZON_TABLE, source)


# -- finalize -------------------------------------------------------------------


def test_finalize_drains_buffer(shopping_backend, shopping_table, shopping_transcript):
    s = session_for(shopping_backend, shopping_table, buffer_limit=8)
    for ev in shopping_transcript.events[:7]:
        deliver(s, ev)  # nothing processed yet
    fin, report = finalize(s, shopping_transcript.events[7],
                           shopping_transcript.reference)
    assert report.accuracy == 1.0
    assert report.divergences == 1
    assert s.finalized


def test_finalize_without_event_supports_demo_flow(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table)
    _, report = finalize(s)
    assert report.source_len == 0
    assert report.emitted_len == 0


def test_finalize_twice_rejected(shopping_backend, shopping_table):
    s = session_for(shopping_backend, shopping_table)
    finalize(s)
    with pytest.raises(ValueError):
        finalize(s)


def test_finalize_falls_back_to_direct_translation(shopping_table):
    class Empty:
        def predict(self, context, prefix, k):
            raise NoPrediction("nothing")

    s = session_for(Empty(), shopping_table)
    toks = "私は 昨日 、 友達 と 買い物 に 行った".split()
    for i, tok in enumerate(toks[:-1]):
        feed(s, TokenEvent(i, tok, i * 10))
    _, report = finalize(s, TokenEvent(7, toks[-1], 70, is_final=True),
                         tuple("Yesterday , I went shopping with my friend".split()))
    assert " ".join(s.emitted) == "Yesterday , I went shopping with my friend"
    assert report.accuracy == 1.0
    assert report.hit_rate == 0.0  # every token diverged against other-only trees


def test_a_finalized_session_holds_no_tree(shopping_backend, shopping_table,
                                           shopping_transcript):
    s = session_for(shopping_backend, shopping_table, buffer_limit=8)
    for ev in shopping_transcript.events[:-1]:
        deliver(s, ev)
    assert s.tree is not None and len(s.buffer) == 7
    finalize(s, shopping_transcript.events[-1], shopping_transcript.reference)
    assert s.tree is None and s.buffer == []
    assert " ".join(s.emitted) == " ".join(shopping_transcript.reference)


def test_sessions_sharing_a_backend_leave_traced_memory_flat():
    """A long-lived process replaying utterance after utterance on one
    backend keeps no memory per finished session once the memo is warm."""
    model = train_ngram([s.split() for s in HORIZON_SENTENCES], 2, alpha=0.01)
    backend = NgramBackend(model, HORIZON_TABLE, max_len=3)
    config = EngineConfig(k=3, d=2, buffer_limit=2)
    rng = random.Random(5)
    batch = []  # substitutions re-predict, every fourth utterance catches up
    for n in range(40):
        toks = rng.choice(HORIZON_SENTENCES).split()
        if rng.random() < 0.3:
            toks[rng.randrange(len(toks))] = rng.choice(["you", "rice", "out", "zzz"])
        batch.append((transcript_from_tokens(toks), (3,) if n % 4 == 0 else (1,)))

    def replay_batch():
        for transcript, lag in batch:
            replay(transcript, start_session(config, CTX, backend, HORIZON_TABLE), lag)
        gc.collect()

    replay_batch()  # warm-up: fills the memo with every history the batch needs
    tracemalloc.start()
    try:
        replay_batch()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(4):
            replay_batch()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # 160 sessions later: less than three finished sessions hold (about 1.3 KB
    # each here), so no session outlives its replay
    assert grown < 4096


# -- randomized end-to-end properties -------------------------------------------


def test_final_output_oracle_after_divergence():
    rng = random.Random(31337)
    checked = 0
    for _ in range(150):
        transcript, backend, table, ctx = make_scenario(rng)
        session = start_session(EngineConfig(), ctx, backend, table)
        events, report = replay(transcript, session)
        if report.divergences > 0 and report.conflicts == 0:
            want = translate(table, transcript.tokens())
            assert tuple(session.emitted) == want
            checked += 1
    assert checked > 30  # the scenario generator must actually exercise this


def replay_ticks(session, transcript, profile):
    """replay(), one tick at a time: yields each tick's returned events with
    None, and the last tick's with the report."""
    queue = iter(transcript.events)
    tick = 0
    while True:
        returned = []
        for _ in range(profile[tick] if tick < len(profile) else 1):
            ev = next(queue)
            if ev.is_final:
                fin, report = finalize(session, ev, transcript.reference)
                yield returned + fin, report
                return
            returned.extend(deliver(session, ev))
        yield returned + step(session), None
        tick += 1


# Half the scenarios end the source and every hypothesis in one shared
# token, so consensus commits a suffix: a non-empty committed suffix on
# about 4 % of their ticks, against 0.1 % without it.
BURST_SCENARIOS = dict(seed=st.integers(0, 2**32 - 1), burst=st.integers(2, 5),
                       rest=st.lists(st.integers(1, 4), max_size=3),
                       ending=st.sampled_from([None, "fin"]))


@settings(derandomize=True, max_examples=120, database=None, deadline=None)
@given(**BURST_SCENARIOS)
def test_calls_return_the_log_tail_and_the_report_reads_the_log(seed, burst, rest, ending):
    rng = random.Random(seed)
    transcript, backend, table, ctx = make_scenario(rng, ending)
    session = start_session(random_config(rng), ctx, backend, table)
    returned: list = []
    seen: list[str] = []
    for events, report in replay_ticks(session, transcript, (burst, *rest)):
        returned.extend(events)
        assert session.emitted[:len(seen)] == seen  # emission is append-only
        seen = list(session.emitted)
    assert returned == session.events
    assert report == compute_report(session.events, session.delivered,
                                    transcript.reference)
    assert session.emitted == [t for ev in session.events if ev.kind == "emit"
                               for t in ev.toks]


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), profile=st.lists(st.integers(1, 4), min_size=1,
                                                      max_size=3),
       ending=st.sampled_from([None, "fin"]))
def test_emission_is_append_only(seed, profile, ending):
    rng = random.Random(seed)
    transcript, backend, table, ctx = make_scenario(rng, ending)
    session = start_session(random_config(rng), ctx, backend, table)
    seen: list[str] = []
    for events, report in replay_ticks(session, transcript, profile):
        seen.extend(t for ev in events if ev.kind == "emit" for t in ev.toks)
        # after every tick, the output is what the emit events appended so far
        assert session.emitted == seen
    assert report.emitted_len == len(seen)
    assert session.template.suffix is None


def check_committed_slots_kept(session, transcript, profile):
    """After every tick: the prefix only grows; a hole's suffix stays at the
    end; a complete template stays complete; emission reads the prefix."""
    old = session.template
    for _ in replay_ticks(session, transcript, profile):
        new = session.template
        assert new.prefix[:len(old.prefix)] == old.prefix
        if old.suffix is None:
            assert new.suffix is None  # complete stays complete, grows at its end
        else:
            tail = new.prefix if new.suffix is None else new.suffix
            assert tail[len(tail) - len(old.suffix):] == old.suffix
            # the committed prefix and suffix never overlap
            assert (len(new.prefix) + len(new.suffix or ())
                    >= len(old.prefix) + len(old.suffix))
        assert session.emitted == list(new.prefix[:len(session.emitted)])
        old = new


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(**BURST_SCENARIOS)
def test_a_committed_slot_never_changes(seed, burst, rest, ending):
    rng = random.Random(seed)
    transcript, backend, table, ctx = make_scenario(rng, ending)
    session = start_session(random_config(rng), ctx, backend, table)
    check_committed_slots_kept(session, transcript, (burst, *rest))


@pytest.mark.parametrize("buffer_limit", [2, 6])
@pytest.mark.parametrize("profile", [(1,), (3,), (5,), (2, 3, 1)])
def test_a_committed_slot_never_changes_shopping(shopping_backend, shopping_table,
                                                 shopping_transcript, buffer_limit,
                                                 profile):
    # the scripted scenarios rarely commit a suffix; this fixture commits
    # "with my friend" before its hole resolves
    session = session_for(shopping_backend, shopping_table, buffer_limit=buffer_limit)
    check_committed_slots_kept(session, shopping_transcript, profile)


def test_a_hit_tick_leaves_the_tree_pruned():
    # "b" completes hypothesis "a b", whose expansion has a child below
    # epsilon; "c" then kills its other named child, so the expanded node
    # falls below epsilon on a hit tick. Both ticks must prune.
    backend = ScriptedBackend({
        ("ctx", ()): [Prediction(("a", "b"), 0.6, ("ta",)),
                      Prediction(("a", "b", "c", END), 0.3, ("tx",))],
        ("ctx", ("a", "b")): [Prediction(("d", END), 0.95, ("ta", "td")),
                              Prediction(("e", END), 0.04, ("ta", "te"))],
    })
    session = start_session(EngineConfig(k=4, d=2, epsilon=0.1), ContextDoc("ctx"),
                            backend, PhraseTable())
    for ev in transcript_from_tokens(["a", "b", "c", "z"]).events[:3]:
        assert not any(e.kind == "diverge" for e in feed(session, ev))
        assert not prune(session.tree, 0.1)
    assert [n.edge for n in session.tree.root.children] == [("a", "b", "c"), ()]


def test_an_expanded_node_that_loses_a_child_is_folded_on_the_hit_tick():
    # "a" is expanded with every child above epsilon, so that tick's prune
    # folds nothing; "c" then kills "b", the expanded node falls below
    # epsilon, and that hit tick must prune it away.
    backend = ScriptedBackend({
        ("ctx", ()): [Prediction(("a",), 0.3, ("ta",)),
                      Prediction(("a", "c", END), 0.6, ("tc",))],
        ("ctx", ("a",)): [Prediction(("b", END), 0.9, ("ta", "tb"))],
    })
    session = start_session(EngineConfig(k=4, d=2, epsilon=0.1), ContextDoc("ctx"),
                            backend, PhraseTable())
    events = transcript_from_tokens(["a", "c", "z"]).events
    feed(session, events[0])
    node = session.tree.root.children[1]
    assert [c.edge for c in node.children] == [("b",), ()]
    feed(session, events[1])
    assert "diverge" not in kinds(session.events)
    assert [n.edge for n in session.tree.root.children] == [("a", "c"), ()]
    assert not prune(session.tree, 0.1)


def test_prune_follows_only_a_build_on_trees_without_internal_nodes(monkeypatch):
    # d=1 never expands, and an advance of a flat tree only removes leaves
    # and scales the rest up, so a second prune on one tree would be a no-op
    calls = []
    build, prune_ = engine.build_tree, engine.prune

    def built(prefix, ps):
        calls.append("build")
        return build(prefix, ps)

    def pruned(tree, epsilon):
        calls.append("prune")
        return prune_(tree, epsilon)

    monkeypatch.setattr(engine, "build_tree", built)
    monkeypatch.setattr(engine, "prune", pruned)
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d"]
    model = train_ngram([[rng.choice(vocab) for _ in range(rng.randint(3, 8))]
                         for _ in range(12)], 3)
    table = PhraseTable({("a", "b"): ("AB",)})
    backend = NgramBackend(model, table, max_len=3)
    for _ in range(20):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(4, 12))]
        session = session_for(backend, table, k=3, d=1, epsilon=0.05)
        replay(transcript_from_tokens(tokens), session)
    assert calls.count("prune") > 20
    assert all(calls[i - 1] == "build" for i, c in enumerate(calls) if c == "prune")


def test_divergence_soundness_events_match_counters():
    rng = random.Random(9)
    for _ in range(60):
        transcript, backend, table, ctx = make_scenario(rng)
        session = start_session(random_config(rng), ctx, backend, table)
        events, report = replay(transcript, session)
        assert kinds(events).count("diverge") == report.divergences
        assert kinds(events).count("repredict") == report.divergences
        assert kinds(events).count("catchup") == report.catchups
        hits = (report.source_len - report.divergences
                - sum(ev.span for ev in events if ev.kind == "catchup"))
        assert report.hit_rate == hits / report.source_len


def test_replay_determinism_byte_identical_logs():
    rng = random.Random(7)
    for _ in range(25):
        transcript, backend, table, ctx = make_scenario(rng)
        cfg = random_config(rng)
        logs = []
        for _ in range(2):
            session = start_session(cfg, ctx, backend, table)
            events, _ = replay(transcript, session, (2, 1))
            logs.append(events_to_jsonl(events))
        assert logs[0] == logs[1]


def test_report_recomputable_from_event_log(shopping_backend, shopping_table,
                                            shopping_transcript):
    s = session_for(shopping_backend, shopping_table)
    events, report = replay(shopping_transcript, s)
    again = compute_report(s.events, report.source_len, shopping_transcript.reference)
    assert again == report


class RecordingBackend:
    """Passes predict through, asserting that each prefix is a Sequence equal
    to the session's observed tokens at call time."""

    def __init__(self, inner):
        self.inner = inner
        self.session = None  # unset while start_session predicts from ()
        self.calls = 0

    def predict(self, context, prefix, k):
        observed = self.session.observed if self.session is not None else []
        assert isinstance(prefix, Sequence) and list(prefix) == observed
        self.calls += 1
        return self.inner.predict(context, prefix, k)


def _recorded_replay(cfg, ctx, backend, table, transcript, profile):
    recorder = RecordingBackend(backend)
    session = start_session(cfg, ctx, recorder, table)
    recorder.session = session
    _, report = replay(transcript, session, profile)
    return recorder.calls, report


def test_predict_sees_the_observed_prefix():
    rng = random.Random(404)
    repredicts = catchups = 0
    for _ in range(100):  # scripted: divergence and catch-up
        transcript, backend, table, ctx = make_scenario(rng)
        calls, report = _recorded_replay(
            random_config(rng), ctx, backend, table, transcript,
            rng.choice([(1,), (2,), (3,), (2, 1, 3)]))
        assert calls == 1 + report.divergences + report.catchups
        repredicts += report.divergences
        catchups += report.catchups
    assert repredicts > 30 and catchups > 10
    expansions = 0
    vocab = [f"w{i}" for i in range(5)]
    for _ in range(60):  # n-gram with a short horizon: expansion too
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(2, 8))]
                  for _ in range(6)]
        model = train_ngram(corpus, rng.randint(1, 3))
        table = PhraseTable({(w,): (w.upper(),) for w in vocab})
        backend = NgramBackend(model, table, max_len=rng.randint(1, 3))
        transcript = transcript_from_tokens(rng.choice(corpus))
        calls, report = _recorded_replay(
            EngineConfig(k=rng.randint(1, 4), d=rng.randint(1, 3)), CTX,
            backend, table, transcript, (1,))
        expansions += calls - 1 - report.divergences - report.catchups
    assert expansions > 20


class CountingNgramBackend(NgramBackend):
    calls = 0

    def predict(self, context, prefix, k):
        self.calls += 1
        return super().predict(context, prefix, k)


def test_sessions_sharing_an_ngram_backend_match_solo_runs():
    rng = random.Random(91)
    vocab = [f"w{i}" for i in range(5)]
    repredicts = catchups = expansions = 0
    for _ in range(25):
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(2, 8))]
                  for _ in range(6)]
        model = train_ngram(corpus, rng.randint(1, 3))
        table = PhraseTable({**{(w,): (w.upper(),) for w in vocab},
                             ("w0", "w1"): ("W01",), ("w2", "w3", "w4"): ("W234",)})
        max_len = rng.randint(1, 3)
        shared = CountingNgramBackend(model, table, max_len=max_len)
        runs = []
        for _ in range(rng.randint(2, 4)):
            tokens = rng.choice(corpus) + rng.choice(corpus)
            if rng.random() < 0.5:
                tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
            reference = translate(table, tokens)
            runs.append((transcript_from_tokens(tokens, reference=reference),
                         EngineConfig(k=rng.randint(1, 4), d=rng.randint(1, 3),
                                      buffer_limit=rng.randint(1, 3)),
                         # an equal table that is another object: no shared stream
                         table if rng.random() < 0.75 else PhraseTable(table.entries()),
                         rng.choice([(1,), (2,), (3,), (2, 1, 3)])))
        logs = [[] for _ in runs]
        sessions = [start_session(cfg, CTX, shared, tbl) for _, cfg, tbl, _ in runs]
        ticks = [replay_ticks(s, tr, prof) for (tr, _, _, prof), s in zip(runs, sessions)]
        while not all(s.finalized for s in sessions):
            # round-robin, one tick per unfinished session per turn
            for s, tick, log in zip(sessions, ticks, logs):
                if not s.finalized:
                    log.extend(next(tick)[0])
        for (tr, cfg, tbl, prof), log, s in zip(runs, logs, sessions):
            alone = NgramBackend(model, table, max_len=max_len)
            want, report = replay(tr, start_session(cfg, CTX, alone, tbl), prof)
            assert events_to_jsonl(log) == events_to_jsonl(want)
            assert log == s.events
            repredicts += report.divergences
            catchups += report.catchups
        recoveries = sum(ev.kind in ("diverge", "catchup")
                         for s in sessions for ev in s.events)
        expansions += shared.calls - len(runs) - recoveries
    assert repredicts > 20 and catchups > 10 and expansions > 20


def test_prefix_view_keeps_its_build_time_tokens():
    table = PhraseTable({("a", "b"): ("AB",)})
    model = train_ngram([["a", "b", "c"]], 2)
    s = session_for(NgramBackend(model, table, max_len=2), table, buffer_limit=8)
    for i, tok in enumerate(["x", "y", "z"]):  # unpredicted: each re-predicts
        feed(s, TokenEvent(i, tok, i * 100))
    view = s.tree.anchor
    assert len(view) == 3 and view.is_current()
    for i, tok in enumerate(["a", "b", "c", "d"], start=3):
        feed(s, TokenEvent(i, tok, i * 100))
    assert s.observed == ["x", "y", "z", "a", "b", "c", "d"]
    assert not view.is_current()
    assert tuple(view) == ("x", "y", "z") and list(view) == ["x", "y", "z"]
    assert (view[0], view[-1], view[1:], view[::-1], view[-5:]) == (
        "x", "z", ("y", "z"), ("z", "y", "x"), ("x", "y", "z"))
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(IndexError):
        view[-4]


# -- the commit below tau -------------------------------------------------------


def record_commit_calls(monkeypatch):
    """The names the commit looks up in the engine, in call order."""
    calls = []
    for name in ("leaf_hypotheses", "consensus", "refine"):
        def recorded(*args, _fn=getattr(engine, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(engine, name, recorded)
    return calls


TAU = 0.5
COMMIT_BOUND = TAU - 2 * _TAU_SLACK


def leaf_mass(tree):
    """The named leaves' mass as the commit sums it."""
    return math.fsum(m for _, m, _ in leaf_hypotheses(tree))


def session_with_leaf_mass(mass):
    backend = ScriptedBackend({(CTX.id, ()): [Prediction(("x", "y", END), mass, ("X", "Y"))]})
    session = session_for(backend, PhraseTable({}), tau=TAU)
    assert leaf_mass(session.tree) == mass
    return session


def test_a_commit_an_ulp_below_the_bound_is_skipped(monkeypatch):
    session = session_with_leaf_mass(math.nextafter(COMMIT_BOUND, 0.0))
    calls = record_commit_calls(monkeypatch)
    before = session.template
    session._commit(0)
    assert calls == ["leaf_hypotheses"]  # the one walk, then the skip
    assert session.template is before and session.events == []
    assert not session._dirty


def test_a_commit_at_the_bound_runs_the_full_path(monkeypatch):
    session = session_with_leaf_mass(COMMIT_BOUND)
    calls = record_commit_calls(monkeypatch)
    before = session.template
    session._commit(0)
    assert calls == ["leaf_hypotheses", "consensus", "refine"]
    # the cover still misses tau - _TAU_SLACK, so nothing is committed
    assert session.template is before and session.template == all_hole_template()
    assert not session._dirty


# -- the commit whose cover is unchanged ----------------------------------------

# tau 0.5 covers "x y" alone, before and after "y" is observed, while the
# leaf masses change
COVERED = ScriptedBackend({(CTX.id, ()): [Prediction(("x", "y", END), 0.6, ("X", "Y")),
                                          Prediction(("x", "z", END), 0.3, ("X", "Z"))]})


def covered_sessions(template=None):
    """An engine and a reference session on COVERED, both from template,
    its prefix already emitted."""
    cfg = EngineConfig(tau=0.5)
    sessions = (start_session(cfg, CTX, COVERED, PhraseTable({})),
                ReferenceSession(cfg, CTX, COVERED, PhraseTable({})))
    if template is not None:
        for s in sessions:
            s.template, s.emitted = template, list(template.prefix)
    return sessions


def test_a_repeated_cover_against_the_same_template_skips_consensus_and_refine(
        monkeypatch):
    fast, slow = covered_sessions()
    calls = record_commit_calls(monkeypatch)
    feed(fast, TokenEvent(0, "x", 0))
    assert calls == ["leaf_hypotheses", "consensus", "refine"]
    committed, masses = fast.template, [m for _, m, _ in leaf_hypotheses(fast.tree)]
    del calls[:]
    feed(fast, TokenEvent(1, "y", 100))
    assert calls == ["leaf_hypotheses"]  # the walk, then the skip
    assert [m for _, m, _ in leaf_hypotheses(fast.tree)] != masses
    assert fast.template is committed and committed == fixed_template(("X", "Y"))
    for i, tok in enumerate(["x", "y"]):
        feed(slow, TokenEvent(i, tok, i * 100))
    assert fast.events == slow.events and slow.template == committed


def test_after_a_conflict_the_same_cover_runs_in_full_and_logs_it_again(monkeypatch):
    fast, slow = covered_sessions(fixed_template(("Q",)))
    calls = record_commit_calls(monkeypatch)
    for i, tok in enumerate(["x", "y"]):
        del calls[:]
        got = feed(fast, TokenEvent(i, tok, i * 100))
        assert calls == ["leaf_hypotheses", "consensus", "refine"]
        assert kinds(got) == ["conflict"]
        assert kinds(feed(slow, TokenEvent(i, tok, i * 100))) == ["conflict"]
    assert fast.events == slow.events
    assert fast.template == slow.template == fixed_template(("Q",))


def test_after_a_catchup_the_same_cover_runs_in_full(monkeypatch):
    # "x" is cut at the horizon, so consensus commits "X" and a hole, and
    # the catch-up's "A" goes into that hole
    truncated = [Prediction(("x",), 0.9, ("X",))]
    backend = ScriptedBackend({(CTX.id, ()): truncated, (CTX.id, ("a",)): truncated})
    session = session_for(backend, PhraseTable({("a",): ("A",)}), tau=0.5)
    calls = record_commit_calls(monkeypatch)
    session._commit(0)
    session._commit(0)
    assert calls == ["leaf_hypotheses", "consensus", "refine", "leaf_hypotheses"]
    cover = tau_cover(leaf_hypotheses(session.tree), 0.5)
    deliver(session, TokenEvent(0, "a", 0))
    catchup(session)
    assert session.template == TargetTemplate(("X", "A"), ())
    assert tau_cover(leaf_hypotheses(session.tree), 0.5) == cover
    del calls[:]
    session._commit(0)
    assert calls == ["leaf_hypotheses", "consensus", "refine"]
    assert session.template == TargetTemplate(("X", "A"), ())


# "a" is cut at the horizon, so observing it expands it: the tree has an
# internal node whose mass the named mass must not count
EXPANDING = ScriptedBackend({
    (CTX.id, ()): [Prediction(("a",), 0.6, ("A",)), Prediction(("b", END), 0.3, ("B",))],
    (CTX.id, ("a",)): [Prediction(("c", END), 0.5, ("A", "C")),
                       Prediction(("d", END), 0.2, ("A", "D"))],
})


@pytest.mark.parametrize("tau, commits, emitted", [(0.55, True, ["A"]), (0.9, False, [])])
def test_the_leaf_mass_of_an_expanded_tree_decides_the_commit(monkeypatch, tau,
                                                              commits, emitted):
    cfg = EngineConfig(k=2, tau=tau)
    fast = start_session(cfg, CTX, EXPANDING, PhraseTable({}))
    slow = ReferenceSession(cfg, CTX, EXPANDING, PhraseTable({}))
    calls = record_commit_calls(monkeypatch)
    feed(fast, TokenEvent(0, "a", 0))
    inner = [n for n in fast.tree.walk() if n.children and n is not fast.tree.root]
    assert len(inner) == 1
    assert calls.count("leaf_hypotheses") == 1
    mass = leaf_mass(fast.tree)
    assert mass == pytest.approx(0.6) and inner[0].path_p == pytest.approx(0.6 / 0.7)
    assert ("consensus" in calls) == commits
    feed(slow, TokenEvent(0, "a", 0))
    assert fast.emitted == slow.emitted == emitted
    assert fast.events == slow.events and fast.template == slow.template


# "a" is cut at the horizon and nothing answers the prefix ("a",), so
# observing "a" asks the backend to expand it and gets NoPrediction
UNANSWERED = ScriptedBackend({(CTX.id, ()): [Prediction(("a",), 0.6, ("A",))]})


def test_no_prediction_at_an_expansion_gives_the_leaf_an_other_child_only():
    cfg = EngineConfig()
    session = start_session(cfg, CTX, UNANSWERED, PhraseTable({}))
    reference = ReferenceSession(cfg, CTX, UNANSWERED, PhraseTable({}))
    transcript = transcript_from_tokens(["a", "b", "c"], reference=["a", "b", "c"])
    ticks = zip(replay_ticks(session, transcript, [1]),
                replay_ticks(reference, transcript, [1]), strict=True)
    for tick, ((got, got_report), (want, want_report)) in enumerate(ticks):
        if tick == 0:
            leaf = session.tree.root.children[0]
            assert leaf.edge == ("a",) and leaf.path_p == pytest.approx(0.6)
            [other] = leaf.children
            assert other.is_other and not other.children
            assert other.path_p == leaf.path_p
        assert events_to_jsonl(got) == events_to_jsonl(want)
        assert got_report == want_report
        assert session.emitted == reference.emitted
        assert session.template == reference.template
        if session.tree is None:
            assert reference.tree is None
        else:
            assert tree_state(session.tree) == tree_state(reference.tree)
    assert reference.expansions == 1


# -- the reference engine -------------------------------------------------------

# What the property must reach on each scenario kind, so that a generator
# change cannot quietly stop exercising a skip. Scripted hypotheses all run
# to the utterance's end and their contexts carry no body, so only the
# n-gram kind expands and checks drift.
REACHES = {
    "scripted": ("catchup", "conflict", "below-tau commit"),
    "ngram": ("expansion", "catchup", "conflict", "context_shift", "below-tau commit",
              "unchanged-cover commit"),
}


@pytest.mark.parametrize("kind", REACHES)
def test_the_engine_matches_the_reference_after_every_tick(kind, monkeypatch):
    reached = Counter()
    # wraps the engine's names only: the reference imports its own
    calls = record_commit_calls(monkeypatch)

    # the scripted kind draws its tau in random_config; the n-gram kind
    # ignores the shared ending
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           tau=st.one_of(st.floats(0.06, 1.0), st.sampled_from([0.5, 0.75, 0.9, 1.0])),
           ending=st.sampled_from([None, "fin"]),
           profile=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    def matches(seed, tau, ending, profile):
        rng = random.Random(seed)
        if kind == "scripted":
            transcript, backend, table, ctx = make_scenario(rng, ending)
            cfg = random_config(rng)
        else:
            transcript, backend, table, ctx, cfg = make_ngram_scenario(rng, tau)
        session = start_session(cfg, ctx, backend, table)
        reference = ReferenceSession(cfg, ctx, backend, table)

        def counted_commit(t_ms, commit=session._commit):
            below = leaf_mass(session.tree) < cfg.tau - 2 * _TAU_SLACK
            n = len(calls)
            commit(t_ms)
            if below:
                reached["below-tau commit"] += 1
            elif "consensus" not in calls[n:]:
                reached["unchanged-cover commit"] += 1

        session._commit = counted_commit
        for (got, got_report), (want, want_report) in zip(
                replay_ticks(session, transcript, profile),
                replay_ticks(reference, transcript, profile), strict=True):
            assert events_to_jsonl(got) == events_to_jsonl(want)
            assert got_report == want_report
            assert session.emitted == reference.emitted
            assert session.template == reference.template
            if session.tree is None:
                assert reference.tree is None
            else:
                assert tree_state(session.tree) == tree_state(reference.tree)
        reached["expansion"] += reference.expansions
        reached.update(ev.kind for ev in session.events)

    matches()
    assert all(reached[what] > 0 for what in REACHES[kind]), reached

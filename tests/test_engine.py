"""Session pipeline: feed/advance/commit flow, divergence recovery, catch-up,
drift checks, monotone emission, determinism."""

from __future__ import annotations

import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.engine import (OutOfOrderToken, catchup, deliver, feed, finalize,
                            start_session, step)
from specsim.metrics import compute_report
from specsim.ngram import train_ngram
from specsim.phrases import PhraseTable, translate
from specsim.predictor import NgramBackend, NoPrediction
from specsim.replay import events_to_jsonl, replay
from specsim.stream import ContextDoc, EngineConfig, TokenEvent, transcript_from_tokens

from conftest import make_scenario, random_config

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
        def predict(self, context, prefix, k, aux=None):
            raise NoPrediction("nothing")

    s = session_for(Empty(), shopping_table)
    assert all(n.is_other for n in s.tree.leaves())
    assert s.tree.total_mass() == 1.0


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
    assert s.template.complete()
    assert report.emitted_len == len(s.emitted)


# -- context drift --------------------------------------------------------------


def drift_session(body, window=4, ratio=2.0):
    corpus = [["a", "b", "c", "d"], ["a", "b", "c", "e"], ["b", "c", "d", "e"]]
    model = train_ngram(corpus, 2, alpha=0.1)
    table = PhraseTable()
    backend = NgramBackend(model, table, max_len=4)
    cfg = EngineConfig(drift_window=window, drift_ratio=ratio, buffer_limit=32)
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
    assert s.aux == ("q", "q", "q", "q")


def test_drift_never_fires_for_scripted_backend(shopping_backend, shopping_table,
                                                shopping_transcript):
    s = start_session(EngineConfig(drift_window=2), ContextDoc("daily-life", ("x",)),
                      shopping_backend, shopping_table)
    events, _ = replay(shopping_transcript, s)
    assert all(ev.kind != "context_shift" for ev in events)


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
        def predict(self, context, prefix, k, aux=None):
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


# -- randomized end-to-end properties -------------------------------------------


def test_monotone_emission_on_random_scenarios():
    rng = random.Random(2025)
    for _ in range(150):
        transcript, backend, table, ctx = make_scenario(rng)
        cfg = random_config(rng)
        session = start_session(cfg, ctx, backend, table)
        profile = rng.choice([(1,), (2,), (3,), (2, 1, 3)])
        seen: list[str] = []
        events, report = replay(transcript, session, profile)
        for ev in events:
            if ev.kind == "emit":
                seen.extend(ev.toks)
                assert seen == session.emitted[:len(seen)]
        assert seen == session.emitted
        assert report.emitted_len == len(seen)
        # template fully resolved
        assert session.template.complete()


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

    def predict(self, context, prefix, k, aux=None):
        observed = self.session.observed if self.session is not None else []
        assert isinstance(prefix, Sequence) and list(prefix) == observed
        self.calls += 1
        return self.inner.predict(context, prefix, k, aux)


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

    def predict(self, context, prefix, k, aux=None):
        self.calls += 1
        return super().predict(context, prefix, k, aux)


def _ticks(transcript, session, profile, log):
    """replay(), one tick per iteration, appending its events to log."""
    queue = iter(transcript.events)
    tick = 0
    while True:
        for _ in range(profile[tick] if tick < len(profile) else 1):
            ev = next(queue)
            if ev.is_final:
                log.extend(finalize(session, ev, transcript.reference)[0])
                return
            log.extend(deliver(session, ev))
        log.extend(step(session))
        tick += 1
        yield True


def test_sessions_sharing_an_ngram_backend_match_solo_runs():
    rng = random.Random(91)
    vocab = [f"w{i}" for i in range(5)]
    repredicts = catchups = expansions = 0
    for _ in range(25):
        corpus = [[rng.choice(vocab) for _ in range(rng.randint(2, 8))]
                  for _ in range(6)]
        model = train_ngram(corpus, rng.randint(1, 3))
        table = PhraseTable({(w,): (w.upper(),) for w in vocab})
        table.add(("w0", "w1"), ("W01",))
        table.add(("w2", "w3", "w4"), ("W234",))
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
        turns = [_ticks(tr, s, prof, log)
                 for (tr, _, _, prof), s, log in zip(runs, sessions, logs)]
        while turns:  # round-robin, one tick per session per turn
            turns = [t for t in turns if next(t, False)]
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

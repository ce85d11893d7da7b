"""Transcript parsing, serialization round-trips, config validation."""

from __future__ import annotations

import random

import pytest

from specsim.stream import (EngineConfig, IndexGap, MalformedRecord,
                            MissingFinalMarker, NonMonotonicTime, TokenEvent,
                            Transcript, config_from_json, parse_transcript,
                            serialize_transcript, transcript_from_tokens,
                            validate_config)

HEADER = '{"src":"ja","tgt":"en"}'


def lines(*records: str) -> str:
    return "\n".join(records) + "\n"


def test_parse_basic_roundtrip():
    text = lines(
        '{"src":"ja","tgt":"en","ref":["I","ate"]}',
        '{"i":0,"tok":"私は","t_ms":0}',
        '{"i":1,"tok":"食べた","t_ms":120,"final":true}',
    )
    tr = parse_transcript(text)
    assert tr.source_lang == "ja" and tr.target_lang == "en"
    assert tr.reference == ("I", "ate")
    assert tr.tokens() == ("私は", "食べた")
    assert tr.events[-1].is_final and not tr.events[0].is_final
    assert parse_transcript(serialize_transcript(tr)) == tr


def test_parse_rejects_non_monotonic_time():
    text = lines(HEADER,
                 '{"i":0,"tok":"a","t_ms":0}',
                 '{"i":1,"tok":"b","t_ms":100}',
                 '{"i":2,"tok":"c","t_ms":50,"final":true}')
    with pytest.raises(NonMonotonicTime) as err:
        parse_transcript(text)
    assert err.value.line == 4


def test_parse_rejects_index_gap():
    text = lines(HEADER,
                 '{"i":0,"tok":"a","t_ms":0}',
                 '{"i":2,"tok":"b","t_ms":100,"final":true}')
    with pytest.raises(IndexGap) as err:
        parse_transcript(text)
    assert err.value.line == 3


def test_parse_requires_final_marker():
    text = lines(HEADER, '{"i":0,"tok":"a","t_ms":0}')
    with pytest.raises(MissingFinalMarker):
        parse_transcript(text)


def test_parse_rejects_event_after_final():
    text = lines(HEADER,
                 '{"i":0,"tok":"a","t_ms":0,"final":true}',
                 '{"i":1,"tok":"b","t_ms":10,"final":true}')
    with pytest.raises(MalformedRecord) as err:
        parse_transcript(text)
    assert err.value.line == 3


@pytest.mark.parametrize("bad", [
    "not json",
    '{"i":0,"t_ms":0}',
    '{"i":"0","tok":"a","t_ms":0}',
    '{"i":0,"tok":"","t_ms":0}',
    pytest.param("[" * 100000, id="nested-too-deeply"),
])
def test_parse_rejects_malformed_records(bad):
    with pytest.raises(MalformedRecord):
        parse_transcript(lines(HEADER, bad))


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedRecord):
        parse_transcript(lines('{"src":"ja"}', '{"i":0,"tok":"a","t_ms":0,"final":true}'))
    with pytest.raises(MalformedRecord):
        parse_transcript(lines('{"src":"","tgt":"en"}',
                               '{"i":0,"tok":"a","t_ms":0,"final":true}'))
    with pytest.raises(MalformedRecord):
        parse_transcript(lines("{" + '"a":{' * 100000,
                               '{"i":0,"tok":"a","t_ms":0,"final":true}'))


def test_roundtrip_property_on_random_transcripts():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 20)
        toks = [f"w{rng.randrange(30)}" for _ in range(n)]
        t = 0
        events = []
        for i, tok in enumerate(toks):
            t += rng.randint(0, 250)
            events.append(TokenEvent(i, tok, t, is_final=(i == n - 1)))
        ref = tuple(f"r{rng.randrange(9)}" for _ in range(rng.randint(0, 6))) \
            if rng.random() < 0.5 else None
        tr = Transcript("ja", "en", tuple(events), ref)
        text = serialize_transcript(tr)
        again = parse_transcript(text)
        assert again == tr
        assert serialize_transcript(again) == text
        # parsed transcripts always satisfy the event invariants
        assert [ev.index for ev in again.events] == list(range(n))
        assert all(x.t_ms <= y.t_ms for x, y in zip(again.events, again.events[1:]))
        assert sum(ev.is_final for ev in again.events) == 1
        assert again.events[-1].is_final


def test_transcript_from_tokens_builder():
    tr = transcript_from_tokens(["a", "b"], reference=["x"])
    assert tr.tokens() == ("a", "b")
    assert tr.events[1].is_final
    with pytest.raises(ValueError):
        transcript_from_tokens([])


def test_validate_config_defaults_ok():
    assert validate_config(EngineConfig()) == []


def test_validate_config_reports_all_violations():
    bad = validate_config(EngineConfig(epsilon=0.95, tau=0.9))
    assert "epsilon < tau" in bad
    bad = validate_config(EngineConfig(k=0))
    assert "k >= 1" in bad
    bad = validate_config(EngineConfig(k=0, d=0, epsilon=-1, drift_ratio=1.0))
    assert {"k >= 1", "d >= 1", "epsilon > 0", "drift_ratio > 1"} <= set(bad)


def test_config_from_json():
    cfg = config_from_json('{"k": 2, "tau": 0.8}')
    assert cfg.k == 2 and cfg.tau == 0.8 and cfg.d == 3
    with pytest.raises(ValueError):
        config_from_json('{"bogus": 1}')
    with pytest.raises(ValueError):
        config_from_json('[1]')

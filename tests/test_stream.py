"""Transcript parsing, serialization round-trips, config checks."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim import stream
from specsim.stream import (EngineConfig, IndexGap, MalformedRecord,
                            MissingFinalMarker, NonMonotonicTime, TokenEvent,
                            Transcript, TranscriptError, config_from_json,
                            parse_transcript, serialize_transcript,
                            transcript_from_tokens)

from oracles import parse_transcript_oracle

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
    # booleans are not integers, and only a JSON boolean is an end marker
    '{"i":false,"tok":"a","t_ms":true,"final":true}',
    '{"i":0,"tok":"a","t_ms":true,"final":true}',
    '{"i":true,"tok":"a","t_ms":0,"final":true}',
    '{"i":0,"tok":"a","t_ms":0,"final":"no"}',
    '{"i":0,"tok":"a","t_ms":0,"final":1}',
    '{"i":0,"tok":"a","t_ms":0,"final":0}',
    '{"i":0,"tok":"a","t_ms":0,"final":null}',
])
def test_parse_rejects_malformed_records(bad):
    with pytest.raises(MalformedRecord) as err:
        parse_transcript(lines(HEADER, bad))
    assert err.value.line == 2


def test_parse_rejects_bad_header():
    for header in ['{"src":"ja"}',
                   '{"src":"","tgt":"en"}',
                   "{" + '"a":{' * 100000,
                   '{"src":"ja","tgt":"en","ref":[""]}',
                   '{"src":"ja","tgt":"en","ref":["I","","ate"]}']:
        with pytest.raises(MalformedRecord) as err:
            parse_transcript(lines(header, '{"i":0,"tok":"a","t_ms":0,"final":true}'))
        assert err.value.line == 1


# the longest decimal int() converts, when it has a limit (Python 3.11 and
# the 3.10 bug-fix releases since 3.10.7 do)
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() converts any number of digits")
@pytest.mark.parametrize("line", [1, 2])
def test_parse_refuses_an_integer_longer_than_int_converts_naming_its_line(line):
    big = "1" * (INT_DIGITS + 1)
    records = [HEADER, '{"i":0,"tok":"a","t_ms":0,"final":true}']
    records[line - 1] = records[line - 1][:-1] + ',"n":' + big + "}"
    with pytest.raises(MalformedRecord) as err:
        parse_transcript(lines(*records))
    assert err.value.line == line
    assert str(err.value) == f"line {line}: " + ("header is not valid JSON" if line == 1
                                                 else "not valid JSON")


EV0 = '{"i":0,"tok":"a","t_ms":100}'
FINAL0 = '{"i":0,"tok":"a","t_ms":100,"final":true}'
C_EV0 = '{"i": 0, "tok": "a", "t_ms": 100}'
C_FINAL0 = '{"i": 0, "tok": "a", "t_ms": 100, "final": true}'


# (transcript, class, message, line) for every rejection the parser makes
REJECTIONS = [
    ("", MalformedRecord, "missing header line", 1),
    (lines("  ", HEADER, FINAL0), MalformedRecord, "missing header line", 1),
    (lines("not json", FINAL0), MalformedRecord, "header is not valid JSON", 1),
    (lines("[" * 100000, FINAL0), MalformedRecord, "JSON is nested too deeply", 1),
    (lines("[1]", FINAL0), MalformedRecord, "header must carry src and tgt", 1),
    (lines('{"tgt":"en"}', FINAL0), MalformedRecord, "header must carry src and tgt", 1),
    (lines('{"src":"ja","tgt":5}', FINAL0), MalformedRecord,
     "language tags must be non-empty strings", 1),
    (lines('{"src":"ja","tgt":"en","ref":"I ate"}', FINAL0), MalformedRecord,
     "ref must be a list of tokens", 1),
    (lines('{"src":"ja","tgt":"en","ref":["I",2]}', FINAL0), MalformedRecord,
     "ref must be a list of tokens", 1),
    # line numbers count the blank lines that are skipped
    (lines(HEADER, "", "  ", "not json"), MalformedRecord, "not valid JSON", 4),
    (lines(HEADER, "\t", "[" * 100000), MalformedRecord, "JSON is nested too deeply", 3),
    (lines(HEADER, "", "[1]"), MalformedRecord, "record must be a JSON object", 3),
    (lines(HEADER, '{"tok":"a","t_ms":0}'), MalformedRecord, "missing field 'i'", 2),
    (lines(HEADER, '{"i":0,"t_ms":0}'), MalformedRecord, "missing field 'tok'", 2),
    (lines(HEADER, '{"i":0,"tok":"a"}'), MalformedRecord, "missing field 't_ms'", 2),
    (lines(HEADER, '{"t_ms":0}'), MalformedRecord, "missing field 'i'", 2),
    (lines(HEADER, '{"i":0,"tok":5,"t_ms":0}'), MalformedRecord,
     "field types must be i:int tok:str t_ms:int", 2),
    (lines(HEADER, '{"i":0,"tok":"a","t_ms":1.5}'), MalformedRecord,
     "field types must be i:int tok:str t_ms:int", 2),
    (lines(HEADER, EV0, "", '{"i":1,"tok":"","t_ms":100}'), MalformedRecord,
     "empty token", 4),
    (lines(HEADER, "", EV0, "", "", '{"i":2,"tok":"b","t_ms":200,"final":true}'),
     IndexGap, "expected index 1, got 2", 6),
    (lines(HEADER, EV0, '{"i":0,"tok":"b","t_ms":200}'), IndexGap,
     "expected index 1, got 0", 3),
    (lines(HEADER, EV0, "", '{"i":1,"tok":"b","t_ms":99,"final":true}'),
     NonMonotonicTime, "t_ms 99 < 100", 4),
    (lines(HEADER, FINAL0, "", '{"i":1,"tok":"b","t_ms":200}'), MalformedRecord,
     "event after final marker", 4),
    # the first failing check wins
    (lines(HEADER, FINAL0, "{}"), MalformedRecord, "event after final marker", 3),
    (lines(HEADER, FINAL0, '{"i":"x","tok":"","t_ms":0}'), MalformedRecord,
     "event after final marker", 3),
    (lines(HEADER, FINAL0, "[2]"), MalformedRecord, "record must be a JSON object", 3),
    (lines(HEADER, FINAL0, "{"), MalformedRecord, "not valid JSON", 3),
    (lines(HEADER, '{"i":"x","tok":""}'), MalformedRecord, "missing field 't_ms'", 2),
    (lines(HEADER, '{"i":"x","tok":"","t_ms":0}'), MalformedRecord,
     "field types must be i:int tok:str t_ms:int", 2),
    (lines(HEADER, '{"i":5,"tok":"","t_ms":0}'), MalformedRecord, "empty token", 2),
    (lines(HEADER, EV0, '{"i":7,"tok":"b","t_ms":0}'), IndexGap,
     "expected index 1, got 7", 3),
    (lines('{"src":"ja"}', "not json"), MalformedRecord, "header must carry src and tgt", 1),
    (lines(HEADER, EV0).replace("\n", "\r\n") + "\r\n" + "[1]\r\n", MalformedRecord,
     "record must be a JSON object", 4),
    (lines(HEADER), MissingFinalMarker, "no event carries the end-of-utterance marker", None),
    (lines(HEADER, EV0, "", ""), MissingFinalMarker,
     "no event carries the end-of-utterance marker", None),
    # only a line feed ends a record
    (HEADER + "\r" + FINAL0 + "\n", MalformedRecord, "header is not valid JSON", 1),
    (lines(HEADER, EV0 + "\r" + '{"i":1,"tok":"b","t_ms":200,"final":true}'),
     MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, EV0 + "\u2028" + '{"i":1,"tok":"b","t_ms":200,"final":true}'),
     MalformedRecord, "not valid JSON", 2),
    # one JSON value per line, between JSON whitespace only
    (lines(HEADER, FINAL0 + " " + EV0), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, FINAL0 + "{}"), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, FINAL0 + " x"), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, FINAL0 + "\x0c"), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, "\ufeff" + FINAL0), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER + " " + HEADER, FINAL0), MalformedRecord, "header is not valid JSON", 1),
]


# Records in the exact form serialize_transcript writes take the canonical
# decoder, or fall back to JSON once the line goes on past the record
CANONICAL_REJECTIONS = [
    (lines(HEADER, C_EV0, '{"i": 2, "tok": "b", "t_ms": 200, "final": true}'), IndexGap,
     "expected index 1, got 2", 3),
    (lines(HEADER, '{"i": 1, "tok": "a", "t_ms": 100, "final": true}'), IndexGap,
     "expected index 0, got 1", 2),
    (lines(HEADER, C_EV0, "", '{"i": 1, "tok": "b", "t_ms": 99, "final": true}'),
     NonMonotonicTime, "t_ms 99 < 100", 4),
    (lines(HEADER, C_FINAL0, '{"i": 1, "tok": "b", "t_ms": 200}'), MalformedRecord,
     "event after final marker", 3),
    (lines(HEADER, C_EV0, C_EV0), IndexGap, "expected index 1, got 0", 3),
    (lines(HEADER, C_EV0), MissingFinalMarker,
     "no event carries the end-of-utterance marker", None),
    (HEADER + "\n" + C_EV0, MissingFinalMarker,
     "no event carries the end-of-utterance marker", None),
    (lines(HEADER, C_EV0 + " " + C_FINAL0), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, "x" + C_FINAL0), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, C_FINAL0 + C_FINAL0), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, C_FINAL0 + "x"), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, C_FINAL0 + "\r" + C_FINAL0), MalformedRecord, "not valid JSON", 2),
    (lines(HEADER, C_EV0, '{"i": 1, "tok": "", "t_ms": 200, "final": true}'),
     MalformedRecord, "empty token", 3),
    (lines(HEADER, '{"i": 0, "tok": "a\tb", "t_ms": 0, "final": true}'), MalformedRecord,
     "not valid JSON", 2),
    (lines(HEADER, '{"i": 00, "tok": "a", "t_ms": 0, "final": true}'), MalformedRecord,
     "not valid JSON", 2),
    (lines(HEADER, '{"i": 0, "tok": "a", "t_ms": 01, "final": true}'), MalformedRecord,
     "not valid JSON", 2),
    (lines(HEADER, '{"i": ０, "tok": "a", "t_ms": 0, "final": true}'), MalformedRecord,
     "not valid JSON", 2),
    (lines(HEADER, '{"i": 0, "tok": "a", "t_ms": 1000000000000000000000}',
           '{"i": 1, "tok": "b", "t_ms": 999999999999999999, "final": true}'), NonMonotonicTime,
     "t_ms 999999999999999999 < 1000000000000000000000", 3),
]


def test_canonical_records_are_refused_as_their_json_spelling_is():
    for text, exc, message, line in CANONICAL_REJECTIONS:
        with pytest.raises(TranscriptError) as err:
            parse_transcript(text)
        assert (type(err.value), err.value.line) == (exc, line), text
        assert str(err.value) == (message if line is None else f"line {line}: {message}")
        # without the spaces, every line takes the JSON decoder
        compact = text.replace(", ", ",").replace(": ", ":")
        assert _outcome(parse_transcript, compact) == (exc, line, str(err.value)), text


@pytest.mark.parametrize("text, exc, message, line", REJECTIONS,
                         ids=[f"{n}-{case[2]}" for n, case in enumerate(REJECTIONS)])
def test_parse_rejection_class_message_and_line(text, exc, message, line):
    with pytest.raises(TranscriptError) as err:
        parse_transcript(text)
    assert type(err.value) is exc
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_parse_valid_transcript_builds_no_errors(monkeypatch):
    built = []
    init = TranscriptError.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(TranscriptError, "__init__", counting_init)
    tr = transcript_from_tokens([f"w{i % 50}" for i in range(5000)], reference=["x"])
    parsed = parse_transcript(serialize_transcript(tr))
    assert parsed == tr
    assert built == []
    with pytest.raises(IndexGap):
        parse_transcript(lines(HEADER, '{"i":1,"tok":"a","t_ms":0,"final":true}'))
    assert built == [IndexGap]


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


@pytest.mark.parametrize("tok", ["a\u2028b", "a\u2029b", "a\x85b", "a\rb", "a\nb",
                                 "a\r\nb", "\r", "\x1e", "a\x0bb\x0cc"])
def test_roundtrip_keeps_line_breaking_characters_inside_a_token(tok):
    tr = transcript_from_tokens([tok, "c"], reference=[tok])
    assert parse_transcript(serialize_transcript(tr)) == tr


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.lists(st.text(min_size=1), min_size=1, max_size=8),
       st.none() | st.lists(st.text(min_size=1), max_size=4))
def test_roundtrip_property_on_arbitrary_unicode_tokens(toks, ref):
    tr = transcript_from_tokens(toks, reference=ref)
    text = serialize_transcript(tr)
    assert parse_transcript(text) == tr
    assert parse_transcript(text.replace("\n", "\r\n")) == tr


# JSON values that are not a valid i or t_ms: the decoder maps NaN and the
# infinities to floats, 1e400 overflows to one, and true/false are bools;
# 4,301 digits is past int()'s default limit
ODD_NUMBERS = ["NaN", "-Infinity", "Infinity", "1e400", "true", "false", "1.0", "-0",
               "null", '"1"', "[]", "1" * 4301]
# lines that str.strip blanks out, JSON whitespace or not
BLANKS = ["", " ", "\t", "\r", "\x0c", "\x85", " \x0b ", "\u2028", "\u3000"]
TRAILERS = [" x", "}", ",", "]", " //", "\r\r", "\x0c", "\ufeff", " 1"]


@st.composite
def transcript_texts(draw):
    """Mostly valid transcripts with a few lines broken in ways a line-based
    JSON reader can get wrong."""
    header = st.sampled_from(['{"src":"ja","tgt":"en"}', '{"src":"ja","tgt":"en","ref":[]}',
                              '{"src":"ja","tgt":"en","ref":["I","ate"]}'])
    if not draw(st.integers(0, 5)):
        header = st.sampled_from(['{"src":"ja"}', "[1]", "", '{"src":"","tgt":"en"}',
                                  '{"src":"ja","tgt":"en","ref":["I",""]}'])
    lines = [draw(header)]
    n = draw(st.integers(1, 5))
    t = 0
    for i in range(n):
        t += draw(st.integers(0, 50))
        rec = {"i": i, "tok": draw(st.text(min_size=1, max_size=3)), "t_ms": t}
        if i == n - 1:
            rec["final"] = True
        lines.append(json.dumps(rec, ensure_ascii=draw(st.booleans())))
    for _ in range(draw(st.integers(0, 3))):
        first = 0 if len(lines) == 1 or not draw(st.integers(0, 4)) else 1  # mostly a record
        at = draw(st.integers(first, len(lines) - 1))
        line = lines[at]
        kind = draw(st.sampled_from(["blank", "pad", "two", "trail", "odd", "deep",
                                     "nested", "bom", "cr", "swap", "drop"]))
        if kind == "swap":  # out of order: an index gap, time backwards, a late final
            other = draw(st.integers(first, len(lines) - 1))
            lines[at], lines[other] = lines[other], line
        elif kind == "drop":
            if at:  # a record, never the header
                del lines[at]
        elif kind == "blank":
            lines.insert(at + 1, draw(st.sampled_from(BLANKS)))
        elif kind == "pad":  # JSON whitespace, or not, on either side
            pad = st.sampled_from(["", " ", "\t", "\r", " \t\r", "\x0c", "\xa0"])
            lines[at] = draw(pad) + line + draw(pad)
        elif kind == "two":
            lines[at] = line + draw(st.sampled_from(["", " ", "\t", "\r"])) + line
        elif kind == "trail":
            lines[at] = line + draw(st.sampled_from(TRAILERS))
        elif kind == "odd":
            field = draw(st.sampled_from(["i", "tok", "t_ms", "final"]))
            values = {"i": at - 1, "tok": '"a"', "t_ms": 10 * at, "final": "false"}
            values[field] = draw(st.sampled_from(ODD_NUMBERS + ['""']))
            lines[at] = '{"i": %s, "tok": %s, "t_ms": %s, "final": %s}' % (
                values["i"], values["tok"], values["t_ms"], values["final"])
        elif kind == "deep":  # past any recursion limit
            lines[at] = draw(st.sampled_from(["[" * 100000, '{"a":' * 50000,
                                              '{"i":0,"tok":' + "[" * 100000]))
        elif kind == "nested":  # closed, and under the limit
            depth = draw(st.integers(1, 40))
            lines[at] = '{"x":' + "[" * depth + "]" * depth + "," + line[1:]
        elif kind == "bom":
            lines[at] = "\ufeff" + line
        else:  # a lone carriage return does not end a record
            lines[at] = line + "\r" + line
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _outcome(parse, text):
    try:
        return parse(text)
    except TranscriptError as err:
        return type(err), err.line, str(err)


class _CountingPattern:
    """Stands in for stream._CANONICAL, counting the lines it decodes."""

    def __init__(self, pattern, taken):
        self.pattern, self.taken = pattern, taken

    def match(self, text, pos):
        m = self.pattern.match(text, pos)
        self.taken["canonical"] += m is not None
        return m


@pytest.fixture()
def decoders(monkeypatch):
    """How many record lines each of parse_transcript's decoders takes:
    "canonical" counts the pattern's matches, "json" the lines after the
    header that go to _record."""
    taken = {"canonical": 0, "json": 0}
    record = stream._record

    def counting_record(raw, lineno, invalid):
        taken["json"] += lineno > 1
        return record(raw, lineno, invalid)

    monkeypatch.setattr(stream, "_record", counting_record)
    monkeypatch.setattr(stream, "_CANONICAL", _CountingPattern(stream._CANONICAL, taken))
    return taken


def test_parse_agrees_with_the_decode_based_parser(decoders):
    @settings(derandomize=True, max_examples=600, database=None, deadline=None)
    @given(transcript_texts())
    def agree(text):
        # an equal Transcript, or the same error class, line and message
        assert _outcome(parse_transcript, text) == _outcome(parse_transcript_oracle, text)

    agree()
    # the generator's json.dumps records are canonical unless they escape a
    # character; its padded, escaped and CRLF lines are not
    assert decoders["canonical"] > 200 and decoders["json"] > 500, decoders


def test_canonical_and_other_records_mix_in_one_transcript(decoders):
    text = lines(HEADER, '{"i": 0, "tok": "a", "t_ms": 0}',
                 '{"i": 1, "tok": "a\\"b", "t_ms": 5}',
                 ' {"t_ms": 7, "tok": "c", "i": 2}',
                 '{"i": 3, "tok": "d", "t_ms": 9, "final": true}')
    tr = parse_transcript(text)
    assert tr.tokens() == ("a", 'a"b', "c", "d")
    assert [ev.t_ms for ev in tr.events] == [0, 5, 7, 9]
    assert decoders == {"canonical": 2, "json": 2}


# a token character that json.dumps(..., ensure_ascii=False) writes as itself
UNESCAPED = st.characters(exclude_characters='"\\' + "".join(map(chr, range(32))))


def test_every_serialized_record_takes_the_canonical_decoder(decoders):
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(st.lists(st.text(UNESCAPED, min_size=1), min_size=1, max_size=8),
           st.lists(st.integers(0, 10 ** 19), min_size=8, max_size=8), st.booleans())
    def canonical(toks, times, crlf):
        times = sorted(times)[:len(toks)]
        events = tuple(TokenEvent(i, tok, t, i == len(toks) - 1)
                       for i, (tok, t) in enumerate(zip(toks, times)))
        tr = Transcript("ja", "en", events, tuple(toks))
        text = serialize_transcript(tr)
        if crlf:
            text = text.replace("\n", "\r\n")
        decoders["canonical"] = decoders["json"] = 0
        assert parse_transcript(text) == tr
        # i and t_ms of at most 18 digits decode on the canonical path, and a
        # CRLF end takes the JSON one
        fast = 0 if crlf else sum(t < 10 ** 18 for t in times)
        assert (decoders["canonical"], decoders["json"]) == (fast, len(toks) - fast)

    canonical()


def test_parsed_events_are_frozen_and_equal_constructed_ones():
    tr = parse_transcript(lines(HEADER, '{"i":0,"tok":"a","t_ms":5}',
                                '{"i":1,"tok":"b","t_ms":9,"final":true}'))
    built = (TokenEvent(0, "a", 5), TokenEvent(1, "b", 9, is_final=True))
    assert tr.events == built
    for ev, want in zip(tr.events, built):
        assert type(ev) is TokenEvent
        assert (hash(ev), repr(ev)) == (hash(want), repr(want))
        with pytest.raises(FrozenInstanceError):
            ev.index = 7  # type: ignore[misc]
        with pytest.raises(FrozenInstanceError):
            ev.is_final = True  # type: ignore[misc]
    assert tr.events[1].is_final is True and tr.events[0].is_final is False


def test_transcript_from_tokens_builder():
    tr = transcript_from_tokens(["a", "b"], reference=["x"])
    assert tr.tokens() == ("a", "b")
    assert tr.events[1].is_final
    with pytest.raises(ValueError):
        transcript_from_tokens([])


def test_engine_config_defaults_ok():
    assert EngineConfig() == EngineConfig(4, 3, 0.05, 0.9, 8, 2.0, 16)


def _violations(**fields) -> list[str]:
    with pytest.raises(ValueError) as exc:
        EngineConfig(**fields)
    msg = str(exc.value)
    assert msg.startswith("invalid config: ")
    return msg[len("invalid config: "):].split("; ")


def test_engine_config_reports_all_violations():
    assert "epsilon < tau" in _violations(epsilon=0.95, tau=0.9)
    assert "k >= 1" in _violations(k=0)
    bad = _violations(k=0, d=0, epsilon=-1, drift_ratio=1.0)
    assert {"k >= 1", "d >= 1", "epsilon > 0", "drift_ratio > 1"} <= set(bad)


def test_engine_config_checks_types():
    bad = _violations(k=1.5, d=True, epsilon="0.1", tau=float("nan"))
    assert bad == ["k must be an integer, not 1.5", "d must be an integer, not True",
                   "epsilon must be a number, not '0.1'", "tau <= 1"]
    assert EngineConfig(tau=1, drift_ratio=3).drift_ratio == 3


def test_config_from_json():
    cfg = config_from_json('{"k": 2, "tau": 0.8}')
    assert cfg.k == 2 and cfg.tau == 0.8 and cfg.d == 3
    with pytest.raises(ValueError):
        config_from_json('{"bogus": 1}')
    with pytest.raises(ValueError):
        config_from_json('[1]')

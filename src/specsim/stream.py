"""Token stream model: events, transcripts, contexts and engine configuration.

Transcripts replace live speech recognition: they carry pre-tokenized source
tokens with logical millisecond timestamps, so replays are deterministic and
never read the wall clock. All types here are immutable after construction
and safe to share across threads.

Loading transcripts is most of a replay's set-up, so `parse_transcript`
walks the text in place. A record line in the form `serialize_transcript`
writes decodes with one regular-expression match and builds no dict; any
other line is decoded as JSON, and both feed the same checks.
"""

from __future__ import annotations

import json
import json.scanner
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class TranscriptError(ValueError):
    """Base class for transcript validation failures."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedRecord(TranscriptError):
    pass


class NonMonotonicTime(TranscriptError):
    pass


class IndexGap(TranscriptError):
    pass


class MissingFinalMarker(TranscriptError):
    def __init__(self):
        super().__init__("no event carries the end-of-utterance marker")


@dataclass(frozen=True, slots=True)
class TokenEvent:
    """One timestamped source token from the (simulated) transcription stream."""

    index: int
    surface: str
    t_ms: int
    is_final: bool = False


@dataclass(frozen=True, slots=True)
class Transcript:
    """One utterance: ordered token events plus an optional scoring reference."""

    source_lang: str
    target_lang: str
    events: tuple[TokenEvent, ...]
    reference: tuple[str, ...] | None = None

    def tokens(self) -> tuple[str, ...]:
        return tuple(ev.surface for ev in self.events)


@dataclass(frozen=True, slots=True)
class ContextDoc:
    """Pre-loaded topical context handed to prediction backends."""

    id: str
    body: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Engine knobs, checked on construction: ints are int (not bool), the
    float fields are int or float, and every field lies in its legal range;
    anything else raises one ValueError listing every violation."""

    k: int = 4                 # max named children per expansion
    d: int = 3                 # max tree depth in expansion rounds
    epsilon: float = 0.05      # prune threshold on path probability
    tau: float = 0.9           # commit mass threshold
    buffer_limit: int = 8      # max buffered events before catch-up
    drift_ratio: float = 2.0   # perplexity ratio triggering a context shift
    drift_window: int = 16     # tokens per drift check

    def __post_init__(self):
        bad, num = [], {}
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            integral = name in ("k", "d", "buffer_limit", "drift_window")
            if isinstance(v, bool) or not isinstance(v, int if integral else (int, float)):
                bad.append(f"{name} must be {'an integer' if integral else 'a number'}, "
                           f"not {v!r}")
            elif not integral:
                num[name] = v
            elif v < 1:
                bad.append(f"{name} >= 1")
        eps, tau, ratio = (num.get(n) for n in ("epsilon", "tau", "drift_ratio"))
        # each range is checked where its fields are numbers; NaN fails all
        if eps is not None and not 0 < eps:
            bad.append("epsilon > 0")
        if eps is not None and tau is not None and not eps < tau:
            bad.append("epsilon < tau")
        if tau is not None and not tau <= 1:
            bad.append("tau <= 1")
        if ratio is not None and not ratio > 1:
            bad.append("drift_ratio > 1")
        if bad:
            raise ValueError("invalid config: " + "; ".join(bad))


def config_from_json(text: str) -> EngineConfig:
    """Parse a JSON object whose keys mirror EngineConfig field names."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("config JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    known = set(EngineConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return EngineConfig(**data)


# JSONDecoder.decode runs this scanner behind two Python-level wrappers
# (raw_decode, and a regex for the whitespace on either side); scanning the
# stripped line directly takes about half the time per record, and accepts
# and refuses the same lines. The scanner clears its memo after every call.
_scan = json.scanner.make_scanner(json.JSONDecoder())


def _record(raw: str, lineno: int, invalid: str):
    """The one JSON value on a line, between JSON whitespace; anything else
    on the line (no value, a second value, trailing text) is refused, as is
    an integer longer than int() converts (a bare ValueError)."""
    text = raw.strip(" \t\r\n")
    try:
        value, end = _scan(text, 0)
    except (StopIteration, ValueError):  # JSONDecodeError is a ValueError
        raise MalformedRecord(invalid, lineno) from None
    except RecursionError:
        raise MalformedRecord("JSON is nested too deeply", lineno) from None
    if end != len(text):
        raise MalformedRecord(invalid, lineno)
    return value


def _fields(rec: dict, lineno: int) -> tuple[int, str, int, bool]:
    """(i, tok, t_ms, final) of a decoded record, checked in that order."""
    try:
        idx, tok, t_ms = rec["i"], rec["tok"], rec["t_ms"]
    except KeyError as missing:
        raise MalformedRecord(f"missing field {missing}", lineno) from None
    # JSON decodes numbers to exact int (or float) and true/false to bool,
    # an int subclass that the exact type test refuses.
    if type(idx) is not int or type(tok) is not str or type(t_ms) is not int:
        raise MalformedRecord("field types must be i:int tok:str t_ms:int", lineno)
    if not tok:
        raise MalformedRecord("empty token", lineno)
    is_final = rec.get("final", False)
    if type(is_final) is not bool:
        raise MalformedRecord("final must be true or false", lineno)
    return idx, tok, t_ms, is_final


# A record line exactly as serialize_transcript writes it (json.dumps with
# its default separators), up to and including the line feed that ends it:
# a token with no character json.dumps escapes, and i and t_ms of at most
# 18 digits, which int() converts without a digit limit. Such a line is one
# valid JSON object whose fields pass every check _fields makes.
_CANONICAL = re.compile(
    r'\{"i": (0|[1-9][0-9]{0,17}), "tok": "([^"\\\x00-\x1f]+)", '
    r'"t_ms": (0|[1-9][0-9]{0,17})(, "final": true)?\}(?:\n|\Z)')


# The frozen __init__ sets each field through object.__setattr__; the slot
# descriptors set them directly, in about half the time per event.
# parse_transcript builds each TokenEvent with them, from checked fields.
_set_index, _set_surface, _set_t_ms, _set_final = (
    TokenEvent.__dict__[name].__set__ for name in ("index", "surface", "t_ms", "is_final"))


def parse_transcript(text: str) -> Transcript:
    """Parse the line-delimited JSON transcript format.

    First line is the header {"src":..,"tgt":..,"ref":[..]} (ref optional, a
    list of non-empty tokens); every following line is {"i":..,"tok":..,
    "t_ms":..} with integer (not boolean) i and t_ms, and "final":true on the
    last event only ("final", when present, must be a JSON boolean).

    Records end at a line feed only. A carriage return before it is JSON
    whitespace, so CRLF files parse alike; a lone carriage return, U+0085,
    U+2028 and U+2029 (which JSON writes unescaped inside a string) do not
    end a record. A record line holds one JSON value and nothing else but
    JSON whitespace.

    The records are read in place, one line after the other, with no list
    of lines. A line in the exact form serialize_transcript writes (see
    _CANONICAL) is decoded by one regular-expression match; every other
    line, from other spacing or key order to an escape, a CRLF end or
    invalid JSON, is decoded as JSON. Both decoders feed the same final
    marker, index and time checks, so they accept and refuse alike.

    Each check raises at the first failure, in the order written; on a valid
    record no exception object is built.
    """
    n = len(text)
    end = text.find("\n")
    if end < 0:
        end = n
    first = text[:end]
    if not first.strip():
        raise MalformedRecord("missing header line", 1)
    header = _record(first, 1, "header is not valid JSON")
    if not isinstance(header, dict) or "src" not in header or "tgt" not in header:
        raise MalformedRecord("header must carry src and tgt", 1)
    src, tgt = header["src"], header["tgt"]
    if not isinstance(src, str) or not src or not isinstance(tgt, str) or not tgt:
        raise MalformedRecord("language tags must be non-empty strings", 1)
    ref = header.get("ref")
    if ref is not None:
        if not isinstance(ref, list) or not all(isinstance(t, str) and t for t in ref):
            raise MalformedRecord("ref must be a list of tokens", 1)
        ref = tuple(ref)

    events: list[TokenEvent] = []
    final_seen = False
    last_t = 0
    lineno = 1
    pos = end + 1
    match, new = _CANONICAL.match, object.__new__
    while pos < n:
        lineno += 1
        m = match(text, pos)  # anchored at pos: the line's start
        if m is None:
            end = text.find("\n", pos)
            if end < 0:
                end = n
            raw, pos = text[pos:end], end + 1
            if not raw.strip():
                continue
            rec = _record(raw, lineno, "not valid JSON")
            if not isinstance(rec, dict):
                raise MalformedRecord("record must be a JSON object", lineno)
        if final_seen:
            raise MalformedRecord("event after final marker", lineno)
        if m is None:
            idx, tok, t_ms, is_final = _fields(rec, lineno)
        else:
            pos = m.end()
            idx, tok, t_ms, is_final = m.groups()
            idx, t_ms, is_final = int(idx), int(t_ms), is_final is not None
        if idx != len(events):
            raise IndexGap(f"expected index {len(events)}, got {idx}", lineno)
        if events and t_ms < last_t:
            raise NonMonotonicTime(f"t_ms {t_ms} < {last_t}", lineno)
        ev = new(TokenEvent)
        _set_index(ev, idx)
        _set_surface(ev, tok)
        _set_t_ms(ev, t_ms)
        _set_final(ev, is_final)
        events.append(ev)
        final_seen, last_t = is_final, t_ms
    if not events or not final_seen:
        raise MissingFinalMarker()
    return Transcript(src, tgt, tuple(events), ref)


def serialize_transcript(tr: Transcript) -> str:
    """Inverse of parse_transcript (canonical key order, UTF-8 friendly)."""
    header: dict = {"src": tr.source_lang, "tgt": tr.target_lang}
    if tr.reference is not None:
        header["ref"] = list(tr.reference)
    out = [json.dumps(header, ensure_ascii=False)]
    for ev in tr.events:
        rec: dict = {"i": ev.index, "tok": ev.surface, "t_ms": ev.t_ms}
        if ev.is_final:
            rec["final"] = True
        out.append(json.dumps(rec, ensure_ascii=False))
    return "\n".join(out) + "\n"


def transcript_from_tokens(tokens: Sequence[str], source_lang: str = "ja",
                           target_lang: str = "en",
                           reference: Iterable[str] | None = None,
                           step_ms: int = 100) -> Transcript:
    """Convenience builder: evenly spaced events, final marker on the last."""
    if not tokens:
        raise ValueError("at least one token required")
    events = tuple(
        TokenEvent(i, tok, i * step_ms, is_final=(i == len(tokens) - 1))
        for i, tok in enumerate(tokens)
    )
    ref = tuple(reference) if reference is not None else None
    return Transcript(source_lang, target_lang, events, ref)

"""Continuation prediction backends: scripted fixtures, n-gram, remote HTTP.

A backend maps (context, observed source prefix, k) to a tuple of at most k
full-continuation hypotheses with probabilities and target translations,
ranked p descending, or raises NoPrediction. The session checks every tuple
with check_predictions before build_tree or expand sees it, so a backend's
bug surfaces as a ValueError naming it. The residual mass, 1 - sum of p
(residual_mass), models the continuations the backend did not enumerate.
Predict calls are deterministic. The scripted and remote backends are
immutable after construction. NgramBackend keeps no per-stream state, only a
memo of ranked continuations and their translated tails that changes its
speed but never its results, so one instance serves any number of sessions.
"""

from __future__ import annotations

import json
import math
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Protocol, Sequence
from urllib.parse import urlsplit

from .ngram import END, NgramModel
from .phrases import PhraseTable, settled_translation, split_prefix, translate
from .stream import ContextDoc

_EPS = 1e-9
_FLOAT_MAX = sys.float_info.max  # a larger int p would overflow float()


class NoPrediction(Exception):
    """The backend has nothing for this prefix; callers treat it as residual mass 1."""


@dataclass(frozen=True, slots=True)
class Prediction:
    """One hypothetical continuation of the source, with its translation.

    A continuation that runs to utterance end carries the internal end
    symbol as its last token; a continuation without it was truncated at the
    prediction horizon and may be extended later.
    """

    continuation: tuple[str, ...]
    p: float
    translation: tuple[str, ...]


# The frozen __init__ sets each field through object.__setattr__; the slot
# descriptors set them directly, in about half the time per prediction.
_set_continuation, _set_p, _set_translation = (
    Prediction.__dict__[name].__set__ for name in ("continuation", "p", "translation"))


def _malformed(pr: object) -> str | None:
    """Why pr is not a Prediction with p in (0, 1], a non-empty tuple of
    non-empty str tokens as its continuation and a tuple translation; None
    when it is one."""
    if not isinstance(pr, Prediction):
        return f"{pr!r} is not a Prediction"
    cont = pr.continuation
    try:  # NaN fails the range; join raises TypeError on a token not a str
        if (0 < pr.p <= 1 and isinstance(cont, tuple) and "" not in cont
                and "".join(cont) and isinstance(pr.translation, tuple)):
            return None
    except TypeError:
        pass
    return (f"prediction with probability {pr.p!r} and continuation {cont!r}: "
            f"needs p in (0, 1], a non-empty tuple of non-empty str tokens "
            f"and a tuple translation")


def prediction_set(items: Iterable[Prediction]) -> tuple[Prediction, ...]:
    """Check items and rank them: p descending, ties lexicographic.

    ValueError unless every p lies in (0, 1], every continuation is a
    non-empty tuple of non-empty str tokens, every translation a tuple and
    the p sum to at most 1 + 1e-9: the rule check_predictions applies. The
    tokens of translations, as long as the utterance, are checked by the
    JSON loaders only, so a set costs O(k * horizon)."""
    items = tuple(items)
    for pr in items:  # before sorting, which compares the tokens
        if (why := _malformed(pr)) is not None:
            raise ValueError(why)
    ranked = tuple(sorted(items, key=lambda pr: (-pr.p, pr.continuation)))
    total = math.fsum(pr.p for pr in ranked)
    if total > 1 + _EPS:
        raise ValueError(f"probabilities sum to {total:.6f} > 1")
    return ranked


def check_predictions(backend: object, ranked: object, k: int) -> tuple[Prediction, ...]:
    """A backend's predict result, checked where it becomes tree mass.

    ValueError, naming the backend's class, unless `ranked` is a tuple of at
    most k predictions, each with p in (0, 1], a non-empty tuple of non-empty
    str tokens as its continuation and a tuple translation, whose p sum to at
    most 1 + 1e-9. O(k); the order is not checked, and the tree reads it only
    to render siblings."""
    name = type(backend).__name__
    if not isinstance(ranked, tuple):
        raise ValueError(f"{name}.predict returned a {type(ranked).__name__}, "
                         f"not a tuple of predictions")
    if len(ranked) > k:
        raise ValueError(f"{name}.predict returned {len(ranked)} predictions, "
                         f"more than k={k}")
    for pr in ranked:
        if (why := _malformed(pr)) is not None:
            raise ValueError(f"{name}.predict: {why}")
    total = math.fsum(pr.p for pr in ranked)
    if total > 1 + _EPS:
        raise ValueError(f"{name}.predict: probabilities sum to {total!r} > 1")
    return ranked


def residual_mass(predictions: Iterable[Prediction]) -> float:
    """1 - the sum of p: the mass of every continuation not named, never
    below 0 (check_predictions lets the p sum to 1 + 1e-9)."""
    return max(1.0 - math.fsum(pr.p for pr in predictions), 0.0)


class Backend(Protocol):
    """predict returns a tuple of at most k predictions, ranked p descending,
    that check_predictions accepts, or raises NoPrediction."""

    def predict(self, context: ContextDoc, prefix: Sequence[str],
                k: int) -> tuple[Prediction, ...]: ...


class ScriptedBackend:
    """Deterministic test backend: exact (context id, prefix) -> the ranked
    tuple prediction_set builds from the entry's predictions, cut to k."""

    def __init__(self, entries: Mapping[tuple[str, tuple[str, ...]], Iterable[Prediction]]):
        self.entries: dict[tuple[str, tuple[str, ...]], tuple[Prediction, ...]] = {}
        for (cid, prefix), items in entries.items():
            try:
                self.entries[cid, prefix] = prediction_set(items)
            except ValueError as exc:
                where = f"context {cid!r}, prefix {' '.join(prefix) or '<empty>'}"
                raise ValueError(f"{where}: {exc}") from None

    @property
    def context_ids(self) -> list[str]:
        return sorted({cid for cid, _ in self.entries})

    def predict(self, context: ContextDoc, prefix: Sequence[str],
                k: int) -> tuple[Prediction, ...]:
        ranked = self.entries.get((context.id, tuple(prefix)))
        if ranked is None:
            raise NoPrediction(f"no entry for context {context.id!r}, "
                               f"prefix of {len(prefix)} tokens")
        return ranked[:k]


def _is_token_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) and t for t in value)


def _prediction(item: object) -> Prediction:
    """One {"cont", "p", "tr"} record: a list cont, a list tr of non-empty
    strings and a numeric p that fits a float, else ValueError. The values of
    p and cont are prediction_set's to check."""
    if not isinstance(item, dict) or not {"cont", "p", "tr"} <= item.keys():
        raise ValueError(f'item {item!r} needs "cont", "p" and "tr"')
    cont, p, tr = item["cont"], item["p"], item["tr"]
    if not (isinstance(cont, list) and _is_token_list(tr)):
        raise ValueError(f"bad tokens in item {item!r}")
    # NaN and the infinities are not JSON numbers; a larger int overflows float()
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not abs(p) <= _FLOAT_MAX:
        raise ValueError(f"bad probability in item {item!r}")
    return Prediction(tuple(cont), float(p), tuple(tr))


def load_scripted_fixture(text: str) -> ScriptedBackend:
    """Fixture file: {"contexts": {id: [{"prefix": [...], "items": [...]}, ...]}}.

    Each item is {"cont": [...tokens...], "p": float, "tr": [...tokens...]};
    a continuation ending with "</s>" marks an utterance-end hypothesis. Every
    p lies in (0, 1] and each prefix's items sum to at most 1 (ScriptedBackend
    checks both); any other shape raises ValueError.
    """
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("fixture JSON is nested too deeply") from None
    contexts = data.get("contexts") if isinstance(data, dict) else None
    if not isinstance(contexts, dict):
        raise ValueError('fixture must carry a "contexts" object')
    entries: dict[tuple[str, tuple[str, ...]], list[Prediction]] = {}
    for cid, recs in contexts.items():
        if not isinstance(recs, list):
            raise ValueError(f"context {cid!r} must hold a list of entries")
        for rec in recs:
            if not (isinstance(rec, dict) and _is_token_list(rec.get("prefix"))
                    and isinstance(rec.get("items", []), list)):
                raise ValueError(f"context {cid!r}: entry {rec!r} needs a token "
                                 f'list "prefix" and a list "items"')
            key = (cid, tuple(rec["prefix"]))
            if key in entries:
                raise ValueError(f"duplicate fixture entry for context {cid!r}, "
                                 f"prefix {' '.join(key[1]) or '<empty>'}")
            entries[key] = [_prediction(it) for it in rec.get("items", [])]
    return ScriptedBackend(entries)


# Bound on NgramBackend's LRU continuation memo. An entry holds one ranked tuple
# of at most k hypotheses and at most `order` lists of their translated tails.
# A `sentences` benchmark round (seed 1, warm-up included) fills 1,079 entries
# and `monologue` 133, so the cap evicts only under many more distinct
# histories, as unknown tokens make.
ENUM_CACHE_SIZE = 4096


class NgramBackend:
    """n-gram continuation search plus phrase-table translation of hypotheses.

    Continuation search depends only on the last order-1 prefix tokens and is
    memoized on them (at most ENUM_CACHE_SIZE entries, least recently used
    evicted); the memo is all the state the backend keeps. Its model and its
    table never change once built, so a memoised answer is the answer a cold
    search would give, for as long as the backend lives. An entry holds the
    tuple the search gave, already ranked by (-p, continuation), less the
    hypotheses whose p underflowed to 0, and the translated tails of its
    hypotheses: the translation of the stream's pending tokens plus the
    hypothesis, keyed by those pending tokens. A truncated hypothesis (no end
    marker) may go on, so its tail is only the settled_translation part,
    which no later source token can change. Tails are kept only for fewer
    than `order` pending tokens, which are then a suffix of the entry's
    history, so an entry holds at most `order` tail lists.

    split_prefix gives the prefix's committed translation and its pending
    tokens: from the caller's stream in O(new tokens) when the prefix is a
    current PrefixView over this backend's own table (a session's
    re-prediction), else from scratch in O(len(prefix)). A hypothesis's
    translation is the committed tuple plus its tail, so with the tails kept
    a predict then costs O(k * |translation|) for those concatenations;
    otherwise each tail is translated too.
    """

    def __init__(self, model: NgramModel, table: PhraseTable, max_len: int = 12):
        if isinstance(max_len, bool) or not isinstance(max_len, int) or max_len < 1:
            raise ValueError(f"max_len must be an integer >= 1, not {max_len!r}")
        self.model = model
        self.table = table
        self.max_len = max_len
        # key -> (ranked tuple with empty translations, {pending tokens: tails})
        self._enum_cache: OrderedDict[tuple, tuple[
            tuple[Prediction, ...], dict[tuple[str, ...], tuple]]] = OrderedDict()

    def predict(self, context: ContextDoc, prefix: Sequence[str],
                k: int) -> tuple[Prediction, ...]:
        key = (self.model.history(prefix), k)
        cache = self._enum_cache
        entry = cache.get(key)
        if entry is None:
            # ranked by (-p, continuation) already; a product of tiny
            # conditionals can underflow to p = 0: drop it
            ranked = tuple(Prediction(cont, p, ()) for cont, p in
                           self.model.continuations(prefix, k, self.max_len) if p > 0)
            entry = cache[key] = (ranked, {})
            if len(cache) > ENUM_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        ranked, tails_by_pending = entry
        out, pending = split_prefix(self.table, prefix)
        tails = tails_by_pending.get(pending)
        if tails is None:
            tails = tuple(translate(self.table, pending + pr.continuation[:-1])
                          if pr.continuation[-1] == END else
                          settled_translation(self.table, pending + pr.continuation)
                          for pr in ranked)
            if len(pending) < self.model.order:
                tails_by_pending[pending] = tails
        built = []  # Prediction(pr.continuation, pr.p, out + tail) for each
        for pr, tail in zip(ranked, tails):
            hyp = object.__new__(Prediction)
            _set_continuation(hyp, pr.continuation)
            _set_p(hyp, pr.p)
            _set_translation(hyp, out + tail)
            built.append(hyp)
        return tuple(built)

    def perplexity(self, window: Sequence[str]) -> float:
        return self.model.perplexity(window)


# A transport POSTs the payload to the URL, waiting at most the timeout in
# seconds, and returns the reply's status and body. It raises OSError for
# every failed exchange: no connection, a timeout, or a reply that is not HTTP.
Transport = Callable[[str, bytes, float], tuple[int, bytes]]


def _http_post(url: str, payload: bytes, timeout_s: float) -> tuple[int, bytes]:
    # imported on first use: urllib.request loads ssl and http.client, which
    # every session without a remote backend would carry for nothing
    import http.client
    import urllib.request

    req = urllib.request.Request(url, data=payload,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout_s) as resp:
            return resp.status, resp.read()
    except http.client.HTTPException as exc:  # BadStatusLine, IncompleteRead
        raise OSError(f"bad HTTP reply: {exc!r}") from exc


def _check_endpoint(endpoint: str) -> None:
    """Refuse what is not an http or https URL with a host and, if it names
    one, a port from 1 to 65535."""
    ok = isinstance(endpoint, str)
    if ok:
        try:
            parts = urlsplit(endpoint)
            ok = (parts.scheme in ("http", "https") and bool(parts.hostname)
                  and parts.port != 0)  # .port raises for a bad port
        except ValueError:
            ok = False
    if not ok:
        raise ValueError(f"endpoint must be an http or https URL with a host "
                         f"and a valid port, not {endpoint!r}")


class RemoteBackend:
    """HTTP predictor: POST {"context_id", "prefix", "k"} to <endpoint>/predict.

    Any transport failure, timeout or malformed response surfaces as
    NoPrediction; the engine then falls back to residual mass 1. The
    endpoint and timeout_ms are checked here, so a bad one fails at
    construction rather than on every request.
    """

    def __init__(self, endpoint: str, timeout_ms: float = 1000,
                 transport: Transport = _http_post):
        _check_endpoint(endpoint)
        if (isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float))
                or not 0 < timeout_ms < math.inf):
            raise ValueError(f"timeout_ms must be a finite number above 0, "
                             f"not {timeout_ms!r}")
        self.url = endpoint.rstrip("/") + "/predict"
        self.timeout_ms = timeout_ms
        self._transport = transport

    def predict(self, context: ContextDoc, prefix: Sequence[str],
                k: int) -> tuple[Prediction, ...]:
        body = {"context_id": context.id, "prefix": list(prefix), "k": k}
        payload = json.dumps(body, ensure_ascii=False).encode("utf-8")
        try:
            status, raw = self._transport(self.url, payload, self.timeout_ms / 1000.0)
        except OSError as exc:  # URLError and TimeoutError among them
            raise NoPrediction(f"unreachable: {exc}") from exc
        if status != 200:
            raise NoPrediction(f"status {status}")
        try:  # a rescale can underflow a p to 0, which prediction_set refuses
            return prediction_set(self._parse(raw))[:k]
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise NoPrediction(f"malformed response: {exc}") from exc

    @staticmethod
    def _parse(raw: bytes) -> list[Prediction]:
        data = json.loads(raw.decode("utf-8"))
        preds = [_prediction(it) for it in data["items"]]
        total = math.fsum(pr.p for pr in preds)
        if total > 1.0:  # remote overshoot: rescale proportionally
            preds = [Prediction(pr.continuation, pr.p / total, pr.translation)
                     for pr in preds]
        return preds

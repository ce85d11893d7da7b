"""Independent brute-force oracles the implementation is checked against.

Everything here recomputes expected values from first principles (exhaustive
enumeration, quadratic scans, classic DP, the engine's loop without its
skips) without touching the code paths under test.
"""

from __future__ import annotations

import itertools
import json
import math

from specsim.engine import OutputEvent, Session
from specsim.ngram import BACKOFF_FACTOR, END, START, EmptyCorpus, NgramModel
from specsim.predictor import NgramBackend
from specsim.stream import (IndexGap, MalformedRecord, MissingFinalMarker,
                            NonMonotonicTime, TokenEvent, Transcript)
from specsim.template import TargetTemplate, consensus
from specsim.tree import advance, expand, expandable_leaves, leaf_hypotheses, prune


def classic_levenshtein(a, b) -> int:
    """Full O(nm) DP, no banding."""
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j - 1] + cost, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[n]


def consensus_oracle(hyps, tau) -> TargetTemplate:
    """Quadratic position-by-position scan over the tau-mass cover; a cover
    with a member that is not terminal commits its common prefix only."""
    cover = []
    cum = 0.0
    for toks, mass, terminal in hyps:
        cover.append((list(toks), terminal))
        cum += mass
        if cum >= tau - 1e-9:
            break
    else:
        return TargetTemplate((), ())
    ends = all(terminal for _, terminal in cover)
    cover = [h for h, _ in cover]
    shortest = min(len(h) for h in cover)
    p = 0
    while p < shortest and all(h[p] == cover[0][p] for h in cover):
        p += 1
    if not ends:
        return TargetTemplate(tuple(cover[0][:p]), ())
    if all(h == cover[0] for h in cover):
        return TargetTemplate(tuple(cover[0]))
    s = 0
    while s < shortest and all(h[len(h) - 1 - s] == cover[0][len(cover[0]) - 1 - s]
                               for h in cover):
        s += 1
    if p + s > shortest:
        s = shortest - p
    first = cover[0]
    return TargetTemplate(tuple(first[:p]), tuple(first[len(first) - s:]))


class MemolessNgramBackend:
    """An NgramBackend's predictions without its memo or the caller's
    stream: every call searches a fresh backend from a tuple prefix."""

    def __init__(self, backend: NgramBackend):
        self.model, self.table, self.max_len = backend.model, backend.table, backend.max_len

    def predict(self, context, prefix, k):
        fresh = NgramBackend(self.model, self.table, self.max_len)
        return fresh.predict(context, tuple(prefix), k)

    def perplexity(self, window):
        return self.model.perplexity(window)


class ReferenceSession(Session):
    """The paper's loop with no skip, the executable spec of the engine's.

    Each hit tick expands every expandable leaf of a fresh walk, from a
    tuple of the observed prefix, and prunes. A commit runs consensus,
    refine and emission in full whenever the named leaves differ from the
    last commit's on this tree. An n-gram backend loses its memo and stream.
    `expansions` counts the leaves expanded."""

    def __init__(self, config, context, backend, table):
        if isinstance(backend, NgramBackend):
            backend = MemolessNgramBackend(backend)
        self.expansions = 0
        super().__init__(config, context, backend, table)

    def _new_tree(self):
        super()._new_tree()
        self._committed = None  # a new tree always commits

    def _process(self, ev):
        token, t_ms = ev.surface, ev.t_ms
        self.observed.append(token)
        cfg = self.config
        if advance(self.tree, token).diverged:
            self.events.append(OutputEvent("diverge", t_ms))
            self.events.append(OutputEvent("repredict", t_ms))
            self._new_tree()
        else:
            for leaf in expandable_leaves(list(self.tree.leaves()), cfg.d):
                self.expansions += expand(self.tree, leaf,
                                          self._ranked(tuple(self.observed)))
            prune(self.tree, cfg.epsilon)
        hyps = leaf_hypotheses(self.tree)
        if hyps != self._committed:
            self._committed = hyps
            self._refine(consensus(hyps, cfg.tau), t_ms)
            self._emit(t_ms)
        self._drift_check(t_ms)


def tree_state(tree):
    """Every node of the tree in walk order, as the engine can see it."""
    return [(n.is_other, n.edge, n.edge_pos, n.path_p, n.translation, n.terminal,
             len(n.children)) for n in tree.walk()]


def total_mass(tree) -> float:
    """The leaves' mass, correctly rounded."""
    return math.fsum(n.path_p for n in tree.leaves())


def train_ngram_oracle(corpus, order, alpha=0.1) -> NgramModel:
    """Token-by-token counting: every history of every token of every
    start-padded, END-terminated sentence, one increment each."""
    if not corpus:
        raise EmptyCorpus("no sentences in corpus")
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    vocab: set[str] = set()
    for n, sent in enumerate(corpus, start=1):
        clash = {START, END}.intersection(sent)
        if clash:
            raise ValueError(f"sentence {n} holds the reserved symbol {min(clash)}")
        vocab.update(sent)
        seq = [START] * (order - 1) + list(sent) + [END]
        for i in range(order - 1, len(seq)):
            nxt = seq[i]
            for ell in range(order):
                hist = tuple(seq[i - ell:i])
                row = counts.setdefault(hist, {})
                row[nxt] = row.get(nxt, 0) + 1
    return NgramModel(order, alpha, vocab, counts)


def conditional_oracle(model, history, token) -> float:
    """Smoothed P(token | history) straight from the counts: the last
    order - 1 tokens, backed off while unseen, then additive alpha."""
    hist = tuple(history)[-(model.order - 1):] if model.order > 1 else ()
    factor = 1.0
    while hist and hist not in model.counts:
        hist = hist[1:]
        factor *= BACKOFF_FACTOR
    row = model.counts.get(hist, {})
    c = row.get(token, 0)
    return factor * (c + model.alpha) / (sum(row.values()) + model.alpha * len(model.vocab))


def perplexity_oracle(model, window) -> float:
    """exp of the mean negative log conditional_oracle; inf where a
    conditional is 0 or the exp overflows."""
    total = 0.0
    for i, tok in enumerate(window):
        p = conditional_oracle(model, window[:i], tok)
        total += math.log(p) if p else -math.inf
    try:
        return math.exp(-total / len(window))
    except OverflowError:
        return math.inf


def enumerate_continuations(model, prefix, k, max_len):
    """Exhaustive enumeration over every legal continuation (END only last)."""
    results = []
    inner = [t for t in model.vocab if t != END]

    def prob(cont):
        p = 1.0
        base = ["<s>"] * max(0, model.order - 1 - len(prefix)) + list(prefix)
        seq = base + list(cont)
        for i in range(len(base), len(seq)):
            p *= conditional_oracle(model, seq[:i], seq[i])
        return p

    for length in range(1, max_len + 1):
        if length < max_len:
            # must end with END (otherwise it would have been extended)
            for body in itertools.product(inner, repeat=length - 1):
                cont = body + (END,)
                results.append((cont, prob(cont)))
        else:
            for body in itertools.product(inner, repeat=length - 1):
                cont = body + (END,)
                results.append((cont, prob(cont)))
                for last in inner:
                    cont2 = body + (last,)
                    results.append((cont2, prob(cont2)))
    results.sort(key=lambda item: (-item[1], item[0]))
    return results[:k]


def translate_oracle(entries, source):
    """Longest-match-leftmost by trying every span length at every position."""
    out = []
    pos = 0
    while pos < len(source):
        best = None
        for ln in range(len(source) - pos, 0, -1):
            key = tuple(source[pos:pos + ln])
            if key in entries:
                best = key
                break
        if best is None:
            out.append(source[pos])
            pos += 1
        else:
            out.extend(entries[best])
            pos += len(best)
    return tuple(out)


def tree_survivor_oracle(tree, token):
    """Brute-force Bayes step over the current leaves.

    Children only hang under fully consumed nodes, so a leaf survives iff it
    is an other leaf, or a named leaf whose next unconsumed edge token equals
    the observed one. Returns (diverged, {id(leaf): posterior mass}).
    """
    survivors = {}
    for leaf in tree.leaves():
        if leaf.is_other:
            survivors[id(leaf)] = leaf.path_p
        elif leaf.edge_pos < len(leaf.edge) and leaf.edge[leaf.edge_pos] == token:
            survivors[id(leaf)] = leaf.path_p
    named = [leaf for leaf in tree.leaves()
             if not leaf.is_other and id(leaf) in survivors]
    if not named:
        return True, {}
    total = math.fsum(survivors.values())
    if abs(total - 1.0) <= 1e-12:
        return False, dict(survivors)
    return False, {key: mass / total for key, mass in survivors.items()}


def average_lagging_oracle(g, src_len):
    """Direct transcription of the published formula."""
    t = len(g)
    gamma = t / src_len
    tau = t
    for j in range(1, t + 1):
        if g[j - 1] == src_len:
            tau = j
            break
    return sum(g[j - 1] - (j - 1) / gamma for j in range(1, tau + 1)) / tau


_decode = json.JSONDecoder().decode


def _record_oracle(raw, lineno, invalid):
    try:
        return _decode(raw)
    except ValueError:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise MalformedRecord(invalid, lineno) from None
    except RecursionError:
        raise MalformedRecord("JSON is nested too deeply", lineno) from None


def parse_transcript_oracle(text):
    """The transcript parser built on JSONDecoder.decode, which strips the
    JSON whitespace around one value and refuses anything after it; every
    event goes through the TokenEvent constructor."""
    lines = text.split("\n")
    if not lines[0].strip():
        raise MalformedRecord("missing header line", 1)
    header = _record_oracle(lines[0], 1, "header is not valid JSON")
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

    events = []
    final_seen = False
    last_t = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        rec = _record_oracle(raw, lineno, "not valid JSON")
        if not isinstance(rec, dict):
            raise MalformedRecord("record must be a JSON object", lineno)
        if final_seen:
            raise MalformedRecord("event after final marker", lineno)
        try:
            idx, tok, t_ms = rec["i"], rec["tok"], rec["t_ms"]
        except KeyError as missing:
            raise MalformedRecord(f"missing field {missing}", lineno) from None
        if type(idx) is not int or type(tok) is not str or type(t_ms) is not int:
            raise MalformedRecord("field types must be i:int tok:str t_ms:int", lineno)
        if not tok:
            raise MalformedRecord("empty token", lineno)
        is_final = rec.get("final", False)
        if type(is_final) is not bool:
            raise MalformedRecord("final must be true or false", lineno)
        if idx != len(events):
            raise IndexGap(f"expected index {len(events)}, got {idx}", lineno)
        if events and t_ms < last_t:
            raise NonMonotonicTime(f"t_ms {t_ms} < {last_t}", lineno)
        events.append(TokenEvent(idx, tok, t_ms, is_final))
        final_seen, last_t = is_final, t_ms
    if not events or not final_seen:
        raise MissingFinalMarker()
    return Transcript(src, tgt, tuple(events), ref)

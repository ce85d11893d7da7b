"""Count-based n-gram language model with additive smoothing.

Desk-scale continuation predictor: additive-alpha smoothing over the full
vocabulary at the highest available order, dropping an order (scored with a
0.4 stupid-backoff factor) only when the queried history itself was never
seen. Counts and parameters are fixed after training; queries are
deterministic and change no result, but `conditional` and `continuations`
fill a memo of successor rows (`_rows`) as they are queried. The memo is
keyed on the counted history that backoff reaches and its factor, so it is
bounded by the model (at most `len(counts) * order` rows), not by the
histories asked about.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from collections import Counter
from typing import Iterable, Sequence

START = "<s>"
END = "</s>"

BACKOFF_FACTOR = 0.4


class EmptyCorpus(ValueError):
    pass


class NgramModel:
    """Raw occurrence counts for every history length up to order - 1.

    ValueError unless order is an int >= 1, alpha a finite number > 0, each
    vocab token a non-empty str other than START (the history padding), each
    counts history at most order - 1 tokens and each count an int >= 0 for a
    token in vocab or END (any other would take mass from the conditionals).
    No vocab or history token holds a space, which to_json joins them with;
    END may be in vocab, as to_json writes it.
    """

    def __init__(self, order: int, alpha: float, vocab: Iterable[str],
                 counts: dict[tuple[str, ...], dict[str, int]]):
        if isinstance(order, bool) or not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be an integer >= 1, not {order!r}")
        # NaN fails the range, and a larger int would overflow float arithmetic
        if (isinstance(alpha, bool) or not isinstance(alpha, (int, float))
                or not 0 < alpha <= sys.float_info.max):
            raise ValueError(f"alpha must be a finite number > 0, not {alpha!r}")
        vocab = tuple(vocab)
        if not all(isinstance(t, str) and t and " " not in t for t in vocab):
            raise ValueError("vocab tokens must be non-empty strings without a space")
        if START in vocab:
            raise ValueError(f"vocab may not hold the start symbol {START!r}")
        known = set(vocab) | {END}
        totals = {}
        for h, row in counts.items():
            if len(h) >= order or not all(isinstance(t, str) and " " not in t for t in h):
                raise ValueError(f"counts history {h!r} is longer than order - 1 = "
                                 f"{order - 1} or holds a token with a space")
            if not all(type(c) is int and c >= 0 for c in row.values()):
                raise ValueError(f"counts for history {h!r} must be integers >= 0")
            if not row.keys() <= known:
                raise ValueError(f"counts for history {h!r} name tokens outside "
                                 f"vocab: {sorted(row.keys() - known, key=repr)!r}")
            totals[h] = sum(row.values())
        self.order = order
        self.alpha = alpha
        self.vocab = tuple(sorted(known))
        self.counts = counts
        self.totals = totals
        self._rows: dict[tuple[tuple[str, ...], float],
                         tuple[dict[str, float], float]] = {}

    def __eq__(self, other) -> bool:
        return (isinstance(other, NgramModel)
                and self.order == other.order and self.alpha == other.alpha
                and self.vocab == other.vocab and self.counts == other.counts)

    def _effective_history(self, history: Sequence[str]) -> tuple[str, ...]:
        if self.order == 1:
            return ()
        return tuple(history[-(self.order - 1):])

    def history(self, prefix: Sequence[str]) -> tuple[str, ...]:
        """START-padded last order-1 tokens: all that continuations(prefix) reads."""
        n = self.order - 1
        tail = tuple(prefix[-n:]) if n else ()  # prefix[-0:] would be all of it
        return (START,) * (n - len(tail)) + tail

    def _backoff(self, hist: tuple[str, ...]) -> tuple[tuple[str, ...], float]:
        """Longest seen suffix of hist, and the backoff factor for reaching it."""
        factor = 1.0
        while hist and hist not in self.counts:
            hist = hist[1:]
            factor *= BACKOFF_FACTOR
        return hist, factor

    def conditional(self, history: Sequence[str], token: str) -> float:
        """Smoothed P(token | history); backoff applies only to unseen histories."""
        above, low = self._row(self._effective_history(history))
        return above.get(token, low)

    def _row(self, hist: tuple[str, ...]) -> tuple[dict[str, float], float]:
        """Successors of hist: {token: p} for the tokens counted after the
        history that backoff reaches whose p exceeds the uncounted p, and that
        uncounted p, which every other token gets (a zero count, or a count
        lost in c + alpha, computes the same float)."""
        key = self._backoff(hist)
        row = self._rows.get(key)
        if row is None:
            h, factor = key
            counted = self.counts.get(h, {})
            denom = self.totals.get(h, 0) + self.alpha * len(self.vocab)
            low = factor * self.alpha / denom
            above = {}
            for tok, c in counted.items():
                p = factor * (c + self.alpha) / denom
                if p > low:
                    above[tok] = p
            row = self._rows[key] = (above, low)
        return row

    def perplexity(self, window: Sequence[str]) -> float:
        """exp of the mean negative log conditional over the window; inf when
        a conditional underflows to 0 or the exp overflows (a tiny alpha). So
        an infinite window fires the drift check against a finite context
        body, and an infinite body never fires it (the ratio is 0 or NaN)."""
        if not window:
            raise ValueError("window must be non-empty")
        total = 0.0
        for i, tok in enumerate(window):
            p = self.conditional(window[:i], tok)
            total += math.log(p) if p else -math.inf
        try:
            return math.exp(-total / len(window))
        except OverflowError:
            return math.inf

    def continuations(self, prefix: Sequence[str], k: int,
                      max_len: int) -> list[tuple[tuple[str, ...], float]]:
        """Top-k continuations by best-first search over smoothed conditionals.

        A continuation ends with END (utterance end) or is truncated at
        max_len tokens; its probability is the product of step conditionals.
        Ties are broken lexicographically. Exact: every conditional is <= 1,
        so the first k completed states popped are the global top k.

        A popped state pushes every vocab token as a child. Most children are
        never popped, so a child carries its parent's history and works out
        its own only when popped; every uncounted child shares one product.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        vocab = self.vocab
        n = self.order - 1
        push, pop = heapq.heappush, heapq.heappop
        # (-p, continuation, history): the history is the parent's for every
        # state but the root. Continuations are unique, so no two keys tie.
        heap: list[tuple[float, tuple[str, ...], tuple[str, ...]]] = [
            (-1.0, (), self.history(prefix))]
        out: list[tuple[tuple[str, ...], float]] = []
        while heap and len(out) < k:
            neg_p, cont, hist = pop(heap)
            if cont:
                if cont[-1] == END or len(cont) == max_len:
                    out.append((cont, -neg_p))
                    continue
                if n:
                    hist = hist[1:] + cont[-1:]
            above, low = self._row(hist)
            neg_low = neg_p * low
            for tok in vocab:
                p = above.get(tok)
                push(heap, (neg_low if p is None else neg_p * p, cont + (tok,), hist))
        return out

    def to_json(self) -> str:
        data = {
            "order": self.order,
            "alpha": self.alpha,
            "vocab": list(self.vocab),
            "counts": {" ".join(h): dict(sorted(d.items()))
                       for h, d in sorted(self.counts.items())},
        }
        return json.dumps(data, ensure_ascii=False, sort_keys=True, indent=0) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "NgramModel":
        """Inverse of to_json; any other shape raises ValueError."""
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("model JSON is nested too deeply") from None
        fields = ("order", "alpha", "vocab", "counts")
        if not isinstance(data, dict) or not set(fields) <= data.keys():
            raise ValueError('model must be an object with "order", "alpha", '
                             '"vocab" and "counts"')
        order, alpha, vocab, raw = (data[f] for f in fields)
        if not isinstance(vocab, list):
            raise ValueError("vocab must be a list")
        if not (isinstance(raw, dict) and all(isinstance(row, dict) for row in raw.values())):
            raise ValueError("counts must be an object of objects")
        counts = {tuple(h.split(" ")) if h else (): row for h, row in raw.items()}
        return cls(order, alpha, vocab, counts)


def train_ngram(corpus: Sequence[Sequence[str]], order: int,
                alpha: float = 0.1) -> NgramModel:
    """Count-based training; sentences are start-padded and END-terminated.
    ValueError on a sentence that holds START or END itself, which the
    counts could not tell from the padding and the utterance end.

    The padding gives every token a full window of order tokens ending at
    it, and each shorter history of the token is a suffix of that window's
    first order - 1 tokens. So one Counter update per sentence counts its
    windows, and each history's counts are sums over the distinct windows.
    Taken in order of first occurrence, the windows also insert every
    history and row key in the order a token-by-token count would."""
    if not corpus:
        raise EmptyCorpus("no sentences in corpus")
    windows: Counter[tuple[str, ...]] = Counter()
    vocab: set[str] = set()
    for n, sent in enumerate(corpus, start=1):
        clash = {START, END}.intersection(sent)
        if clash:
            raise ValueError(f"sentence {n} holds the reserved symbol {min(clash)}")
        vocab.update(sent)
        seq = (START,) * (order - 1) + tuple(sent) + (END,)
        windows.update(zip(*(seq[i:] for i in range(order))))
    counts: dict[tuple[str, ...], dict[str, int]] = {}
    last = order - 1
    for window, c in windows.items():
        nxt = window[last]
        for ell in range(order):
            row = counts.setdefault(window[last - ell:last], {})
            row[nxt] = row.get(nxt, 0) + c
    return NgramModel(order, alpha, vocab, counts)


def parse_corpus(text: str) -> list[list[str]]:
    """One sentence of tokens per line (lines end at "\n" only); blank lines skipped."""
    return [line.split() for line in text.split("\n") if line.strip()]

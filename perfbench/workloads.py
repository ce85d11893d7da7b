"""Seeded workload generators for the replay benchmark.

Each generator returns only what the program would be handed in production:
transcript JSONL, corpus text and phrase-table TSV, plus the lag profile
and engine settings the benchmark drives them with. Nothing here imports
specsim, so a change to the program never changes the inputs; references
are computed from the generator's own dictionary.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Every workload keeps one language for all seeds and draws only its
# utterance stream from the seed, so runs with different seeds replay the
# same language. With a language drawn per seed, the mean AL of sentences
# ranged from -0.6 to 4.4 over 8 seeds.
SENTENCES_LANGUAGE_SEED = 1
C9_LANGUAGE_SEED = 99
C9_EARLY_PASSES = 16
SENTENCES_BATCH = 2000
SENTENCES_WARMUP = 300
MONOLOGUE_TOKENS = 20000
INTERLEAVED_SESSIONS = 4
INTERLEAVED_TOKENS = 2500
FINGERPRINT_SEED = 99
FINGERPRINT_TOKENS = 10000


@dataclass(frozen=True)
class Utterance:
    """One transcript and the per-tick delivery counts it is replayed with."""

    jsonl: str
    lag: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str
    phrases: str
    order: int
    alpha: float
    max_len: int
    config: dict
    utterances: tuple[Utterance, ...]
    warmup: tuple[Utterance, ...] = ()
    interleave: bool = False  # serve all utterances round-robin, one token each per turn
    # Extra replays of only the first quarter of every utterance. On long
    # utterances the early ticks of a round pass in well under a second,
    # too short a window to time steadily on a shared machine.
    early_passes: int = 0


def transcript_jsonl(tokens, reference) -> str:
    """The transcript format: header, then one event per token 100 ms apart,
    final marker last."""
    lines = [json.dumps({"src": "ja", "tgt": "en", "ref": list(reference)},
                        ensure_ascii=False)]
    last = len(tokens) - 1
    for i, tok in enumerate(tokens):
        rec = {"i": i, "tok": tok, "t_ms": i * 100}
        if i == last:
            rec["final"] = True
        lines.append(json.dumps(rec, ensure_ascii=False))
    return "\n".join(lines) + "\n"


# -- monologue / interleaved: the C9 acceptance-test language ---------------

def _c9_language(rng: random.Random):
    vocab = [f"w{i}" for i in range(20)]
    sentences = [[rng.choice(vocab) for _ in range(rng.randint(4, 9))]
                 for _ in range(12)]
    return vocab, sentences


def _c9_stream(rng: random.Random, vocab, sentences, n_tokens: int) -> Utterance:
    toks: list[str] = []
    while len(toks) < n_tokens:
        toks.extend(rng.choice(sentences))
    toks = toks[:n_tokens]
    reference = [f"T{vocab.index(t)}" for t in toks]
    return Utterance(transcript_jsonl(toks, reference))


def _c9_workload(name: str, language, utterances) -> Workload:
    vocab, sentences = language
    return Workload(
        name=name,
        corpus="".join(" ".join(s) + "\n" for s in sentences),
        phrases="".join(f"{tok}\tT{i}\n" for i, tok in enumerate(vocab)),
        order=3, alpha=0.1, max_len=10, config={"k": 4, "d": 2},
        utterances=tuple(utterances), interleave=len(utterances) > 1,
        early_passes=C9_EARLY_PASSES)


def monologue(seed: int) -> Workload:
    """One long utterance over the C9 language."""
    language = _c9_language(random.Random(C9_LANGUAGE_SEED))
    rng = random.Random(seed)
    return _c9_workload("monologue", language,
                        [_c9_stream(rng, *language, MONOLOGUE_TOKENS)])


def interleaved(seed: int) -> Workload:
    """Several sessions over the C9 language, sharing one backend."""
    language = _c9_language(random.Random(C9_LANGUAGE_SEED))
    rng = random.Random(seed)
    return _c9_workload("interleaved", language,
                        [_c9_stream(rng, *language, INTERLEAVED_TOKENS)
                         for _ in range(INTERLEAVED_SESSIONS)])


def c9_replay() -> Workload:
    """The C9 acceptance-test replay itself: language and stream from one seed."""
    rng = random.Random(FINGERPRINT_SEED)
    language = _c9_language(rng)
    return _c9_workload("c9", language,
                        [_c9_stream(rng, *language, FINGERPRINT_TOKENS)])


# -- sentences: short utterances that speculation can commit early ----------

def _sentences_language():
    rng = random.Random(SENTENCES_LANGUAGE_SEED)
    vocab = [f"s{i}" for i in range(60)]
    idioms: list[tuple[str, str]] = []
    while len(idioms) < 8:
        pair = tuple(rng.sample(vocab, 2))
        if pair not in idioms:
            idioms.append(pair)
    sentences = []
    for _ in range(40):
        n = rng.randint(6, 14)
        sent = [rng.choice(vocab) for _ in range(n)]
        if rng.random() < 0.5:
            pos = rng.randint(0, n - 2)
            sent[pos:pos + 2] = rng.choice(idioms)
        sentences.append(sent)
    # Repetition makes the model confident enough (alpha 0.001) for the
    # tau = 0.9 consensus to commit before the utterance ends.
    weights = [rng.randint(10, 30) for _ in sentences]
    return vocab, idioms, sentences, weights


def _reference(tokens, idioms) -> list[str]:
    """Greedy longest-match-leftmost over single words and two-token idioms."""
    targets = {pair: (f"I{j}a", f"I{j}b") for j, pair in enumerate(idioms)}
    out: list[str] = []
    i = 0
    while i < len(tokens):
        pair = tuple(tokens[i:i + 2])
        if pair in targets:
            out.extend(targets[pair])
            i += 2
        else:
            out.append("T" + tokens[i][1:])
            i += 1
    return out


def _deck(rng: random.Random, ids, weights, total: int) -> list:
    """total ids, each repeated in proportion to its weight (largest
    remainder), in shuffled order."""
    exact = [w * total / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(ids)), key=lambda j: counts[j] - exact[j])
    for j in by_remainder[:total - sum(counts)]:
        counts[j] += 1
    deck = [i for i, c in zip(ids, counts) for _ in range(c)]
    rng.shuffle(deck)
    return deck


def _sentence_utterances(rng: random.Random, count: int, burst_size: int,
                         language) -> tuple[Utterance, ...]:
    vocab, idioms, sentences, weights = language
    # Each sentence recurs exactly in proportion to its weight rather than by
    # independent draws: which sentences a seed drew explained most of the
    # spread of mean AL between seeds. A burst needs burst_size non-final
    # tokens after the first one, so bursts draw from the long sentences.
    long = [j for j, s in enumerate(sentences) if len(s) >= burst_size + 2]
    decks = {False: _deck(rng, range(len(sentences)), weights, count - count // 4),
             True: _deck(rng, long, [weights[j] for j in long], count // 4)}
    out = []
    for i in range(count):
        bursty = i % 4 == 3
        toks = list(sentences[decks[bursty].pop()])
        if rng.random() < 0.3:
            pos = rng.randrange(len(toks))
            toks[pos] = rng.choice([w for w in vocab if w != toks[pos]])
        lag: tuple[int, ...] = (1,)
        if bursty:
            start = rng.randint(1, len(toks) - 1 - burst_size)
            lag = (1,) * start + (burst_size,)
        out.append(Utterance(transcript_jsonl(toks, _reference(toks, idioms)), lag))
    return tuple(out)


def sentences(seed: int) -> Workload:
    language = _sentences_language()
    vocab, idioms, sents, weights = language
    config = {"k": 4, "d": 2, "buffer_limit": 4}
    rng = random.Random(seed)
    burst = config["buffer_limit"] + 1
    timed = _sentence_utterances(rng, SENTENCES_BATCH, burst, language)
    warm = _sentence_utterances(rng, SENTENCES_WARMUP, burst, language)
    phrases = [f"{tok}\tT{tok[1:]}\n" for tok in vocab]
    phrases += [f"{a} {b}\tI{j}a I{j}b\tatomic\n" for j, (a, b) in enumerate(idioms)]
    return Workload(
        name="sentences",
        corpus="".join(" ".join(s) + "\n"
                       for s, w in zip(sents, weights) for _ in range(w)),
        phrases="".join(phrases),
        order=3, alpha=0.001, max_len=16, config=config,
        utterances=timed, warmup=warm)


WORKLOADS = {"sentences": sentences, "monologue": monologue,
             "interleaved": interleaved}

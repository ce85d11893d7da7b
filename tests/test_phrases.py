"""Phrase table translation, idiom spans, incremental stream translation."""

from __future__ import annotations

import random

import pytest

from specsim.phrases import (PhraseTable, StreamTranslation, idiom_spans,
                             parse_phrase_table, translate)

from oracles import translate_oracle


def table_of(entries, atomic=()):
    t = PhraseTable()
    atomic = {tuple(a) for a in atomic}
    for src, tgt in entries.items():
        t.add(src, tgt, atomic=tuple(src) in atomic)
    return t


def test_translate_full_sentence_entry():
    t = table_of({("買い物", "に", "行った"): ("went", "shopping")})
    assert translate(t, ["買い物", "に", "行った"]) == ("went", "shopping")


def test_translate_empty_and_passthrough():
    t = table_of({("a",): ("x",)})
    assert translate(t, []) == ()
    assert translate(t, ["q", "r"]) == ("q", "r")


def test_translate_longest_match_wins():
    t = table_of({("a",): ("one",), ("a", "b"): ("two",), ("a", "b", "c"): ("three",)})
    assert translate(t, ["a", "b", "c"]) == ("three",)
    assert translate(t, ["a", "b", "x"]) == ("two", "x")
    assert translate(t, ["a", "x", "c"]) == ("one", "x", "c")


def test_translate_matches_bruteforce_on_random_tables():
    rng = random.Random(21)
    for _ in range(300):
        vocab = ["a", "b", "c", "d"]
        entries = {}
        for _ in range(rng.randint(1, 8)):
            src = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            tgt = tuple(rng.choice("XYZ") for _ in range(rng.randint(0, 2)))
            entries[src] = tgt
        t = table_of(entries)
        source = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        assert translate(t, source) == translate_oracle(entries, source)


def test_empty_source_key_rejected():
    with pytest.raises(ValueError):
        PhraseTable().add((), ("x",))


def test_idiom_span_direct_match():
    t = table_of({("k", "b"): ("kick", "the", "bucket")}, atomic=[("k", "b")])
    spans = idiom_spans(t, ["he", "will", "kick", "the", "bucket", "soon"])
    assert [(s.start, s.end) for s in spans] == [(2, 5)]


def test_idiom_spans_empty_without_atomic_entries():
    t = table_of({("a",): ("x",)})
    assert idiom_spans(t, ["x", "x"]) == []


def test_idiom_spans_two_occurrences_in_order():
    t = table_of({("i",): ("in", "fact")}, atomic=[("i",)])
    target = ["in", "fact", "yes", "in", "fact"]
    spans = idiom_spans(t, target)
    assert [(s.start, s.end) for s in spans] == [(0, 2), (3, 5)]
    # non-overlapping and sorted
    assert all(a.end <= b.start for a, b in zip(spans, spans[1:]))


def test_idiom_spans_leftmost_longest():
    t = table_of({("x",): ("a", "b"), ("y",): ("a", "b", "c")},
                 atomic=[("x",), ("y",)])
    spans = idiom_spans(t, ["a", "b", "c"])
    assert [(s.start, s.end) for s in spans] == [(0, 3)]


def test_parse_phrase_table_format():
    text = "a b\tx y\natomic one\tidiom target\tatomic\n# comment\n"
    t = parse_phrase_table(text)
    assert translate(t, ["a", "b"]) == ("x", "y")
    assert t.is_atomic(("atomic", "one"))
    assert not t.is_atomic(("a", "b"))
    with pytest.raises(ValueError):
        parse_phrase_table("only one field\n")
    with pytest.raises(ValueError):
        parse_phrase_table("\tx\n")


def test_parse_phrase_table_refuses_repeated_source():
    with pytest.raises(ValueError, match="line 3: duplicate entry for source 'a b'"):
        parse_phrase_table("a b\tX Y\tatomic\n# comment\na b\tX Y\n")
    with pytest.raises(ValueError, match="line 2: duplicate"):
        parse_phrase_table("a  b\tX\na b\tY\n")  # same tokens, other spacing


def test_add_replacing_an_entry_sets_its_atomic_flag():
    t = PhraseTable()
    t.add(("a", "b"), ("X", "Y"), atomic=True)
    assert idiom_spans(t, ["X", "Y"])
    t.add(("a", "b"), ("X", "Y"))  # a later plain entry undoes the idiom
    assert not t.is_atomic(("a", "b"))
    assert idiom_spans(t, ["X", "Y"]) == []
    t.add(("a", "b"), ("Z",), atomic=True)
    assert t.is_atomic(("a", "b")) and t.atomic_targets() == [("Z",)]


def test_stream_translation_matches_one_shot():
    rng = random.Random(5)
    for _ in range(200):
        vocab = ["a", "b", "c", "d", "e"]
        t = PhraseTable()
        entries = {}
        for _ in range(rng.randint(1, 10)):
            src = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            tgt = tuple(rng.choice("UVW") for _ in range(rng.randint(0, 2)))
            entries[src] = tgt
            t.add(src, tgt)
        stream = [rng.choice(vocab) for _ in range(rng.randint(0, 25))]
        src: list[str] = []
        state = StreamTranslation(src)
        i = 0
        while i < len(stream):
            step = rng.randint(1, 4)
            if rng.random() < 0.5:
                state.extend(t, stream[i:i + step])
            else:  # the owner appends and leaves the scan behind
                src.extend(stream[i:i + step])
            i += step
            assert state.src is src and src == stream[:i]
            cont = [rng.choice(vocab) for _ in range(rng.randint(0, 5))]
            assert state.preview(t, cont) == translate(t, stream[:i] + cont)
        assert state.finish(t) == translate(t, stream)


def test_stream_translation_output_only_grows():
    t = table_of({("a", "b"): ("AB",), ("b",): ("B",)})
    state = StreamTranslation()
    seen = []
    for tok in ["a", "b", "a", "b", "b"]:
        out = state.out
        state.extend(t, [tok])
        assert state.out is out and out[:len(seen)] == seen
        seen = list(out)
    assert seen == ["AB", "AB"]  # the last "b" stays pending

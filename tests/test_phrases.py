"""Phrase table translation, idiom spans, incremental stream translation."""

from __future__ import annotations

import random

import pytest

from specsim.phrases import (PhraseTable, StreamTranslation, idiom_spans,
                             parse_phrase_table, translate)

from oracles import translate_oracle


def test_translate_full_sentence_entry():
    t = PhraseTable({("買い物", "に", "行った"): ("went", "shopping")})
    assert translate(t, ["買い物", "に", "行った"]) == ("went", "shopping")


def test_translate_empty_and_passthrough():
    t = PhraseTable({("a",): ("x",)})
    assert translate(t, []) == ()
    assert translate(t, ["q", "r"]) == ("q", "r")


def test_translate_longest_match_wins():
    t = PhraseTable({("a",): ("one",), ("a", "b"): ("two",), ("a", "b", "c"): ("three",)})
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
        t = PhraseTable(entries)
        source = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        assert translate(t, source) == translate_oracle(entries, source)


def test_empty_source_key_rejected():
    with pytest.raises(ValueError):
        PhraseTable({(): ("x",)})


def test_idiom_span_direct_match():
    t = PhraseTable({("k", "b"): ("kick", "the", "bucket")}, atomic=[("k", "b")])
    spans = idiom_spans(t, ["he", "will", "kick", "the", "bucket", "soon"])
    assert [(s.start, s.end) for s in spans] == [(2, 5)]


def test_idiom_spans_empty_without_atomic_entries():
    t = PhraseTable({("a",): ("x",)})
    assert idiom_spans(t, ["x", "x"]) == []


def test_idiom_spans_two_occurrences_in_order():
    t = PhraseTable({("i",): ("in", "fact")}, atomic=[("i",)])
    target = ["in", "fact", "yes", "in", "fact"]
    spans = idiom_spans(t, target)
    assert [(s.start, s.end) for s in spans] == [(0, 2), (3, 5)]
    # non-overlapping and sorted
    assert all(a.end <= b.start for a, b in zip(spans, spans[1:]))


def test_idiom_spans_leftmost_longest():
    t = PhraseTable({("x",): ("a", "b"), ("y",): ("a", "b", "c")},
                 atomic=[("x",), ("y",)])
    spans = idiom_spans(t, ["a", "b", "c"])
    assert [(s.start, s.end) for s in spans] == [(0, 3)]


def test_parse_phrase_table_format():
    text = "a b\tx y\natomic one\tidiom target\tatomic\n# comment\n"
    t = parse_phrase_table(text)
    assert translate(t, ["a", "b"]) == ("x", "y")
    assert t.atomic_targets() == [("idiom", "target")]
    with pytest.raises(ValueError):
        parse_phrase_table("only one field\n")
    with pytest.raises(ValueError):
        parse_phrase_table("\tx\n")


def test_parse_phrase_table_refuses_repeated_source():
    with pytest.raises(ValueError, match="line 3: duplicate entry for source 'a b'"):
        parse_phrase_table("a b\tX Y\tatomic\n# comment\na b\tX Y\n")
    with pytest.raises(ValueError, match="line 2: duplicate"):
        parse_phrase_table("a  b\tX\na b\tY\n")  # same tokens, other spacing


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_parse_phrase_table_splits_lines_at_newline_only(sep):
    # str.splitlines would end a line at each of these; they are whitespace
    t = parse_phrase_table(f"a{sep}b\tX\n")
    assert translate(t, ["a", "b"]) == ("X",)
    with pytest.raises(ValueError, match="^line 2: expected 2 or 3"):
        parse_phrase_table(f"c\tY{sep}Z\nbad\n")


def test_parse_phrase_table_reads_crlf_files():
    t = parse_phrase_table("a b\tX Y\r\nc\tZ\tatomic\r\n# note\r\n\r\n")
    assert translate(t, ["a", "b", "c"]) == ("X", "Y", "Z")
    assert t.atomic_targets() == [("Z",)]
    with pytest.raises(ValueError, match="^line 2: duplicate"):
        parse_phrase_table("a\tX\r\na\tY\r\n")


def test_a_table_ignores_later_changes_to_what_it_was_built_from():
    entries = {("a", "b"): ["X", "Y"], ("c",): ["Z"]}
    atomic = [("a", "b")]
    t = PhraseTable(entries, atomic)
    entries[("a", "b")].append("W")
    entries[("c", "d", "e")] = ["CDE"]
    del entries[("c",)]
    atomic.append(("c",))
    atomic.remove(("a", "b"))
    assert t.entries() == {("a", "b"): ("X", "Y"), ("c",): ("Z",)}
    assert t.max_source_len == 2 and t.atomic_targets() == [("X", "Y")]
    assert translate(t, ["a", "b", "c", "d", "e"]) == ("X", "Y", "Z", "d", "e")
    assert [(s.start, s.end) for s in idiom_spans(t, ["Z", "X", "Y", "W"])] == [(1, 3)]


def test_stream_translation_matches_one_shot():
    rng = random.Random(5)
    for _ in range(200):
        vocab = ["a", "b", "c", "d", "e"]
        entries = {}
        for _ in range(rng.randint(1, 10)):
            src = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            tgt = tuple(rng.choice("UVW") for _ in range(rng.randint(0, 2)))
            entries[src] = tgt
        t = PhraseTable(entries)
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
        assert state.preview(t, ()) == translate(t, stream)


def test_stream_translation_output_only_grows():
    t = PhraseTable({("a", "b"): ("AB",), ("b",): ("B",)})
    state = StreamTranslation()
    seen = []
    for tok in ["a", "b", "a", "b", "b"]:
        out = state.out
        state.extend(t, [tok])
        assert state.out is out and out[:len(seen)] == seen
        seen = list(out)
    assert seen == ["AB", "AB"]  # the last "b" stays pending

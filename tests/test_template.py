"""Consensus templates, monotone refinement, idiom-atomic emission."""

from __future__ import annotations

import random

from specsim.phrases import IdiomSpan
from specsim.template import (Hole, RevisionConflict, TargetTemplate,
                              all_hole_template, consensus, emittable,
                              extend_into_hole, fixed_template, refine,
                              resolve_with)

from oracles import consensus_oracle

H1 = tuple("Yesterday , I went to see a movie with my friend".split())
H2 = tuple("Yesterday , I had a meal with my friend".split())
H3 = tuple("Yesterday , I went to the park with my friend".split())
SHOPPING_HYPS = [(H1, 0.4), (H2, 0.3), (H3, 0.2)]


def test_consensus_shopping_example():
    t = consensus(SHOPPING_HYPS, tau=0.9)
    assert t.render() == "Yesterday , I [*] with my friend"


def test_consensus_single_certain_hypothesis_no_hole():
    t = consensus([(("a", "b", "c"), 1.0)], tau=0.9)
    assert t.slots == ("a", "b", "c")
    assert t.complete()


def test_consensus_disjoint_hypotheses_single_hole():
    t = consensus([(("x", "y"), 0.5), (("p", "q", "r"), 0.45)], tau=0.9)
    assert t.slots == (Hole(),)
    assert t.render() == "[*]"


def test_consensus_below_tau_commits_nothing():
    t = consensus(SHOPPING_HYPS, tau=0.95)
    assert t.slots == (Hole(),)


def test_single_hypothesis_emits_entire_translation():
    t = consensus([(H1, 0.95)], tau=0.9)
    toks, done = emittable(t, [])
    assert toks == H1
    assert done.emit_ptr == len(H1)


def test_consensus_prefix_wins_on_overlap():
    # lcp = (a b a), lcs = (a b a), shortest member length 3
    t = consensus([(("a", "b", "a", "b", "a"), 0.5), (("a", "b", "a"), 0.4)], tau=0.9)
    assert t.slots == ("a", "b", "a", Hole())


def test_consensus_identical_members_commit_fully():
    t = consensus([(("x", "y"), 0.5), (("x", "y"), 0.4)], tau=0.9)
    assert t.slots == ("x", "y")


def test_consensus_matches_bruteforce_oracle():
    rng = random.Random(4242)
    vocab = ["a", "b", "c", "d"]
    for _ in range(500):
        count = rng.randint(1, 6)
        raw = sorted((rng.uniform(0.01, 0.5) for _ in range(count)), reverse=True)
        total = sum(raw)
        scale = rng.uniform(0.5, 1.0) / total
        hyps = []
        for mass in raw:
            toks = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            hyps.append((toks, mass * scale))
        hyps.sort(key=lambda h: (-h[1], h[0]))
        tau = rng.choice([0.5, 0.7, 0.9])
        assert consensus(hyps, tau).slots == consensus_oracle(hyps, tau).slots


def test_consensus_insensitive_to_equal_mass_permutation():
    a = (("x", "p"), 0.45)
    b = (("x", "q"), 0.45)
    t1 = consensus(sorted([a, b], key=lambda h: (-h[1], h[0])), 0.9)
    t2 = consensus(sorted([b, a], key=lambda h: (-h[1], h[0])), 0.9)
    assert t1.slots == t2.slots


def test_refine_fills_hole_from_complete_fresh():
    committed = consensus(SHOPPING_HYPS, tau=0.9)
    final = tuple("Yesterday , I went shopping with my friend".split())
    merged = refine(committed, fixed_template(final))
    assert isinstance(merged, TargetTemplate)
    assert merged.slots == final


def test_refine_identity():
    committed = consensus(SHOPPING_HYPS, tau=0.9)
    merged = refine(committed, consensus(SHOPPING_HYPS, tau=0.9))
    assert merged is committed


def test_refine_conflict_on_contradicting_prefix():
    committed = fixed_template(("Yesterday", "I", "ran"))
    fresh = fixed_template(("Today", "I", "ran"))
    out = refine(committed, fresh)
    assert out == RevisionConflict(0, "Yesterday", "Today")


def test_refine_conflict_leaves_committed_unchanged():
    committed = consensus(SHOPPING_HYPS, tau=0.9)
    fresh = fixed_template(tuple("Today , I went shopping with my friend".split()))
    out = refine(committed, fresh)
    assert isinstance(out, RevisionConflict)
    assert out.slot == 0 and out.committed == "Yesterday" and out.got == "Today"


def test_refine_conflict_on_suffix():
    committed = consensus(SHOPPING_HYPS, tau=0.9)
    fresh = fixed_template(tuple("Yesterday , I went shopping with my enemy".split()))
    out = refine(committed, fresh)
    assert isinstance(out, RevisionConflict)
    assert out.committed == "friend" and out.got == "enemy"


def test_refine_grows_prefix_and_suffix():
    committed = TargetTemplate(("a", Hole(), "z"))
    fresh = TargetTemplate(("a", "b", Hole(), "y", "z"))
    merged = refine(committed, fresh)
    assert merged.slots == ("a", "b", Hole(), "y", "z")


def test_refine_never_shrinks():
    committed = TargetTemplate(("a", "b", Hole(), "z"))
    fresh = all_hole_template()
    merged = refine(committed, fresh)
    assert merged is committed


def test_refine_random_monotonicity():
    rng = random.Random(31)
    vocab = ["a", "b", "c"]
    for _ in range(400):
        sentence = tuple(rng.choice(vocab) for _ in range(rng.randint(2, 10)))
        p1, s1 = rng.randint(0, len(sentence)), rng.randint(0, len(sentence))
        committed = _partial(sentence, p1, s1)
        p2, s2 = rng.randint(0, len(sentence)), rng.randint(0, len(sentence))
        fresh = _partial(sentence, p2, s2)
        merged = refine(committed, fresh)
        assert isinstance(merged, TargetTemplate), merged
        pre_c, _, suf_c = committed.parts()
        pre_m, hole_m, suf_m = merged.parts()
        assert pre_m[:len(pre_c)] == pre_c
        # committed suffix stays anchored at the end
        tail = suf_m if hole_m else pre_m
        assert not suf_c or tail[len(tail) - len(suf_c):] == suf_c


def _partial(sentence, p, s):
    if p + s >= len(sentence):
        return fixed_template(sentence)
    return TargetTemplate(sentence[:p] + (Hole(),) + (sentence[len(sentence) - s:]
                                                       if s else ()))


def test_extend_into_hole():
    committed = TargetTemplate(("a", Hole(), "z"))
    out = extend_into_hole(committed, ("m", "n"))
    assert out.slots == ("a", "m", "n", Hole(), "z")
    done = extend_into_hole(fixed_template(("a",)), ("b",))
    assert done.slots == ("a", "b")
    assert extend_into_hole(committed, ()) is committed


def test_resolve_with_alignment_and_fallback():
    committed = TargetTemplate(("a", Hole(), "z"), emit_ptr=1)
    assert resolve_with(committed, ("a", "m", "z")).slots == ("a", "m", "z")
    # prefix disagrees: hole drops, committed tokens stay
    assert resolve_with(committed, ("q", "m", "z")).slots == ("a", "z")


def test_emittable_shopping_prefix():
    template = consensus(SHOPPING_HYPS, tau=0.9)
    toks, advanced = emittable(template, [])
    assert toks == ("Yesterday", ",", "I")
    assert advanced.emit_ptr == 3
    again, _ = emittable(advanced, [])
    assert again == ()


def test_emittable_leading_hole_emits_nothing():
    toks, advanced = emittable(all_hole_template(), [])
    assert toks == () and advanced.emit_ptr == 0


def test_emittable_stops_before_idiom_span():
    # fixed run would end at rendering position 3, strictly inside span (2, 5)
    template = TargetTemplate(("t0", "t1", "t2", Hole(), "t4", "t5"))
    toks, advanced = emittable(template, [IdiomSpan(2, 5)])
    assert toks == ("t0", "t1")
    assert advanced.emit_ptr == 2
    # once the hole resolves the idiom emits wholesale
    resolved = refine(advanced, fixed_template(("t0", "t1", "t2", "x", "t4", "t5")))
    toks2, done = emittable(resolved, [])
    assert toks2 == ("t2", "x", "t4", "t5")
    assert done.emit_ptr == 6


def test_emittable_span_ending_at_boundary_is_fine():
    template = TargetTemplate(("t0", "t1", "t2", Hole()))
    toks, _ = emittable(template, [IdiomSpan(1, 3)])
    assert toks == ("t0", "t1", "t2")


def test_render_debug_format():
    t = TargetTemplate(("Yesterday", ",", "I", Hole(), "with", "my", "friend"))
    assert t.render() == "Yesterday , I [*] with my friend"

"""Consensus templates, monotone refinement, idiom-atomic emission."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.phrases import IdiomSpan
from specsim.template import (_TAU_SLACK, RevisionConflict, TargetTemplate,
                              all_hole_template, consensus, emittable,
                              extend_into_hole, fixed_template, refine,
                              resolve_with)

from oracles import consensus_oracle

H1 = tuple("Yesterday , I went to see a movie with my friend".split())
H2 = tuple("Yesterday , I had a meal with my friend".split())
H3 = tuple("Yesterday , I went to the park with my friend".split())
SHOPPING_HYPS = [(H1, 0.4, True), (H2, 0.3, True), (H3, 0.2, True)]


def test_consensus_shopping_example():
    t = consensus(SHOPPING_HYPS, tau=0.9)
    assert t.render() == "Yesterday , I [*] with my friend"


def test_consensus_single_certain_hypothesis_no_hole():
    t = consensus([(("a", "b", "c"), 1.0, True)], tau=0.9)
    assert t == TargetTemplate(("a", "b", "c"))
    assert t.slots == ("a", "b", "c")
    assert t.suffix is None


def test_consensus_disjoint_hypotheses_single_hole():
    t = consensus([(("x", "y"), 0.5, True), (("p", "q", "r"), 0.45, True)], tau=0.9)
    assert t == TargetTemplate((), ())
    assert t.slots == (None,)
    assert t.render() == "[*]"


def test_consensus_below_tau_commits_nothing():
    t = consensus(SHOPPING_HYPS, tau=0.95)
    assert t == all_hole_template()


def test_single_hypothesis_emits_entire_translation():
    t = consensus([(H1, 0.95, True)], tau=0.9)
    assert emittable(t, [], 0) == H1
    assert emittable(t, [], len(H1)) == ()


def test_consensus_prefix_wins_on_overlap():
    # lcp = (a b a), lcs = (a b a), shortest member length 3
    t = consensus([(("a", "b", "a", "b", "a"), 0.5, True), (("a", "b", "a"), 0.4, True)],
                  tau=0.9)
    assert t == TargetTemplate(("a", "b", "a"), ())


def test_consensus_identical_members_commit_fully():
    t = consensus([(("x", "y"), 0.5, True), (("x", "y"), 0.4, True)], tau=0.9)
    assert t == TargetTemplate(("x", "y"))


def test_a_truncated_cover_member_commits_a_prefix_and_a_hole_only():
    # identical members: complete only when both run to the utterance's end
    t = consensus([(("x", "y"), 0.5, True), (("x", "y"), 0.4, False)], tau=0.9)
    assert t == TargetTemplate(("x", "y"), ())
    # a shared end is no suffix when a member may still go on
    t = consensus([(H1, 0.5, False), (H2, 0.4, True)], tau=0.9)
    assert t.render() == "Yesterday , I [*]"
    # a truncated member outside the cover changes nothing
    assert consensus(SHOPPING_HYPS + [(H1, 0.1, False)], tau=0.9) == \
        consensus(SHOPPING_HYPS, tau=0.9)


def rank(hyps):
    """Mass descending, then translation, then truncated before terminal."""
    return sorted(hyps, key=lambda h: (-h[1], h[0], h[2]))


def running_total(hyps):
    """The masses added up in rank order, as consensus adds them."""
    cum = 0.0
    for _, mass, _ in rank(hyps):
        cum += mass
    return cum


def with_running_total(hyps, target):
    """hyps with the last-ranked mass set to what the others leave of target,
    then stepped an ulp at a time until the running total is target; None
    if it would no longer rank last."""
    *rest, (toks, _, terminal) = rank(hyps)
    mass = target - running_total(rest)
    for _ in range(64):
        moved = rest + [(toks, mass, terminal)]
        if mass <= 0.0 or rank(moved)[-1] != moved[-1]:
            return None
        cum = running_total(moved)
        if cum == target:
            return moved
        mass = math.nextafter(mass, math.inf if cum < target else 0.0)
    return None


def test_consensus_matches_bruteforce_oracle():
    # consensus ranks its input, so any order of it commits what the
    # oracle commits for the ranked list. The draws hold mass ties between
    # different translations, one translation both truncated and terminal at
    # one mass (some with tau cutting the cover between the two), and running
    # totals on either side of the commit's skip bound (tau - 2 * _TAU_SLACK)
    # and of the cover's bound (tau - _TAU_SLACK)
    rng = random.Random(4242)
    vocab = ["a", "b", "c", "d"]
    reached = Counter()
    for _ in range(1000):
        tau = rng.choice([0.5, 0.7, 0.9])
        count = rng.randint(1, 6)
        raw = sorted((rng.uniform(0.01, 0.5) for _ in range(count)), reverse=True)
        if count > 1 and rng.random() < 0.3:
            i = rng.randrange(count - 1)
            raw[i + 1] = raw[i]
        bound = rng.choice([None, tau - 2 * _TAU_SLACK, tau - _TAU_SLACK])
        side = rng.choice(["below", "at", "above"])
        target = None if bound is None else {"below": math.nextafter(bound, 0.0),
                                             "at": bound,
                                             "above": math.nextafter(bound, 1.0)}[side]
        hyps = [(tuple(rng.choice(vocab) for _ in range(rng.randint(0, 12))), mass,
                 rng.random() < 0.8) for mass in raw]
        if rng.random() < 0.3:
            toks, mass, terminal = rng.choice(hyps)
            hyps.append((toks, mass, not terminal))
        scale = (rng.uniform(0.5, 1.0) if target is None else target) / sum(
            m for _, m, _ in hyps)
        hyps = [(toks, mass * scale, terminal) for toks, mass, terminal in hyps]
        if target is not None:
            hyps = with_running_total(hyps, target) or hyps
            reached[side] += running_total(hyps) == target
        masses = [m for _, m, _ in hyps]
        reached["mass tie"] += len(set(masses)) < len(masses)
        pairs = Counter((toks, mass) for toks, mass, _ in hyps)
        if max(pairs.values()) > 1:
            reached["truncated and terminal"] += 1
            if target is None and rng.random() < 0.5:  # tau ends the cover inside the pair
                ranked = rank(hyps)
                first = next(i for i, (toks, mass, _) in enumerate(ranked)
                             if pairs[toks, mass] > 1)
                tau = running_total(ranked[:first + 1])
                reached["cut inside the pair"] += 1
        shuffled = rng.sample(hyps, len(hyps))
        assert consensus(shuffled, tau) == consensus_oracle(rank(hyps), tau)
    assert all(reached[what] > 20 for what in (
        "below", "at", "above", "mass tie", "truncated and terminal",
        "cut inside the pair")), reached


def test_consensus_insensitive_to_equal_mass_permutation():
    a = (("x", "p"), 0.45, True)
    b = (("x", "q"), 0.45, True)
    assert consensus([a, b], 0.9) == consensus([b, a], 0.9)


def test_refine_fills_hole_from_complete_fresh():
    committed = consensus(SHOPPING_HYPS, tau=0.9)
    final = tuple("Yesterday , I went shopping with my friend".split())
    merged = refine(committed, fixed_template(final))
    assert isinstance(merged, TargetTemplate)
    assert merged == TargetTemplate(final)


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
    # the hole counts as one slot: Yesterday , I [*] with my friend
    assert out.slot == 6 and committed.slots[out.slot] == "friend"


def test_refine_conflict_when_complete_fresh_overlaps_prefix_and_suffix():
    # "a b" and "b c" agree with "a b c", but as one template they need four
    # tokens; the conflict names the hole's slot and no token, in both directions
    committed = TargetTemplate(("a", "b"), ("b", "c"))
    assert refine(committed, fixed_template(("a", "b", "c"))) == RevisionConflict(2, None, None)
    assert refine(fixed_template(("a", "b", "c")), committed) == RevisionConflict(2, None, None)


def test_refine_grows_prefix_and_suffix():
    committed = TargetTemplate(("a",), ("z",))
    fresh = TargetTemplate(("a", "b"), ("y", "z"))
    merged = refine(committed, fresh)
    assert merged == fresh
    assert merged.slots == ("a", "b", None, "y", "z")


def test_refine_never_shrinks():
    committed = TargetTemplate(("a", "b"), ("z",))
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
        assert merged.prefix[:len(committed.prefix)] == committed.prefix
        # committed suffix stays anchored at the end
        tail = merged.prefix if merged.suffix is None else merged.suffix
        suf_c = committed.suffix or ()
        assert tail[len(tail) - len(suf_c):] == suf_c


def _partial(sentence, p, s):
    if p + s >= len(sentence):
        return fixed_template(sentence)
    return TargetTemplate(sentence[:p], sentence[len(sentence) - s:])


def _all_templates(alphabet, most):
    """Every template over `alphabet` with at most `most` committed tokens."""
    seqs = [s for n in range(most + 1) for s in itertools.product(alphabet, repeat=n)]
    return ([TargetTemplate(s) for s in seqs]
            + [TargetTemplate(s[:i], s[i:]) for s in seqs for i in range(len(s) + 1)])


def test_refine_pinned_on_every_small_pair():
    # all 160 x 160 pairs over {a, b} with at most 4 committed tokens; "="
    # marks a result that is the committed template itself
    templates = _all_templates("ab", 4)
    digest = hashlib.sha256()
    for committed in templates:
        for fresh in templates:
            out = refine(committed, fresh)
            digest.update(("=" if out is committed else repr(out)).encode() + b"\n")
    assert len(templates) ** 2 == 25_600
    assert digest.hexdigest() == (
        "5ddc347efda9f12eb27dd6bc38c414a8a4f03325b8d444a7337eaf8391186175")


def _end(t):
    return t.prefix if t.suffix is None else t.suffix


_toks = st.lists(st.sampled_from(["a", "b"]), max_size=5).map(tuple)
_templates = st.builds(TargetTemplate, _toks, st.none() | _toks)


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(_templates, _templates)
def test_refine_keeps_committed_edges_and_is_idempotent(committed, fresh):
    out = refine(committed, fresh)
    if isinstance(out, RevisionConflict):
        return
    assert out.prefix[:len(committed.prefix)] == committed.prefix
    end, end_c = _end(out), _end(committed)
    assert end[len(end) - len(end_c):] == end_c
    assert len(out.fixed_tokens()) >= len(committed.fixed_tokens())
    if committed.suffix is None:
        assert out is committed
    assert refine(out, fresh) == out


def test_extend_into_hole():
    committed = TargetTemplate(("a",), ("z",))
    out = extend_into_hole(committed, ("m", "n"))
    assert out == TargetTemplate(("a", "m", "n"), ("z",))
    done = extend_into_hole(fixed_template(("a",)), ("b",))
    assert done == TargetTemplate(("a", "b"))
    assert extend_into_hole(committed, ()) is committed


def test_resolve_with_alignment_and_fallback():
    committed = TargetTemplate(("a",), ("z",))
    assert resolve_with(committed, ("a", "m", "z")) == TargetTemplate(("a", "m", "z"))
    # prefix disagrees: hole drops, committed tokens stay
    assert resolve_with(committed, ("q", "m", "z")) == TargetTemplate(("a", "z"))
    # a final shorter than the prefix disagrees with it
    assert resolve_with(TargetTemplate(("a", "b"), ()), ("a",)) == TargetTemplate(("a", "b"))


def test_emittable_shopping_prefix():
    template = consensus(SHOPPING_HYPS, tau=0.9)
    assert emittable(template, [], 0) == ("Yesterday", ",", "I")
    assert emittable(template, [], 3) == ()


def test_emittable_leading_hole_emits_nothing():
    assert emittable(all_hole_template(), [], 0) == ()


def test_emittable_stops_before_idiom_span():
    # fixed run would end at rendering position 3, strictly inside span (2, 5)
    template = TargetTemplate(("t0", "t1", "t2"), ("t4", "t5"))
    assert emittable(template, [IdiomSpan(2, 5)], 0) == ("t0", "t1")
    # once the hole resolves the idiom emits wholesale
    resolved = refine(template, fixed_template(("t0", "t1", "t2", "x", "t4", "t5")))
    assert emittable(resolved, [], 2) == ("t2", "x", "t4", "t5")


def test_emittable_span_ending_at_boundary_is_fine():
    template = TargetTemplate(("t0", "t1", "t2"), ())
    assert emittable(template, [IdiomSpan(1, 3)], 0) == ("t0", "t1", "t2")


def test_render_debug_format():
    t = TargetTemplate(("Yesterday", ",", "I"), ("with", "my", "friend"))
    assert t.render() == "Yesterday , I [*] with my friend"

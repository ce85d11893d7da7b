"""Prediction tree: build, Bayes advance, expansion, pruning, conservation."""

from __future__ import annotations

import gc
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsim.engine import start_session
from specsim.ngram import END
from specsim.phrases import PhraseTable
from specsim.predictor import Prediction, ScriptedBackend, prediction_set, residual_mass
from specsim.replay import replay
from specsim.stream import ContextDoc, EngineConfig
from specsim.template import TargetTemplate, consensus
from specsim.tree import (advance, build_tree, expand, expandable_leaves,
                          leaf_hypotheses, prune)

from oracles import total_mass, tree_survivor_oracle

CTX = ContextDoc("ctx")


def ps_of(*items):
    return prediction_set([Prediction(tuple(c.split()) + (END,), p, tuple(tr.split()))
                           for c, p, tr in items])


def shopping_ps():
    return ps_of(
        ("映画 を 見 に 行った", 0.4, "Yesterday , I went to see a movie with my friend"),
        ("食事 を した", 0.3, "Yesterday , I had a meal with my friend"),
        ("公園 に 行った", 0.2, "Yesterday , I went to the park with my friend"),
    )


def named_leaves(tree):
    return [n for n in tree.leaves() if not n.is_other]


def test_build_tree_shopping_masses():
    tree = build_tree(("私は", "昨日", "、", "友達", "と"), shopping_ps())
    named = named_leaves(tree)
    other = [n for n in tree.leaves() if n.is_other]
    assert [n.path_p for n in named] == [0.4, 0.3, 0.2]
    assert len(other) == 1
    assert other[0].path_p == pytest.approx(0.1, abs=1e-9)
    assert total_mass(tree) == pytest.approx(1.0, abs=1e-12)
    assert all(n.terminal for n in named)


def test_build_tree_single_certain_prediction():
    tree = build_tree((), ps_of(("a b", 1.0, "x y")))
    named = named_leaves(tree)
    other = [n for n in tree.leaves() if n.is_other]
    assert len(named) == 1 and named[0].path_p == 1.0
    assert other[0].path_p == 0.0


def test_build_tree_no_prediction_is_other_only():
    tree = build_tree(("x",), ())
    assert named_leaves(tree) == []
    assert total_mass(tree) == 1.0
    # a backend that raises NoPrediction builds the same tree
    session = start_session(EngineConfig(), CTX, ScriptedBackend({}), PhraseTable())
    assert session.tree.dump() == build_tree((), ()).dump() == tree.dump()


def test_a_set_summing_just_over_one_leaves_an_other_of_exactly_zero():
    ps = prediction_set([Prediction(("a",), 0.6, ("ta",)),
                         Prediction(("b",), 0.4 + 1e-10, ("tb",))])
    assert math.fsum(pr.p for pr in ps) > 1
    assert residual_mass(ps) == 0.0
    other = build_tree((), ps).root.children[-1]
    assert other.is_other and other.path_p == 0.0


def test_advance_bayes_hand_example():
    tree = build_tree((), ps_of(("a x", 0.4, "ta"), ("b x", 0.3, "tb"),
                                ("c x", 0.2, "tc")))
    out = advance(tree, "a")
    named = named_leaves(tree)
    assert not out.diverged and len(named) == 1
    other = [n for n in tree.leaves() if n.is_other]
    assert named[0].path_p == pytest.approx(0.8, abs=1e-12)
    assert other[0].path_p == pytest.approx(0.2, abs=1e-12)
    assert named[0].edge_pos == 1


def test_advance_divergence_collapses_to_other():
    tree = build_tree(tuple("私は 昨日 、 友達 と".split()), shopping_ps())
    out = advance(tree, "買い物")
    assert out.diverged
    assert named_leaves(tree) == []
    assert total_mass(tree) == 1.0


def test_advance_certain_single_child_keeps_mass():
    tree = build_tree((), ps_of(("a b", 1.0, "t")))
    out = advance(tree, "a")
    assert not out.diverged
    named = named_leaves(tree)
    assert named[0].path_p == 1.0


def test_advance_renormalises_after_removing_a_tiny_mass():
    # 1e-7 leaves the survivors' sum inside 1e-6 of 1: renormalising must
    # not wait for a gap that wide
    for removed in (1e-6, 1e-7):
        tree = build_tree((), ps_of(("a", 1 - removed, "ta"), ("b", removed, "tb")))
        assert advance(tree, "a").changed
        assert total_mass(tree) == pytest.approx(1.0, abs=1e-12)


def test_advance_moves_only_when_an_internal_node_loses_mass():
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("ta",))]))
    advance(tree, "a")
    node = tree.root.children[0]
    expand(tree, node, ps_of(("b c d", 0.6, "tb")))
    node.path_p = 0.3  # below its children's 0.6 + 0.4: a gain folds nothing
    out = advance(tree, "b")  # every leaf survives, their masses still sum to 1
    assert not out.changed and not out.moved
    assert node.path_p == 1.0
    node.path_p = 1.5  # above them: a loss may leave a node below epsilon
    out = advance(tree, "c")
    assert not out.changed and out.moved
    assert node.path_p == 1.0
    assert not advance(tree, "d").moved  # the others survive; nothing re-sums


def test_an_advance_below_an_expansion_keeps_walk_order_and_can_leave_a_fold():
    tree = build_tree((), prediction_set([Prediction(("a",), 0.6, ("ta",)),
                                          Prediction(("a", "c", END), 0.3, ("tx",))]))
    advance(tree, "a")
    node, x, root_other = tree.root.children
    expand(tree, node, ps_of(("b", 0.95, "tb")))
    assert not prune(tree, 0.1)
    out = advance(tree, "c")  # kills b: the expanded node keeps only its other
    node_other = node.children[0]
    assert out.frontier == [node_other, x, root_other] == list(tree.leaves())
    assert out.moved and node.path_p < 0.1
    assert prune(tree, 0.1)  # the node fell below epsilon: this prune folds it


def test_advance_fully_consumed_leaf_dies():
    tree = build_tree((), ps_of(("a", 0.6, "ta"), ("a b", 0.3, "tb")))
    advance(tree, "a")
    out = advance(tree, "b")  # the terminal one-token hypothesis cannot match
    assert not out.diverged
    named = named_leaves(tree)
    assert len(named) == 1
    assert named[0].translation == ("tb",)


def test_expand_scales_children_to_node_mass():
    tree = build_tree((), prediction_set(
        [Prediction(("a",), 0.4, ("ta",)), Prediction(("z", END), 0.6, ("tz",))]))
    advance(tree, "a")  # consume the non-terminal edge; z dies
    node = next(n for n in tree.leaves() if not n.is_other and n.consumed)
    assert expand(tree, node, ps_of(("p", 0.5, "tp"), ("q", 0.5, "tq")))
    kids = [c for c in node.children if not c.is_other]
    assert [c.path_p for c in kids] == pytest.approx(
        [0.5 * node.path_p, 0.5 * node.path_p])
    assert node.translation is None
    assert total_mass(tree) == pytest.approx(1.0, abs=1e-9)


def test_expand_depth_cap_is_noop():
    # the engine expands only what expandable_leaves returns
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("t",))]))
    frontier = advance(tree, "a").frontier
    node = next(n for n in tree.leaves() if not n.is_other)
    assert node.depth == 1
    assert expandable_leaves(frontier, max_depth=1) == []
    assert expandable_leaves(frontier, max_depth=2) == [node]


def test_expand_two_rounds_gives_product_masses():
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("t0",))]))
    advance(tree, "a")
    leaf = next(n for n in tree.leaves() if not n.is_other)
    # first round open-ended (expandable), second round terminal
    expand(tree, leaf, prediction_set([Prediction(("b",), 0.5, ("t1",)),
                                       Prediction(("c",), 0.5, ("t2",))]))
    advance(tree, "b")
    leaf2 = next(n for n in tree.leaves() if not n.is_other and n.consumed)
    expand(tree, leaf2, ps_of(("d", 0.6, "t3"), ("e", 0.4, "t4")))
    lows = sorted(n.path_p for n in tree.leaves() if not n.is_other and n.depth == 3)
    # renormalized after 'b' matched: 0.5-branch becomes 1.0, then 0.6/0.4 split
    assert lows == pytest.approx([0.4, 0.6], abs=1e-9)
    assert total_mass(tree) == pytest.approx(1.0, abs=1e-9)


def test_expand_no_prediction_becomes_other_only():
    # the session hands NoPrediction to expand as the empty tuple (tested in
    # test_no_prediction_at_an_expansion_gives_the_leaf_an_other_child_only)
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("t",))]))
    advance(tree, "a")
    node = next(n for n in tree.leaves() if not n.is_other)
    assert expand(tree, node, ())
    assert node.children and all(c.is_other for c in node.children)
    assert node.children[0].path_p == node.path_p
    assert total_mass(tree) == pytest.approx(1.0, abs=1e-12)


def test_expand_leaves_a_node_it_may_not_grow_alone():
    ranked = ps_of(("p", 0.5, "tp"))
    tree = build_tree((), prediction_set([Prediction(("a",), 0.4, ("ta",)),
                                          Prediction(("a", "b"), 0.3, ("tab",)),
                                          Prediction(("a", END), 0.2, ("tz",))]))
    advance(tree, "a")
    grown, unconsumed, terminal, other = tree.root.children
    assert expand(tree, grown, ranked)
    before = tree.dump()
    # an other node, a node with children, one not fully consumed, a terminal one
    for node in (other, grown, unconsumed, terminal):
        assert not expand(tree, node, ranked)
        assert tree.dump() == before


def test_prune_folds_below_epsilon():
    tree = build_tree((), shopping_ps())
    assert prune(tree, 0.25)
    named = named_leaves(tree)
    other = [n for n in tree.leaves() if n.is_other]
    assert [n.path_p for n in named] == [0.4, 0.3]
    assert other[0].path_p == pytest.approx(0.3, abs=1e-9)
    assert total_mass(tree) == pytest.approx(1.0, abs=1e-12)
    tree = build_tree((), shopping_ps())
    assert prune(tree, 0.3)  # a node at exactly epsilon is not below it
    assert [n.path_p for n in named_leaves(tree)] == [0.4, 0.3]


def test_prune_identity_when_nothing_to_do():
    tree = build_tree((), shopping_ps())
    before = tree.dump()
    assert not prune(tree, 0.0)
    assert tree.dump() == before


def test_prune_all_below_epsilon_gives_other_only():
    tree = build_tree((), shopping_ps())
    assert prune(tree, 0.5)
    assert named_leaves(tree) == []
    assert total_mass(tree) == pytest.approx(1.0, abs=1e-12)


def test_prune_folds_below_the_root_into_the_parents_own_other():
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("ta",))]))
    advance(tree, "a")
    node = tree.root.children[0]
    expand(tree, node, ps_of(("p", 0.6, "tp"), ("q", 0.3, "tq"), ("r", 0.05, "tr")))
    assert prune(tree, 0.35)  # q and r fall below epsilon, p stays
    *named, other = node.children
    assert [n.edge[0] for n in named] == ["p"]
    assert other.path_p == pytest.approx(0.4, abs=1e-12)  # q, r and the residual
    assert tree.root.children[-1].path_p == 0.0
    check_invariants(tree)


def test_prune_never_removes_named_at_or_above_epsilon():
    rng = random.Random(99)
    for _ in range(100):
        tree = random_tree(rng)
        eps = rng.choice([0.01, 0.05, 0.2])
        before = {id(n): n.path_p for n in tree.walk()
                  if not n.is_other and n.path_p >= eps}
        prune(tree, eps)
        after = {id(n) for n in tree.walk()}
        assert all(i in after for i in before)


def test_leaf_hypotheses_sorted_and_excludes_other():
    # the named leaves in walk order, here sibling order; consensus sorts
    # them, so every order of them commits the same template
    tree = build_tree((), shopping_ps())
    hyps = leaf_hypotheses(tree)
    assert [m for _, m, _ in hyps] == [0.4, 0.3, 0.2]
    assert all(terminal for _, _, terminal in hyps)
    assert hyps[0][0][0] == "Yesterday"
    for order in itertools.permutations(hyps):
        assert consensus(order, 0.9).render() == "Yesterday , I [*] with my friend"
    assert leaf_hypotheses(build_tree((), ())) == []


def test_leaf_hypotheses_order_does_not_follow_sibling_order():
    # equal mass and translation: consensus ranks the truncated one first,
    # whatever the siblings' order, so a tau cut between them keeps the
    # cover open
    tree = build_tree((), prediction_set([Prediction(("a", END), 0.45, ("t",)),
                                          Prediction(("b",), 0.45, ("t",))]))
    hyps = leaf_hypotheses(tree)
    assert Counter(hyps) == Counter([(("t",), 0.45, False), (("t",), 0.45, True)])
    assert consensus(hyps, 0.45) == TargetTemplate(("t",), ())
    *named, other = tree.root.children
    tree.root.children = named[::-1] + [other]
    assert leaf_hypotheses(tree) == hyps[::-1]
    assert consensus(hyps[::-1], 0.45) == TargetTemplate(("t",), ())


def test_leaf_hypotheses_after_advance():
    tree = build_tree((), ps_of(("a x", 0.4, "ta"), ("b x", 0.3, "tb"),
                                ("c x", 0.2, "tc")))
    advance(tree, "a")
    hyps = leaf_hypotheses(tree)
    assert len(hyps) == 1
    assert hyps[0][1] == pytest.approx(0.8, abs=1e-12)


def test_dump_golden():
    tree = build_tree(tuple("私は 昨日 、 友達 と".split()), shopping_ps())
    assert tree.dump() == (
        ". p=1.0000\n"
        "  + 映画 を 見 に 行った [0/5] p=0.4000 <end>\n"
        "  + 食事 を した [0/3] p=0.3000 <end>\n"
        "  + 公園 に 行った [0/3] p=0.2000 <end>\n"
        "  + (other) p=0.1000\n"
    )


# ---------------------------------------------------------------------------
# randomized suites


def random_ps(rng, k_max=5, terminal_bias=0.5):
    vocab = ["u", "v", "w", "x", "y"]
    count = rng.randint(1, k_max)
    conts = set()
    while len(conts) < count:
        ln = rng.randint(1, 4)
        conts.add(tuple(rng.choice(vocab) for _ in range(ln)))
    items = []
    budget = rng.uniform(0.5, 1.0)
    raw = [rng.uniform(0.05, 1.0) for _ in conts]
    scale = budget / sum(raw)
    for cont, mass in zip(sorted(conts), raw):
        if rng.random() < terminal_bias:
            cont = cont + (END,)
        items.append(Prediction(cont, mass * scale, ("t",) + cont))
    return prediction_set(items)


def random_tree(rng):
    tree = build_tree((), random_ps(rng))
    for _ in range(rng.randint(0, 6)):
        mutate_tree(tree, rng)
    return tree


def mutate_tree(tree, rng):
    op = rng.randrange(3)
    if op == 0:
        token = _some_token(tree, rng)
        advance(tree, token)
    elif op == 1:
        leaves = expandable_leaves(tree.leaves(), max_depth=3)
        if leaves:
            node = rng.choice(leaves)
            expand(tree, node, random_ps(rng) if rng.random() < 0.8 else ())
    else:
        prune(tree, rng.choice([0.0, 0.02, 0.1]))


def _some_token(tree, rng):
    frontier = [n.edge[n.edge_pos] for n in tree.walk()
                if not n.is_other and n.edge_pos < len(n.edge)]
    if frontier and rng.random() < 0.7:
        return rng.choice(frontier)
    return rng.choice(["u", "v", "w", "x", "y", "zz"])


def check_invariants(tree):
    assert abs(total_mass(tree) - 1.0) <= 1e-9
    for node in tree.walk():
        assert 0 <= node.edge_pos <= len(node.edge)
        if node.children:  # exactly one other child, and it is last
            assert [c.is_other for c in node.children][-1:] == [True]
            assert sum(c.is_other for c in node.children) == 1
            kid_sum = math.fsum(c.path_p for c in node.children)
            assert abs(kid_sum - node.path_p) <= 1e-9
    assert Counter(leaf_hypotheses(tree)) == Counter(
        (n.translation, n.path_p, n.terminal) for n in named_leaves(tree))


# Hypothesis counterparts of random_ps and mutate_tree: the same operations,
# drawn as data so a failure shrinks to a short printable sequence. "follow"
# advances along one hypothesis to the end of its edge, so that expansions,
# and advances below them, are common.
VOCAB = ["u", "v", "w", "x", "y"]


@st.composite
def prediction_sets(draw):
    """1-5 distinct continuations over VOCAB whose masses sum to 0.5-1."""
    cont = st.lists(st.sampled_from(VOCAB), min_size=1, max_size=4).map(tuple)
    drawn = draw(st.lists(st.tuples(cont, st.floats(0.05, 1.0), st.booleans()),
                          min_size=1, max_size=5, unique_by=lambda t: t[0]))
    scale = draw(st.floats(0.5, 1.0)) / sum(mass for _, mass, _ in drawn)
    items = []
    for cont, mass, terminal in drawn:
        if terminal:
            cont = cont + (END,)
        items.append(Prediction(cont, mass * scale, ("t",) + cont))
    return prediction_set(items)


# an int picks a frontier token, as _some_token does most of the time, so two
# of the three branches are ints; a str is observed as is
TOKEN_PICKS = st.integers(0, 9) | st.integers(10, 99) | st.sampled_from(VOCAB + ["zz"])
# an expansion draws its prediction set only when there is a leaf to expand;
# True expands by the empty tuple instead
OPERATIONS = st.one_of(
    st.tuples(st.just("advance"), TOKEN_PICKS),
    st.tuples(st.just("follow"), st.integers(0, 9)),
    st.tuples(st.just("expand"), st.integers(0, 9), st.booleans()),
    st.tuples(st.just("prune"), st.sampled_from([0.0, 0.02, 0.1])),
)
TREE_PROPERTY = settings(derandomize=True, max_examples=300, database=None, deadline=None)


def picked_token(tree, pick):
    if isinstance(pick, str):
        return pick
    frontier = [n.edge[n.edge_pos] for n in tree.walk()
                if not n.is_other and n.edge_pos < len(n.edge)]
    return frontier[pick % len(frontier)] if frontier else "zz"


def advanced(tree, token):
    """advance, checking that the frontier it hands back is the tree's
    leaves, by identity and in walk order."""
    out = advance(tree, token)
    assert [id(n) for n in out.frontier] == [id(n) for n in tree.leaves()]
    return out


def apply_operation(tree, op, data):
    if op[0] == "advance":
        advanced(tree, picked_token(tree, op[1]))
    elif op[0] == "follow":
        frontier = [n for n in tree.walk() if not n.is_other and not n.consumed]
        if frontier:
            node = frontier[op[1] % len(frontier)]
            for token in node.edge[node.edge_pos:]:
                advanced(tree, token)
    elif op[0] == "expand":
        leaves = expandable_leaves(tree.leaves(), max_depth=3)
        if leaves:
            node = leaves[op[1] % len(leaves)]
            expand(tree, node, () if op[2] else data.draw(prediction_sets()))
    else:
        prune(tree, op[1])


@TREE_PROPERTY
@given(prediction_sets(), st.lists(OPERATIONS, min_size=4, max_size=12), st.data())
def test_mass_conservation_random_operation_sequences(ps, ops, data):
    tree = build_tree((), ps)
    check_invariants(tree)
    for op in ops:
        apply_operation(tree, op, data)
        check_invariants(tree)


@TREE_PROPERTY
@given(prediction_sets(), st.lists(OPERATIONS, min_size=2, max_size=6), TOKEN_PICKS,
       st.data())
def test_advance_matches_bruteforce_bayes(ps, ops, pick, data):
    tree = build_tree((), ps)
    for op in ops:
        apply_operation(tree, op, data)
    token = picked_token(tree, pick)
    want_diverged, want_masses = tree_survivor_oracle(tree, token)
    out = advance(tree, token)
    assert out.diverged == want_diverged
    if not out.diverged:
        # surviving leaves keep identity; compare masses pointwise
        got = {id(n): n.path_p for n in tree.leaves()}
        assert set(got) == set(want_masses)
        for leaf_id, mass in want_masses.items():
            assert abs(got[leaf_id] - mass) <= 1e-9


@TREE_PROPERTY
@given(prediction_sets(), st.lists(OPERATIONS, max_size=8),
       st.lists(TOKEN_PICKS, min_size=1, max_size=8),
       st.sampled_from([0.0, 0.02, 0.1]), st.data())
def test_an_advance_that_moved_nothing_leaves_a_pruned_tree_pruned(ps, ops, picks,
                                                                  epsilon, data):
    # the session skips prune on such a tick
    tree = build_tree((), ps)
    for op in ops:
        apply_operation(tree, op, data)
    prune(tree, epsilon)
    for pick in picks:
        if advanced(tree, picked_token(tree, pick)).moved:
            prune(tree, epsilon)
        else:
            assert not prune(tree, epsilon)


def test_tree_operations_and_a_replay_leave_no_cyclic_garbage(
        shopping_backend, shopping_table, shopping_transcript):
    ranked = ps_of(("p", 0.5, "tp"), ("q", 0.3, "tq"))
    gc.collect()
    gc.disable()
    try:
        tree = build_tree((), prediction_set(
            [Prediction(("a",), 0.5, ("ta",)), Prediction(("b",), 0.3, ("tb",))]))
        for node in expandable_leaves(advance(tree, "a").frontier, 3):
            expand(tree, node, ranked)
        advance(tree, "p")
        prune(tree, 0.2)
        leaf_hypotheses(tree)
        session = start_session(EngineConfig(), ContextDoc("daily-life"),
                                shopping_backend, shopping_table)
        replay(shopping_transcript, session)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_identical_operation_sequences_give_identical_trees():
    for _ in range(3):
        rng = random.Random(555)
        tree = build_tree((), random_ps(rng))
        for _ in range(8):
            mutate_tree(tree, rng)
        dump = tree.dump()
        rng2 = random.Random(555)
        tree2 = build_tree((), random_ps(rng2))
        for _ in range(8):
            mutate_tree(tree2, rng2)
        assert tree2.dump() == dump

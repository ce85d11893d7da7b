"""Prediction tree: build, Bayes advance, expansion, pruning, conservation."""

from __future__ import annotations

import math
import random

import pytest

from specsim.ngram import END
from specsim.predictor import NoPrediction, Prediction, prediction_set
from specsim.stream import ContextDoc
from specsim.tree import (advance, build_tree, expand, expandable_leaves,
                          leaf_hypotheses, prune)

from oracles import tree_survivor_oracle

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


class FixedBackend:
    """Maps exact prefixes to prediction sets; NoPrediction otherwise."""

    def __init__(self, entries):
        self.entries = {tuple(k): v for k, v in entries.items()}

    def predict(self, context, prefix, k, aux=None):
        ps = self.entries.get(tuple(prefix))
        if ps is None:
            raise NoPrediction("missing")
        return ps


def masses(tree):
    return [round(leaf.path_p, 10) for leaf in tree.leaves()]


def test_build_tree_shopping_masses():
    tree = build_tree(("私は", "昨日", "、", "友達", "と"), shopping_ps())
    named = [n for n in tree.leaves() if not n.is_other]
    other = [n for n in tree.leaves() if n.is_other]
    assert [n.path_p for n in named] == [0.4, 0.3, 0.2]
    assert len(other) == 1
    assert other[0].path_p == pytest.approx(0.1, abs=1e-9)
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert all(n.terminal for n in named)


def test_build_tree_single_certain_prediction():
    tree = build_tree((), ps_of(("a b", 1.0, "x y")))
    named = [n for n in tree.leaves() if not n.is_other]
    other = [n for n in tree.leaves() if n.is_other]
    assert len(named) == 1 and named[0].path_p == 1.0
    assert other[0].path_p == 0.0


def test_build_tree_no_prediction_is_other_only():
    tree = build_tree(("x",), None)
    assert tree.named_leaf_count() == 0
    assert tree.total_mass() == 1.0


def test_advance_bayes_hand_example():
    tree = build_tree((), ps_of(("a x", 0.4, "ta"), ("b x", 0.3, "tb"),
                                ("c x", 0.2, "tc")))
    out = advance(tree, "a")
    assert not out.diverged and out.named_leaves == 1
    named = [n for n in tree.leaves() if not n.is_other]
    other = [n for n in tree.leaves() if n.is_other]
    assert named[0].path_p == pytest.approx(0.8, abs=1e-12)
    assert other[0].path_p == pytest.approx(0.2, abs=1e-12)
    assert named[0].edge_pos == 1


def test_advance_divergence_collapses_to_other():
    tree = build_tree(tuple("私は 昨日 、 友達 と".split()), shopping_ps())
    out = advance(tree, "買い物")
    assert out.diverged
    assert tree.named_leaf_count() == 0
    assert tree.total_mass() == 1.0


def test_advance_certain_single_child_keeps_mass():
    tree = build_tree((), ps_of(("a b", 1.0, "t")))
    out = advance(tree, "a")
    assert not out.diverged
    named = [n for n in tree.leaves() if not n.is_other]
    assert named[0].path_p == 1.0


def test_advance_fully_consumed_leaf_dies():
    tree = build_tree((), ps_of(("a", 0.6, "ta"), ("a b", 0.3, "tb")))
    advance(tree, "a")
    out = advance(tree, "b")  # the terminal one-token hypothesis cannot match
    assert not out.diverged
    named = [n for n in tree.leaves() if not n.is_other]
    assert len(named) == 1
    assert named[0].translation == ("tb",)


def test_expand_scales_children_to_node_mass():
    backend = FixedBackend({("a",): ps_of(("p", 0.5, "tp"), ("q", 0.5, "tq"))})
    tree = build_tree((), prediction_set(
        [Prediction(("a",), 0.4, ("ta",)), Prediction(("z", END), 0.6, ("tz",))]))
    advance(tree, "a")  # consume the non-terminal edge; z dies
    node = next(n for n in tree.leaves() if not n.is_other and n.consumed)
    assert expand(tree, node, backend, CTX, ("a",), 4)
    kids = [c for c in node.children if not c.is_other]
    assert [c.path_p for c in kids] == pytest.approx(
        [0.5 * node.path_p, 0.5 * node.path_p])
    assert node.translation is None
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_expand_depth_cap_is_noop():
    backend = FixedBackend({("a",): ps_of(("x", 1.0, "t"))})
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("t",))]))
    advance(tree, "a")
    node = next(n for n in tree.leaves() if not n.is_other)
    assert node.depth == 1
    assert expandable_leaves(tree, max_depth=1) == []
    assert not expand(tree, node, backend, CTX, ("a",), 4, max_depth=1)
    assert node.is_leaf()


def test_expand_two_rounds_gives_product_masses():
    backend = FixedBackend({
        # first round open-ended (expandable), second round terminal
        ("a",): prediction_set([Prediction(("b",), 0.5, ("t1",)),
                                Prediction(("c",), 0.5, ("t2",))]),
        ("a", "b"): ps_of(("d", 0.6, "t3"), ("e", 0.4, "t4")),
    })
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("t0",))]))
    advance(tree, "a")
    leaf = next(n for n in tree.leaves() if not n.is_other)
    expand(tree, leaf, backend, CTX, ("a",), 4)
    advance(tree, "b")
    leaf2 = next(n for n in tree.leaves() if not n.is_other and n.consumed)
    expand(tree, leaf2, backend, CTX, ("a", "b"), 4)
    lows = sorted(n.path_p for n in tree.leaves() if not n.is_other and n.depth == 3)
    # renormalized after 'b' matched: 0.5-branch becomes 1.0, then 0.6/0.4 split
    assert lows == pytest.approx([0.4, 0.6], abs=1e-9)
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_expand_no_prediction_becomes_other_only():
    backend = FixedBackend({})
    tree = build_tree((), prediction_set([Prediction(("a",), 1.0, ("t",))]))
    advance(tree, "a")
    node = next(n for n in tree.leaves() if not n.is_other)
    expand(tree, node, backend, CTX, ("a",), 4)
    assert node.children and all(c.is_other for c in node.children)
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_prune_folds_below_epsilon():
    tree = build_tree((), shopping_ps())
    assert prune(tree, 0.25, 4)
    named = [n for n in tree.leaves() if not n.is_other]
    other = [n for n in tree.leaves() if n.is_other]
    assert [n.path_p for n in named] == [0.4, 0.3]
    assert other[0].path_p == pytest.approx(0.3, abs=1e-9)
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_prune_identity_when_nothing_to_do():
    tree = build_tree((), shopping_ps())
    before = tree.dump()
    assert not prune(tree, 0.0, 4)
    assert tree.dump() == before


def test_prune_all_below_epsilon_gives_other_only():
    tree = build_tree((), shopping_ps())
    assert prune(tree, 0.5, 4)
    assert tree.named_leaf_count() == 0
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_prune_k_cap_folds_lowest():
    tree = build_tree((), shopping_ps())
    assert prune(tree, 0.0, 2)
    named = [n for n in tree.leaves() if not n.is_other]
    assert [n.path_p for n in named] == [0.4, 0.3]
    assert tree.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_prune_never_removes_named_at_or_above_epsilon():
    rng = random.Random(99)
    for _ in range(100):
        tree = random_tree(rng)
        eps = rng.choice([0.01, 0.05, 0.2])
        before = {id(n): n.path_p for n in tree.walk()
                  if not n.is_other and n.path_p >= eps}
        prune(tree, eps, k=99)
        after = {id(n) for n in tree.walk()}
        assert all(i in after for i in before)


def test_leaf_hypotheses_sorted_and_excludes_other():
    tree = build_tree((), shopping_ps())
    hyps = leaf_hypotheses(tree)
    assert [m for _, m in hyps] == [0.4, 0.3, 0.2]
    assert hyps[0][0][0] == "Yesterday"
    assert build_tree((), None) is not None
    assert leaf_hypotheses(build_tree((), None)) == []


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
        leaves = expandable_leaves(tree, max_depth=3)
        if leaves:
            node = rng.choice(leaves)
            ps = random_ps(rng) if rng.random() < 0.8 else None
            prefix = node.edge  # the backend answers whatever prefix expand passes
            backend = FixedBackend({} if ps is None else {prefix: ps})
            expand(tree, node, backend, CTX, prefix, 5)
    else:
        prune(tree, rng.choice([0.0, 0.02, 0.1]), rng.randint(1, 5))


def _some_token(tree, rng):
    frontier = [n.edge[n.edge_pos] for n in tree.walk()
                if not n.is_other and n.edge_pos < len(n.edge)]
    if frontier and rng.random() < 0.7:
        return rng.choice(frontier)
    return rng.choice(["u", "v", "w", "x", "y", "zz"])


def check_invariants(tree):
    assert abs(tree.total_mass() - 1.0) <= 1e-9
    for node in tree.walk():
        assert 0 <= node.edge_pos <= len(node.edge)
        assert sum(c.is_other for c in node.children) <= 1
        if node.children:
            kid_sum = math.fsum(c.path_p for c in node.children)
            assert abs(kid_sum - node.path_p) <= 1e-9


def test_mass_conservation_random_operation_sequences():
    rng = random.Random(2024)
    for _ in range(300):
        tree = build_tree((), random_ps(rng))
        check_invariants(tree)
        for _ in range(rng.randint(1, 12)):
            mutate_tree(tree, rng)
            check_invariants(tree)


def test_advance_matches_bruteforce_bayes():
    rng = random.Random(77)
    for _ in range(300):
        tree = random_tree(rng)
        token = _some_token(tree, rng)
        want_diverged, want_masses = tree_survivor_oracle(tree, token)
        out = advance(tree, token)
        assert out.diverged == want_diverged
        if not out.diverged:
            got = {id(n): n.path_p for n in tree.leaves()}
            # surviving leaves keep identity; compare masses pointwise
            for leaf_id, mass in want_masses.items():
                assert leaf_id in got
                assert abs(got[leaf_id] - mass) <= 1e-9


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

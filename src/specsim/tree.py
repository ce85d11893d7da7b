"""Mass-conserving speculative tree of source continuations.

The root anchors at the source prefix the tree was built on, with mass 1;
`anchor` is that prefix as given (for the session, an O(1) view of its
observed tokens at build time), never copied. The tree does not track the
tokens observed since, and it never calls a backend: `build_tree` and
`expand` take the ranked tuple their caller got for the source prefix.
Each named child carries a multi-token continuation edge, a full-sentence
target translation while it is a leaf, and its path probability.
Observation consumes edge tokens one at a time; survivors are renormalized
Bayes-style on their prior masses.

A node's children are one named child per prediction of a backend's ranked
tuple and an other child with its residual_mass, 1 - sum of p. The session
runs every tuple through check_predictions before `build_tree` or `expand`
sees it, so a node has at most k named children and its children's masses
sum to its own. The session hands NoPrediction on as the empty tuple: the
other child takes all of the node's mass.

`advance` visits the tree once per token. That visit also finds whether a
named leaf survived and, on a tree with no internal node, the survivors'
mass, so nothing walks the leaves again. It hands back the frontier it
visited, so its caller finds the leaves to expand without another walk, and
says whether a named node lost mass, so its caller can skip a `prune` that
would change nothing.

Two invariants hold for every tree these functions build or change:
- every internal node has exactly one "other" child, a leaf that absorbs
  residual and pruned mass, and it is the node's last child;
- others survive every token, so an internal node never loses its last
  child and `advance` removes only leaves.

A tree is owned by one session and mutated single-threaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .ngram import END
from .predictor import Prediction, residual_mass

_RENORM_SKIP = 1e-12  # full survival: S is mathematically 1, skip the noisy division


class TreeNode:
    __slots__ = ("is_other", "edge", "edge_pos", "path_p", "translation",
                 "terminal", "children", "depth")

    def __init__(self, is_other: bool, edge: tuple[str, ...], path_p: float,
                 translation: tuple[str, ...] | None, terminal: bool, depth: int):
        self.is_other = is_other
        self.edge = edge
        self.edge_pos = 0
        self.path_p = path_p
        self.translation = translation
        self.terminal = terminal
        self.children: list[TreeNode] = []
        self.depth = depth

    @property
    def consumed(self) -> bool:
        return self.edge_pos == len(self.edge)


def _other(path_p: float, depth: int) -> TreeNode:
    return TreeNode(True, (), path_p, None, False, depth)


class PredictionTree:
    def __init__(self, anchor: Sequence[str]):
        self.anchor = anchor
        self.root = TreeNode(False, (), 1.0, None, False, 0)

    def walk(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator[TreeNode]:
        return (n for n in self.walk() if not n.children and n is not self.root)

    def dump(self) -> str:
        """Deterministic indented rendering used by golden tests."""
        lines = [f". p={self.root.path_p:.4f}"]
        nodes = self.walk()
        next(nodes)  # the root
        for node in nodes:
            pad = "  " * node.depth
            if node.is_other:
                lines.append(f"{pad}+ (other) p={node.path_p:.4f}")
            else:
                edge = " ".join(node.edge)
                mark = " <end>" if node.terminal else ""
                lines.append(f"{pad}+ {edge} [{node.edge_pos}/{len(node.edge)}]"
                             f" p={node.path_p:.4f}{mark}")
        return "\n".join(lines) + "\n"


@dataclass(slots=True)
class MatchOutcome:
    """Result of advancing one observed token."""

    diverged: bool
    changed: bool  # any subtree removed or leaf masses renormalized
    moved: bool  # a named node below the root ended with less mass
    frontier: list[TreeNode]  # the surviving leaves, in walk order


def _attach_predictions(node: TreeNode, predictions: Sequence[Prediction],
                        scale: float, depth: int):
    """Children from ranked predictions and their residual, summing to `scale`.
    The edge is the continuation without its end marker."""
    kids = []
    for pr in predictions:
        cont = pr.continuation
        terminal = bool(cont) and cont[-1] == END
        kids.append(TreeNode(False, cont[:-1] if terminal else cont, pr.p * scale,
                             pr.translation, terminal, depth))
    kids.append(_other(residual_mass(predictions) * scale, depth))
    node.children = kids


def build_tree(prefix: Sequence[str], predictions: Sequence[Prediction]) -> PredictionTree:
    """Fresh tree anchored at prefix (not copied); no predictions: other-only."""
    tree = PredictionTree(prefix)
    _attach_predictions(tree.root, predictions, 1.0, 1)
    return tree


def _consume(node: TreeNode, token: str, leaves: list[TreeNode],
             inner: list[tuple[TreeNode, float]]) -> tuple[bool, bool]:
    """Advance the subtree under `node` by one token, appending its surviving
    leaves, and its internal nodes with their masses before. Sets `node`'s
    mass to the sum of its surviving children and returns whether any node
    was removed and whether a named leaf survived."""
    kept = []
    removed = named = False
    for c in node.children:
        if c.children:  # consumed; its other survives, so it does too
            inner.append((c, c.path_p))
            sub_removed, sub_named = _consume(c, token, leaves, inner)
            removed = removed or sub_removed
            named = named or sub_named
        elif not c.is_other:
            if c.edge_pos == len(c.edge) or c.edge[c.edge_pos] != token:
                continue
            c.edge_pos += 1
            named = True
            leaves.append(c)
        else:
            leaves.append(c)
        kept.append(c)
    if len(kept) != len(node.children):
        node.children = kept
        removed = True
    node.path_p = math.fsum(c.path_p for c in kept)
    return removed, named


def advance(tree: PredictionTree, token: str) -> MatchOutcome:
    """Consume one observed source token.

    Named frontier nodes survive iff their next unconsumed edge token equals
    the observed one; other nodes are consistent with anything. Fully
    consumed leaves cannot match (their hypothesis claimed the sentence was
    over or was never expanded). Survivor masses renormalize on their priors;
    with no surviving named leaf the tree collapses to other-only mass 1.

    The outcome's frontier is the tree's leaves, `list(tree.leaves())`,
    collected by this one visit. It stays exact until the tree is next
    expanded or pruned. `moved` is false when no named node below the root
    ended with less mass than it had. Sibling sets only shrink, so then
    every named node at or above epsilon still is, and a pruned tree is
    still pruned. Leaves lose mass only if the survivors summed above 1, so
    on a tree without internal nodes an advance practically never moves.
    """
    leaves: list[TreeNode] = []
    inner: list[tuple[TreeNode, float]] = []
    removed, named = _consume(tree.root, token, leaves, inner)

    if not named:
        tree.root = TreeNode(False, (), 1.0, None, False, 0)
        other = _other(1.0, 1)
        tree.root.children = [other]
        return MatchOutcome(True, True, True, [other])

    # without internal nodes the root's children are the leaves, and
    # _consume set its mass to their fsum, which is correctly rounded
    s = math.fsum(n.path_p for n in leaves) if inner else tree.root.path_p
    scaled = abs(s - 1.0) > _RENORM_SKIP
    if scaled:
        inv = 1.0 / s
        for n in leaves:
            n.path_p *= inv
        for n, _ in inner:
            n.path_p *= inv
        tree.root.path_p = 1.0
    moved = scaled and s > 1.0
    for n, mass in inner:
        if n.path_p < mass:
            moved = True
    return MatchOutcome(False, removed or scaled, moved, leaves)


def expand(tree: PredictionTree, node: TreeNode, ranked: Sequence[Prediction]) -> bool:
    """Grow children under a fully consumed named leaf from a ranked tuple.

    ranked is the checked tuple for the source the node's hypothesis has
    consumed, which the caller knows: a leaf that survived every advance
    since the tree was built has consumed exactly the tokens observed since
    the anchor, so for the session it is its whole observed prefix. The
    caller applies the depth cap. The empty tuple is an other-only
    expansion carrying the full node mass. An other node, or one that has
    children, is terminal or is not fully consumed, is left alone. Returns
    whether the tree changed.
    """
    if node.is_other or node.children or not node.consumed or node.terminal:
        return False
    _attach_predictions(node, ranked, node.path_p, node.depth + 1)
    node.translation = None
    return True


def expandable_leaves(frontier: Iterable[TreeNode], max_depth: int) -> list[TreeNode]:
    """The named leaves of `frontier` (an advance's, or `tree.leaves()`) whose
    edge is fully consumed, below the depth cap."""
    return [n for n in frontier
            if not n.is_other and n.consumed and not n.terminal
            and n.depth < max_depth]


def prune(tree: PredictionTree, epsilon: float) -> bool:
    """Fold the named nodes below epsilon into their parent's other.

    The named siblings at or above epsilon stay, in sibling order. Mass is
    conserved exactly: every removed subtree's mass lands in the last child,
    the other. Returns whether anything changed. No cap on the number of
    children is needed: they come only from a checked tuple of at most k.

    Only the structure and the named nodes' masses are read, and a second
    run with the same arguments changes nothing. So after a run, the
    next one can change something only once an `expand`, or an `advance`
    whose outcome has `moved`, changed the tree.
    """
    changed = False
    stack = [tree.root]
    while stack:
        parent = stack.pop()
        *named, other = parent.children
        keep = [c for c in named if c.path_p >= epsilon]
        if len(keep) != len(named):
            other.path_p += math.fsum(c.path_p for c in named if c.path_p < epsilon)
            keep.append(other)
            parent.children = keep
            changed = True
        stack.extend(c for c in keep if c.children)
    return changed


def named_mass(tree: PredictionTree) -> float:
    """The named leaves' total mass, correctly rounded, in one walk and
    without the sort that `leaf_hypotheses` does."""
    masses = []
    stack = [tree.root]
    while stack:
        for node in stack.pop().children:
            if node.children:
                stack.append(node)
            elif not node.is_other:
                masses.append(node.path_p)
    return math.fsum(masses)


def leaf_hypotheses(tree: PredictionTree) -> list[tuple[tuple[str, ...], float, bool]]:
    """Named-leaf (translation, mass, terminal) triples, mass descending, then
    translation lexicographic, then truncated before terminal, so the order
    does not depend on the order of siblings."""
    out = []
    stack = list(tree.root.children)
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(node.children)
        elif not node.is_other:
            out.append((node.translation, node.path_p, node.terminal))
    out.sort(key=lambda h: (-h[1], h[0], h[2]))
    return out

"""Mass-conserving speculative tree of source continuations.

The root anchors at the source prefix the tree was built on, with mass 1;
`anchor` is that prefix as given (for the session, an O(1) view of its
observed tokens at build time), never copied. The tree does not track the
tokens observed since, so `expand` takes a hypothesis's source prefix from
its caller. Each named child carries a multi-token continuation edge, a
full-sentence target translation while it is a leaf, and its path
probability. Observation consumes edge tokens one at a time; survivors
are renormalized Bayes-style on their prior masses.

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
from typing import Iterator, Sequence

from .predictor import Backend, NoPrediction, PredictionSet
from .stream import ContextDoc

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

    def total_mass(self) -> float:
        return math.fsum(n.path_p for n in self.leaves())

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


@dataclass(frozen=True, slots=True)
class MatchOutcome:
    """Result of advancing one observed token."""

    diverged: bool
    changed: bool  # any subtree removed or masses renormalized


def _attach_predictions(node: TreeNode, ps: PredictionSet | None, scale: float,
                        depth: int):
    """Children from a prediction set, scaled so their masses sum to `scale`."""
    if ps is None:
        node.children = [_other(scale, depth)]
        return
    kids = [TreeNode(False, pr.source_tokens, pr.p * scale, pr.translation,
                     pr.terminal, depth)
            for pr in ps.items]
    kids.append(_other(max(ps.other_mass, 0.0) * scale, depth))
    node.children = kids


def build_tree(prefix: Sequence[str], ps: PredictionSet | None) -> PredictionTree:
    """Fresh tree anchored at prefix (not copied); ps=None yields other-only."""
    tree = PredictionTree(prefix)
    _attach_predictions(tree.root, ps, 1.0, 1)
    return tree


def _consume(node: TreeNode, token: str, leaves: list[TreeNode],
             inner: list[TreeNode]) -> bool:
    """Advance the subtree under `node` by one token, appending its surviving
    leaves and internal nodes. Sets `node`'s mass to the sum of its surviving
    children and returns whether any node was removed."""
    kept = []
    removed = False
    for c in node.children:
        if c.children:  # consumed; its other survives, so it does too
            removed = _consume(c, token, leaves, inner) or removed
            inner.append(c)
        elif not c.is_other:
            if c.edge_pos == len(c.edge) or c.edge[c.edge_pos] != token:
                continue
            c.edge_pos += 1
            leaves.append(c)
        else:
            leaves.append(c)
        kept.append(c)
    if len(kept) != len(node.children):
        node.children = kept
        removed = True
    node.path_p = math.fsum(c.path_p for c in kept)
    return removed


def advance(tree: PredictionTree, token: str) -> MatchOutcome:
    """Consume one observed source token.

    Named frontier nodes survive iff their next unconsumed edge token equals
    the observed one; other nodes are consistent with anything. Fully
    consumed leaves cannot match (their hypothesis claimed the sentence was
    over or was never expanded). Survivor masses renormalize on their priors;
    with no surviving named leaf the tree collapses to other-only mass 1.
    """
    leaves: list[TreeNode] = []
    inner: list[TreeNode] = []
    removed = _consume(tree.root, token, leaves, inner)

    if all(n.is_other for n in leaves):
        tree.root = TreeNode(False, (), 1.0, None, False, 0)
        tree.root.children = [_other(1.0, 1)]
        return MatchOutcome(True, True)

    s = math.fsum(n.path_p for n in leaves)
    scaled = abs(s - 1.0) > _RENORM_SKIP
    if scaled:
        inv = 1.0 / s
        for n in leaves:
            n.path_p *= inv
        for n in inner:
            n.path_p *= inv
        tree.root.path_p = 1.0
    return MatchOutcome(False, removed or scaled)


def expand(tree: PredictionTree, node: TreeNode, backend: Backend,
           context: ContextDoc, prefix: Sequence[str], k: int,
           aux: Sequence[str] | None = None) -> bool:
    """Grow children under a fully consumed named leaf via the backend.

    prefix is the source the node's hypothesis has consumed, which the
    caller knows: a leaf that survived every advance since the tree was
    built has consumed exactly the tokens observed since the anchor, so for
    the session it is its whole observed prefix. The caller applies the
    depth cap. NoPrediction degrades to an other-only expansion carrying the
    full node mass. Returns whether the tree changed.
    """
    if node.is_other or node.children or not node.consumed or node.terminal:
        return False
    try:
        ps = backend.predict(context, prefix, k, aux)
    except NoPrediction:
        ps = None
    _attach_predictions(node, ps, node.path_p, node.depth + 1)
    node.translation = None
    return True


def expandable_leaves(tree: PredictionTree, max_depth: int) -> list[TreeNode]:
    """Named leaves whose edge is fully consumed, below the depth cap."""
    return [n for n in tree.leaves()
            if not n.is_other and n.consumed and not n.terminal
            and n.depth < max_depth]


def prune(tree: PredictionTree, epsilon: float, k: int) -> bool:
    """Fold low-mass named nodes and beyond-k children into their parent's other.

    Of more than k named siblings at or above epsilon, the k heaviest stay,
    the lexicographically smaller edge winning a tie, in sibling order. Mass
    is conserved exactly: every removed subtree's mass lands in the last
    child, the other. Returns whether anything changed.
    """
    changed = False
    stack = [tree.root]
    while stack:
        parent = stack.pop()
        *named, other = parent.children
        keep = [c for c in named if c.path_p >= epsilon]
        if len(keep) > k:
            top = sorted(keep, key=lambda c: (-c.path_p, c.edge))[:k]
            keep = [c for c in keep if c in top]
        if len(keep) != len(named):
            other.path_p += math.fsum(c.path_p for c in named if c not in keep)
            keep.append(other)
            parent.children = keep
            changed = True
        stack.extend(c for c in keep if c.children)
    return changed


def leaf_hypotheses(tree: PredictionTree) -> list[tuple[tuple[str, ...], float]]:
    """Named-leaf (translation, mass) pairs, mass descending then lexicographic."""
    out = [(n.translation, n.path_p) for n in tree.leaves()
           if not n.is_other and n.translation is not None]
    out.sort(key=lambda h: (-h[1], h[0]))
    return out

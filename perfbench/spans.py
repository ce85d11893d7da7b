"""Outside-in span tracer for the replay benchmark.

The program is not instrumented. For a traced round the benchmark replaces
specsim's public functions with timing wrappers, under the names the engine
looks them up by: `engine.py` does `from .tree import advance`, so the
wrapper goes on `specsim.engine.advance`, not on `specsim.tree.advance`.
Methods are wrapped on their class. Every call records a span (name, start,
end, parent span, utterance id) in memory; self time is a span's duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

# (metric prefix, owner, attribute). The owner is a module, or "module:Class"
# for a method wrapped on its class.
SPANS = (
    ("engine.step", "specsim.engine", "step"),
    ("engine.deliver", "specsim.engine", "deliver"),
    ("engine.catchup", "specsim.engine", "catchup"),
    ("engine.finalize", "specsim.engine", "finalize"),
    ("tree.advance", "specsim.engine", "advance"),
    ("tree.expand", "specsim.engine", "expand"),
    ("tree.prune", "specsim.engine", "prune"),
    ("tree.build_tree", "specsim.engine", "build_tree"),
    ("tree.leaf_hypotheses", "specsim.engine", "leaf_hypotheses"),
    ("tree.expandable_leaves", "specsim.engine", "expandable_leaves"),
    ("predictor.predict", "specsim.predictor:NgramBackend", "predict"),
    ("ngram.continuations", "specsim.ngram:NgramModel", "continuations"),
    ("ngram.perplexity", "specsim.ngram:NgramModel", "perplexity"),
    ("phrases.stream_extend", "specsim.phrases:StreamTranslation", "extend"),
    ("phrases.stream_preview", "specsim.phrases:StreamTranslation", "preview"),
    ("phrases.translate", "specsim.engine", "translate"),
    ("phrases.idiom_spans", "specsim.engine", "idiom_spans"),
    ("template.consensus", "specsim.engine", "consensus"),
    ("template.refine", "specsim.engine", "refine"),
    ("template.emittable", "specsim.engine", "emittable"),
    ("template.extend_into_hole", "specsim.engine", "extend_into_hole"),
    ("metrics.compute_report", "specsim.engine", "compute_report"),
    ("kernels.levenshtein", "specsim.metrics", "levenshtein"),
)

# Ratios and means measured at the span boundaries, with the direction in
# which an improvement moves them.
OBSERVED = {
    "tree.expand.useful_ratio": ("ratio", "higher"),
    "tree.nodes_mean": ("count", "lower"),
    "tree.anchor_len_mean": ("tokens", "lower"),
    "tree.hit_rate": ("ratio", "higher"),
    "predictor.prefix_len_mean": ("tokens", "lower"),
    "predictor.enum_cache_hit_ratio": ("ratio", "higher"),
    "predictor.tx_rebuild_ratio": ("ratio", "lower"),
    "phrases.stream_extend.tokens_copied": ("count", "lower"),
    "phrases.idiom_spans.tokens_scanned": ("count", "lower"),
    "template.refine.conflict_ratio": ("ratio", "lower"),
    "template.slots_mean": ("count", "lower"),
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span store plus the per-boundary counters behind OBSERVED."""

    def __init__(self):
        self.names = [name for name, _, _ in SPANS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_utt = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.utterance = -1
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self.sums = {key: 0 for key in (
            "advance_hits", "anchor_len", "nodes", "prefix_len", "tx_rebuilds",
            "tokens_copied", "tokens_scanned", "conflicts", "slots")}
        self._expanded: list = []  # named children created by expand

    # -- wrapping ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every SPANS entry for the duration of the block."""
        saved = []
        try:
            for ix, (name, owner_path, attr) in enumerate(SPANS):
                owner = _owner(owner_path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(ix, original, _OBSERVERS.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, ix: int, fn, observe):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.span_start)
            self.span_name.append(ix)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_utt.append(self.utterance)
            self.span_start.append(0)
            self.span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[ix] += 1
                self.self_ns[ix] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.span_start[sid] = start
                self.span_end[sid] = end
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self.names.index(name)]

    def observed(self, rounds: int) -> dict[str, float]:
        """OBSERVED values over everything traced so far, token counts per
        round; a ratio or mean with no samples reads 0.0."""
        s = self.sums

        def share(num, den):
            return num / den if den else 0.0

        predicts = self.count("predictor.predict")
        useful = sum(1 for node in self._expanded if node.edge_pos > 0)
        return {
            "tree.expand.useful_ratio": share(useful, len(self._expanded)),
            "tree.nodes_mean": share(s["nodes"], self.count("engine.step")),
            "tree.anchor_len_mean": share(s["anchor_len"], self.count("tree.advance")),
            "tree.hit_rate": share(s["advance_hits"], self.count("tree.advance")),
            "predictor.prefix_len_mean": share(s["prefix_len"], predicts),
            "predictor.enum_cache_hit_ratio":
                1.0 - share(self.count("ngram.continuations"), predicts),
            "predictor.tx_rebuild_ratio": share(s["tx_rebuilds"], predicts),
            "phrases.stream_extend.tokens_copied": s["tokens_copied"] / rounds,
            "phrases.idiom_spans.tokens_scanned": s["tokens_scanned"] / rounds,
            "template.refine.conflict_ratio":
                share(s["conflicts"], self.count("template.refine")),
            "template.slots_mean": share(s["slots"], self.count("template.refine")),
        }

    def write_tsv(self, path):
        """One line per span: id, parent, utterance, name, start and end in ns."""
        base = self.span_start[0] if self.span_start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tutterance\tname\tstart_ns\tend_ns\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_utt[sid]}\t"
                         f"{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid] - base}\t{self.span_end[sid] - base}\n")


# -- boundary observers: (tracer, call args, result) -------------------------

def _on_step(tr: Tracer, args, _result):
    tr.sums["nodes"] += sum(1 for _ in args[0].tree.walk())


def _on_advance(tr: Tracer, args, outcome):
    tr.sums["anchor_len"] += len(args[0].anchor)
    tr.sums["advance_hits"] += not outcome.diverged


def _on_expand(tr: Tracer, args, changed):
    if changed:
        tr._expanded.extend(c for c in args[1].children if not c.is_other)


def _on_predict(tr: Tracer, args, _result):
    tr.sums["prefix_len"] += len(args[2])


def _on_extend(tr: Tracer, args, _result):
    state, tokens = args[0], args[2]
    tr.sums["tokens_copied"] += len(state.src) + len(tokens) + len(state.out)
    # a restart from empty, counted once per predict that triggers it
    if not state.src and tokens and tr._stack \
            and tr.names[tr.span_name[tr._stack[-1][0]]] == "predictor.predict":
        tr.sums["tx_rebuilds"] += 1


def _on_idiom_spans(tr: Tracer, args, _result):
    tr.sums["tokens_scanned"] += len(args[1])


def _on_refine(tr: Tracer, args, result):
    tr.sums["slots"] += len(args[0].slots)
    tr.sums["conflicts"] += type(result).__name__ == "RevisionConflict"


_OBSERVERS = {
    "engine.step": _on_step,
    "tree.advance": _on_advance,
    "tree.expand": _on_expand,
    "predictor.predict": _on_predict,
    "phrases.stream_extend": _on_extend,
    "phrases.idiom_spans": _on_idiom_spans,
    "template.refine": _on_refine,
}

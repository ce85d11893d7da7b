"""Hand-written mutants of the engine's exactness claims, and their runner.

The hot path rests on shortcuts argued to be exact: the skips the
`engine.py` docstring names, the leaves `advance` hands back as completed,
`prune`'s one scan, and the thresholds `_TAU_SLACK`, `_RENORM_SKIP` and
epsilon. Each mutant below breaks one of them by replacing one exact text
of one file, and names the tests that must fail once it is applied, so a
change that drops the test that kills a mutant is caught. A mutant that
only skips work gives the same outputs, so no test can kill it: it is
marked equivalent, with the reason, and the runner only checks that its
text still applies. Mutation testing follows DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 1978.

Usage, from the repository root (the tests need pytest and hypothesis):
    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Each mutant runs in a fresh temporary copy of the tree. Exits 1 when a
mutant's text is not found exactly once, or a named test does not fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "fixtures", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # from the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...] = ()  # ids that must each fail
    equivalent: str = ""  # why no output can tell the mutant apart


TREE, ENGINE = "src/specsim/tree.py", "src/specsim/engine.py"
T_TREE, T_ENGINE = "tests/test_tree.py::", "tests/test_engine.py::"
PROPERTY = T_TREE + "test_completed_leaves_are_the_expandable_ones_and_prune_folds_exactly_below"
REFERENCE = T_ENGINE + "test_the_engine_matches_the_reference_after_every_tick"
SCRIPTED, NGRAM = REFERENCE + "[scripted]", REFERENCE + "[ngram]"

MUTANTS = (
    # -- the leaves advance hands back as completed
    Mutant("completed-with-terminal", TREE,
           "if pos == len(edge) and not c.terminal:", "if pos == len(edge):",
           (PROPERTY, T_TREE + "test_mass_conservation_random_operation_sequences",
            T_TREE + "test_an_advance_below_an_expansion_keeps_walk_order_and_can_leave_a_fold")),
    Mutant("completed-top-level-only", TREE,
           "_consume(c, token, leaves, inner, completed)", "_consume(c, token, leaves, inner, [])",
           (PROPERTY, T_TREE + "test_mass_conservation_random_operation_sequences", NGRAM)),
    # -- prune: one scan, at epsilon
    Mutant("prune-scan-skips-internal", TREE,
           "if c.path_p < epsilon and not c.is_other:",
           "if c.path_p < epsilon and not c.is_other and not c.children:",
           (PROPERTY, T_ENGINE + "test_a_hit_tick_leaves_the_tree_pruned")),
    Mutant("prune-folds-at-epsilon", TREE,
           "keep = [c for c in named if c.path_p >= epsilon]",
           "keep = [c for c in named if c.path_p > epsilon]",
           (PROPERTY, T_TREE + "test_prune_folds_below_epsilon")),
    Mutant("renorm-skip-1e-6", TREE, "_RENORM_SKIP = 1e-12", "_RENORM_SKIP = 1e-6",
           (T_TREE + "test_advance_renormalises_after_removing_a_tiny_mass",)),
    # -- the engine's skips
    Mutant("drift-baseline-inverted", ENGINE,
           "if self._baseline_ppl is None:", "if self._baseline_ppl is not None:",
           (T_ENGINE + "test_drift_shift_on_out_of_domain_window",
            T_ENGINE + "test_drift_never_fires_for_scripted_backend")),
    Mutant("drift-cadence-restarts", ENGINE,
           "self._next_drift = (n // cfg.drift_window + 1) * cfg.drift_window",
           "self._next_drift = n + cfg.drift_window",
           (T_ENGINE + "test_a_catchup_runs_the_drift_check_it_jumps_over",)),
    Mutant("no-prune-after-moved-advance", ENGINE,
           "if outcome.moved:\n                self._prune_due = True", "pass",
           (T_ENGINE + "test_a_hit_tick_leaves_the_tree_pruned",
            T_ENGINE + "test_an_expanded_node_that_loses_a_child_is_folded_on_the_hit_tick")),
    Mutant("prune-every-tick", ENGINE, "if self._prune_due:", "if True:",
           (T_ENGINE + "test_prune_follows_only_a_build_on_trees_without_internal_nodes",)),
    Mutant("no-commit-on-changed-advance", ENGINE,
           "if outcome.changed:\n                self._dirty = True", "pass", (SCRIPTED, NGRAM)),
    Mutant("commit-every-tick", ENGINE, "if self._dirty:", "if True:", (SCRIPTED, NGRAM)),
    Mutant("below-tau-without-slack", ENGINE, "< tau - 2 * _TAU_SLACK:", "< tau:",
           (T_ENGINE + "test_a_commit_at_the_bound_runs_the_full_path", NGRAM)),
    Mutant("cover-skip-without-identity", ENGINE,
           "if self.template is self._covered and cover == self._cover:",
           "if cover == self._cover:",
           (T_ENGINE + "test_after_a_catchup_the_same_cover_runs_in_full",
            T_ENGINE + "test_a_commit_at_the_bound_runs_the_full_path")),
    Mutant("cover-memo-after-conflict", ENGINE,
           "if self._refine(consensus(hyps, tau, cover), t_ms):",
           "if self._refine(consensus(hyps, tau, cover), t_ms) or True:",
           (T_ENGINE + "test_after_a_conflict_the_same_cover_runs_in_full_and_logs_it_again",
            NGRAM)),
    Mutant("emit-on-unchanged-template", ENGINE,
           "if self.template is not before:", "if True:",
           equivalent="every template change is emitted right after it, so the "
                      "scan of an unchanged one finds nothing"),
    # -- the tau thresholds, the backend's memo and the lazy stream
    Mutant("tau-cover-strict", "src/specsim/template.py",
           "if cum >= tau - _TAU_SLACK:", "if cum > tau - _TAU_SLACK:",
           ("tests/test_template.py::test_consensus_matches_bruteforce_oracle",)),
    Mutant("tau-slack-0", "src/specsim/template.py", "_TAU_SLACK = 1e-9", "_TAU_SLACK = 0.0",
           ("tests/test_template.py::test_consensus_shopping_example",
            T_ENGINE + "test_a_commit_at_the_bound_runs_the_full_path")),
    Mutant("ngram-memo-off", "src/specsim/predictor.py",
           "entry = cache.get(key)", "entry = None",
           ("tests/test_predictor.py::test_ngram_backend_memo_is_lru_bounded",)),
    Mutant("stream-rescanned", "src/specsim/phrases.py",
           "if isinstance(prefix, PrefixView) and prefix.table is table and prefix.is_current():",
           "if False:",  # the same split, from scratch: past the test's time budget
           ("tests/test_acceptance.py::test_c9_determinism_and_throughput",)),
)


def check(m: Mutant) -> str | None:
    """None when the mutant applies and, unless equivalent, every named
    test fails on it; otherwise what went wrong."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / m.path
        text = target.read_text("utf-8")
        if text.count(m.old) != 1:
            return f"{m.old!r} occurs {text.count(m.old)} times in {m.path}"
        if m.equivalent:
            return None
        if not m.tests:
            return "names no test that kills it"
        target.write_text(text.replace(m.old, m.new), "utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p",
                              "no:cacheprovider", *m.tests], cwd=tmp, env=env,
                             capture_output=True, text=True)
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("FAILED ")}
    if run.returncode not in (0, 1):
        return f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}"
    survived = [t for t in m.tests if t not in failed]
    return f"survives {', '.join(survived)}" if survived else None


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}")
        return 1
    bad = 0
    for m in chosen:
        why = check(m)
        kind = "equivalent" if m.equivalent else f"{len(m.tests)} tests"
        print(f"{m.name:32} {'ok' if why is None else 'FAIL'} ({kind})", flush=True)
        if why is not None:
            bad += 1
            print(f"    {why}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's seed-1 workloads replay to the event logs pinned in
fixtures/expected.json, and the benchmark's own copies of pinned values
agree with that file.

The workloads come from perfbench/workloads.py, which imports nothing from
specsim, so a change to the program never changes them. Each is set up as
perfbench/run.py's set_up does, and its digest is the SHA-256 of every
utterance's JSONL log, concatenated in utterance order: the
`event_log_sha256` line a `perfbench/run.py --seed 1` run prints.
"""

from __future__ import annotations

import hashlib

import pytest

from specsim.engine import deliver, finalize, start_session, step
from specsim.replay import events_to_jsonl, replay
from specsim.stream import ContextDoc

from conftest import EXPECTED, load_perfbench, set_up_workload


def workload_log(wl) -> str:
    """The workload's event logs, as perfbench/run.py's play_round makes
    them: one session per utterance, all on one backend. An interleaved
    workload starts every session first and then runs one tick per session
    per turn."""
    transcripts, config, table, backend = set_up_workload(wl)
    context = ContextDoc("c")
    if not wl.interleave:
        return "".join(
            events_to_jsonl(replay(tr, start_session(config, context, backend, table),
                                   utt.lag)[0])
            for tr, utt in zip(transcripts, wl.utterances))
    assert all(utt.lag == (1,) for utt in wl.utterances)  # one event per tick
    sessions = [start_session(config, context, backend, table) for _ in transcripts]
    logs: list[list] = [[] for _ in transcripts]
    for i in range(max(len(tr.events) for tr in transcripts)):
        for tr, session, log in zip(transcripts, sessions, logs):
            if i >= len(tr.events):
                continue
            ev = tr.events[i]
            if ev.is_final:
                log.extend(finalize(session, ev, tr.reference)[0])
            else:
                log.extend(deliver(session, ev))
                log.extend(step(session))
    return "".join(events_to_jsonl(log) for log in logs)


@pytest.mark.parametrize("name", sorted(EXPECTED["workload_log_sha256_seed_1"]))
def test_seed_1_workload_replays_to_its_pinned_log_digest(name):
    wl = load_perfbench("workloads").WORKLOADS[name](1)
    digest = hashlib.sha256(workload_log(wl).encode("utf-8")).hexdigest()
    assert digest == EXPECTED["workload_log_sha256_seed_1"][name]


def test_the_benchmarks_own_references_agree_with_the_file():
    # perfbench/run.py keeps its own copies: the C9 digest's first 16 hex
    # digits, and the shopping report
    run = load_perfbench("run")
    assert len(run.FINGERPRINT["sha256"]) >= 16
    assert EXPECTED["c9_log_sha256"].startswith(run.FINGERPRINT["sha256"])
    assert run.GOLDEN == EXPECTED["shopping_report"]

#!/usr/bin/env python3
"""Layered replay benchmark for specsim.

Replays seeded, generated workloads through the public session API
(start_session, deliver, step, finalize) from one thread, closed loop: the
next tick starts when the previous one returns. Prints every end-to-end
metric with its unit, checks every output, and ends with one JSON line.
With --trace 1 it instead reports the per-layer split, from a round traced
by wrapping specsim's functions (see spans.py) and an identical untraced
round that gives the tracing overhead. Timings are scaled to a reference
host speed, measured between ticks by a probe of the benchmark's own (see
hostspeed.py), because the shared host's speed drifts from minute to minute.

Usage, from the repository root:
    python3 perfbench/run.py --workload sentences --seed 1 --seconds 28 --trace 0

Exits 1 when any output check fails, 2 when there is no specsim source tree.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_SETUPS = 5

# Reference values of the seed program (ROADMAP baseline, shopping fixture).
FINGERPRINT = {"divergences": 5431, "accuracy": "1.000", "sha256": "3959c84daf3c8a11"}
GOLDEN = {"divergences": 1, "accuracy": 1.0, "al": 0.625}


# -- set-up ------------------------------------------------------------------

@dataclass
class Fixture:
    """Everything one round replays against; built by set_up()."""

    transcripts: list
    config: object
    context: object
    table: object
    backend: object
    first_session: object
    parse_s: float
    train_s: float
    setup_s: float


def set_up(wl) -> Fixture:
    """Parse the inputs, train, build the backend and start the first session."""
    clock = time.perf_counter
    start = clock()
    transcripts = [S.parse_transcript(u.jsonl) for u in wl.utterances]
    parsed = clock()
    model = S.train_ngram(parse_corpus(wl.corpus), wl.order, wl.alpha)
    trained = clock()
    table = S.parse_phrase_table(wl.phrases)
    backend = S.NgramBackend(model, table, max_len=wl.max_len)
    config = S.EngineConfig(**wl.config)
    context = S.ContextDoc("c")
    first = engine.start_session(config, context, backend, table)
    done = clock()
    return Fixture(transcripts, config, context, table, backend, first,
                   parse_s=parsed - start, train_s=trained - parsed,
                   setup_s=done - start)


def warm_up(fx: Fixture, wl):
    """Fill the backend's caches from utterances disjoint from the timed ones."""
    for utt in wl.warmup:
        session = S.start_session(fx.config, fx.context, fx.backend, fx.table)
        S.replay(S.parse_transcript(utt.jsonl), session, utt.lag)


# -- the tick loop -----------------------------------------------------------

QUARTERS = ("all", "early", "late")


class Latencies:
    """Tick wall times in ns, overall and for the first and last quarter of
    each utterance (by the index of the first event the tick delivers),
    each with the gap between host-speed probes it ran in."""

    def __init__(self, speed):
        self.speed = speed
        self.ns = {q: array("q") for q in QUARTERS}
        self.gap = {q: array("I") for q in QUARTERS}

    def add(self, ns: int, index: int, n: int):
        gap = len(self.speed.samples)
        quarters = ["all"]
        if 4 * index < n:
            quarters.append("early")
        elif 4 * index >= 3 * n:
            quarters.append("late")
        for q in quarters:
            self.ns[q].append(ns)
            self.gap[q].append(gap)

    def times(self, quarter: str, scaled: bool):
        """The quarter's tick times in order, each divided by the host
        slowdown around it when scaled."""
        if not scaled:
            return self.ns[quarter]
        slow = self.speed.local_slowdowns()
        return [ns / slow[g] for ns, g in zip(self.ns[quarter], self.gap[quarter])]


class Player:
    """Drives one utterance tick by tick exactly as specsim.replay.replay()
    does: a tick delivers its lag-profile count of events, then steps once;
    the final event goes to finalize. Each tick that ends in a step is timed.
    With early_only it stops before the first tick past the first quarter."""

    def __init__(self, uid: int, session, transcript, lag, early_only=False):
        self.uid = uid
        self.early_only = early_only
        self.session = session
        self.transcript = transcript
        self.lag = lag
        self.events: list = []
        self.report = None
        self.error: str | None = None
        self._i = 0
        self._tick = 0

    def tick(self, lat: Latencies) -> bool:
        """Run one tick; False once the utterance is finalized."""
        queue = self.transcript.events
        n = len(queue)
        if self.early_only and 4 * self._i >= n:
            return False
        count = self.lag[self._tick] if self._tick < len(self.lag) else 1
        first = self._i
        start = time.perf_counter_ns()
        for _ in range(count):
            if self._i >= n:
                break
            ev = queue[self._i]
            self._i += 1
            if ev.is_final:
                fin, self.report = engine.finalize(self.session, ev,
                                                   self.transcript.reference)
                self.events.extend(fin)
                return False
            self.events.extend(engine.deliver(self.session, ev))
        self.events.extend(engine.step(self.session))
        lat.add(time.perf_counter_ns() - start, first, n)
        self._tick += 1
        if self._i >= n:
            raise ValueError("transcript carries no final event")
        return True

    def run_tick(self, lat: Latencies) -> bool:
        try:
            return self.tick(lat)
        except Exception:  # noqa: BLE001 - a failed utterance must not stop the run
            self.error = traceback.format_exc()
            print(f"utterance {self.uid} failed:\n{self.error}", file=sys.stderr)
            return False


@dataclass
class Round:
    players: list  # emptied once checked, so memory does not grow with rounds
    tokens: int
    wall_s: float  # replay time, probes left out
    lat: Latencies
    slowdown: float  # of the host during the round, see hostspeed.py
    reports: list = field(default_factory=list)  # (report, had a burst) per utterance


def play_round(fx: Fixture, wl, tracer=None, early_only=False) -> Round:
    """Replay every utterance of the workload once (with early_only, its
    first quarter); returns the timed round. The host-speed probe runs
    before the round and between ticks, never inside one."""
    speed = hostspeed.HostSpeed()
    lat = Latencies(speed)
    players = []
    gc.collect()
    speed.probe()
    start = time.perf_counter_ns()
    for uid, (tr, utt) in enumerate(zip(fx.transcripts, wl.utterances)):
        session = fx.first_session if uid == 0 else engine.start_session(
            fx.config, fx.context, fx.backend, fx.table)
        players.append(Player(uid, session, tr, utt.lag, early_only))
        if wl.interleave:
            continue
        if tracer is not None:
            tracer.utterance = uid
        while players[-1].run_tick(lat):
            speed.maybe_probe()
    active = players if wl.interleave else []
    while active:  # round robin: one tick per session per turn
        still = []
        for p in active:
            if tracer is not None:
                tracer.utterance = p.uid
            if p.run_tick(lat):
                still.append(p)
            speed.maybe_probe()
        active = still
    wall_ns = time.perf_counter_ns() - start - (speed.spent_ns - speed.samples[0])
    speed.probe()
    tokens = sum(len(tr.events) for tr in fx.transcripts)
    return Round(players, tokens, wall_ns / 1e9, lat, speed.slowdown())


# -- output checks -----------------------------------------------------------

def check_round(fx: Fixture, rnd: Round, logs: dict) -> tuple[list[bool], str]:
    """Per utterance: the harness's log (what deliver, step and finalize
    returned) equals the session's and recomputes the report, emitted text
    equals the emit events, and the log is byte-identical to an untimed
    replay() on a fresh session (done once per utterance; later rounds
    compare to it). Returns the verdicts and the SHA-256 of the round's
    event logs."""
    ok = []
    digest = hashlib.sha256()
    fx.first_session = None  # player 0 holds it now, and frees it below
    for p in rnd.players:
        good = p.error is None and p.report is not None
        if good:
            tr = p.transcript
            recomputed = S.compute_report(p.events, len(tr.events), tr.reference)
            good &= recomputed.to_dict() == p.report.to_dict()
            good &= p.events == p.session.events
            emitted = [t for ev in p.events if ev.kind == "emit" for t in ev.toks]
            good &= list(p.session.emitted) == emitted
            log = S.events_to_jsonl(p.events)
            digest.update(log.encode("utf-8"))
            # Free the timed session before the reference replay builds
            # another, so peak_rss_mb holds one session at a time.
            p.session = p.events = None
            if p.uid not in logs:
                fresh = S.start_session(fx.config, fx.context, fx.backend, fx.table)
                events, report = S.replay(tr, fresh, p.lag)
                logs[p.uid] = S.events_to_jsonl(events)
                good &= report.to_dict() == p.report.to_dict()
            good &= log == logs[p.uid]
        if not good and p.error is None:
            print(f"utterance {p.uid}: output check failed", file=sys.stderr)
        ok.append(good)
        if p.report is not None:
            rnd.reports.append((p.report, p.lag != (1,)))
    rnd.players = []
    return ok, digest.hexdigest()


def golden_check() -> bool:
    """The shopping fixture reproduces its documented report."""
    d = ROOT / "fixtures" / "shopping"
    session = S.start_session(
        config_from_json((d / "config.json").read_text("utf-8")),
        S.ContextDoc("daily-life"),
        S.load_scripted_fixture((d / "predictions.json").read_text("utf-8")),
        S.parse_phrase_table((d / "phrases.tsv").read_text("utf-8")))
    transcript = S.parse_transcript((d / "transcript.jsonl").read_text("utf-8"))
    _, report = S.replay(transcript, session)
    good = (report.divergences == GOLDEN["divergences"]
            and report.accuracy == GOLDEN["accuracy"]
            and abs(report.al - GOLDEN["al"]) < 1e-9)
    print(f"check golden shopping: divergences={report.divergences} "
          f"accuracy={report.accuracy} al={report.al} -> {'ok' if good else 'FAILED'}")
    return good


def fingerprint_check() -> bool:
    """The 10k-token C9 replay keeps the seed program's divergences and log."""
    fx = set_up(workloads.c9_replay())
    events, report = S.replay(fx.transcripts[0], fx.first_session)
    sha = hashlib.sha256(S.events_to_jsonl(events).encode("utf-8")).hexdigest()
    good = (report.divergences == FINGERPRINT["divergences"]
            and f"{report.accuracy:.3f}" == FINGERPRINT["accuracy"]
            and sha.startswith(FINGERPRINT["sha256"]))
    print(f"check fingerprint (C9, seed {workloads.FINGERPRINT_SEED}, "
          f"{workloads.FINGERPRINT_TOKENS} tokens): divergences={report.divergences} "
          f"accuracy={report.accuracy:.3f} sha256={sha[:16]} -> {'ok' if good else 'FAILED'}")
    return good


# -- metrics -----------------------------------------------------------------

def percentile(sorted_ns, q: float) -> float:
    """Nearest-rank percentile of ns samples, in microseconds."""
    if not sorted_ns:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1000.0


def end_to_end(setups, raw_setups, rounds, early_rounds) -> tuple[dict, list[str]]:
    """Timings are scaled by the host's slowdown (see hostspeed.py): a
    round's rate by the round's, a tick by the one around it. Throughput is
    the median over rounds. Every round replays the same ticks, so a tick
    latency percentile is taken over each tick's median across the rounds:
    a tick that a burst of other load on the host slowed in one round does
    not reach the tail. The unscaled value is printed beside each.
    Early-tick latency also counts the first-quarter-only rounds."""
    def rate(rounds, scaled):
        return statistics.median(r.tokens / r.wall_s * (r.slowdown if scaled else 1.0)
                                 for r in rounds)

    def tick_percentile(quarter, q):
        def value(rounds, scaled):
            series = [r.lat.times(quarter, scaled) for r in rounds]
            typical = sorted(statistics.median(tick) for tick in zip(*series))
            return percentile(typical, q)
        return value

    every = rounds + early_rounds
    # name: (unit, value over rounds, rounds it is taken over)
    timings = {
        "tok_per_s": ("tok/s", rate, rounds),
        "token_latency_p50_us": ("us", tick_percentile("all", 0.50), rounds),
        "token_latency_p99_us": ("us", tick_percentile("all", 0.99), rounds),
        "early_token_latency_p50_us": ("us", tick_percentile("early", 0.50), every),
        "late_token_latency_p50_us": ("us", tick_percentile("late", 0.50), rounds),
    }
    first = rounds[0].lat.ns
    samples = {
        "tok_per_s": f"{rounds[0].tokens} tokens per round",
        "token_latency_p50_us": f"n={len(first['all'])} ticks",
        "token_latency_p99_us": f"n={len(first['all'])} ticks",
        "early_token_latency_p50_us": f"n={len(first['early'])} ticks",
        "late_token_latency_p50_us": f"n={len(first['late'])} ticks",
    }
    metrics = {"setup_s": (statistics.median(setups), "s")}
    notes = {"setup_s": f"median of {len(setups)} set-ups, "
                        f"unscaled {statistics.median(raw_setups):.6g}"}
    for name, (unit, value, of) in timings.items():
        metrics[name] = (value(of, True), unit)
        notes[name] = (f"{samples[name]}, median over {len(of)} rounds, "
                       f"unscaled {value(of, False):.6g}")
    print("host_slowdown " + json.dumps([r.slowdown for r in every]))

    reports = [rep for r in rounds for rep, _ in r.reports]
    als = [rep.al for rep in reports if rep.al is not None]
    accs = [rep.accuracy for rep in reports if rep.accuracy is not None]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = ((peak_kb - hostspeed.TABLE_RSS_KB) / 1024.0, "MB")
    notes["peak_rss_mb"] = f"probe table left out, with it {peak_kb / 1024.0:.6g}"
    metrics["al_tokens"] = (statistics.fmean(als) if als else 0.0, "tokens")
    metrics["accuracy"] = (statistics.fmean(accs) if accs else 0.0, "ratio")
    if reports:
        notes["al_tokens"] = (f"wait-until-end "
                              f"{statistics.fmean(r.source_len for r in reports):.2f}")
    notes["accuracy"] = _accuracy_by_lag(rounds)
    lines = [f"{name:28} {value:>14.6g} {unit:7} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    return metrics, lines


def _accuracy_by_lag(rounds) -> str:
    """Mean accuracy of utterances with and without a burst, when both occur."""
    groups: dict[bool, list[float]] = {True: [], False: []}
    for r in rounds:
        for report, bursty in r.reports:
            if report.accuracy is not None:
                groups[bursty].append(report.accuracy)
    if not groups[True] or not groups[False]:
        return ""
    return (f"burst {statistics.fmean(groups[True]):.3f} (n={len(groups[True])}), "
            f"real time {statistics.fmean(groups[False]):.3f} (n={len(groups[False])})")


def per_layer(tracer, traced_rounds, untraced_rounds, setups_parse, setups_train):
    n = len(traced_rounds)
    metrics = {}
    for ix, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = (tracer.calls[ix] / n, "count")
        metrics[f"{name}.self_ms"] = (tracer.self_ns[ix] / 1e6 / n, "ms")
    for name, value in tracer.observed(n).items():
        metrics[name] = (value, spans.OBSERVED[name][0])
    metrics["ngram.train_s"] = (statistics.median(setups_train), "s")
    metrics["stream.parse_s"] = (statistics.median(setups_parse), "s")

    def tps(rounds):  # host-speed scaled, as tok_per_s
        return sum(r.tokens for r in rounds) / sum(r.wall_s / r.slowdown for r in rounds)
    metrics["trace.overhead_ratio"] = (1.0 - tps(traced_rounds) / tps(untraced_rounds), "ratio")

    total_self = sum(tracer.self_ns) or 1
    order = sorted(range(len(tracer.names)), key=lambda i: -tracer.self_ns[i])
    lines = [f"{'span':28} {'calls/round':>12} {'self ms/round':>14} {'self %':>7}"]
    for i in order:
        lines.append(f"{tracer.names[i]:28} {tracer.calls[i] / n:>12.0f} "
                     f"{tracer.self_ns[i] / 1e6 / n:>14.2f} "
                     f"{100.0 * tracer.self_ns[i] / total_self:>6.1f}%")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_ms")):
            lines.append(f"{name:40} {value:>14.6g} {unit}")
    return metrics, lines


# -- run metadata ------------------------------------------------------------

def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    return {
        "kernel_implementation": S.KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.FINGERPRINT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)

    checks = [golden_check()]
    if args.workload == "monologue":
        checks.append(fingerprint_check())

    setups: list[tuple[float, float, float]] = []  # (setup_s, parse_s, train_s), scaled
    raw_setup_s: list[float] = []
    logs: dict[int, str] = {}
    verdicts: list[bool] = []
    log_sha: list[str] = []
    untraced: list[Round] = []
    traced: list[Round] = []
    tracer = spans.Tracer() if args.trace else None

    def timed_set_up() -> Fixture:
        gc.collect()
        speed = hostspeed.HostSpeed()
        speed.probe()
        fx = set_up(wl)
        speed.probe()
        slow = speed.slowdown()
        setups.append((fx.setup_s / slow, fx.parse_s / slow, fx.train_s / slow))
        raw_setup_s.append(fx.setup_s)
        return fx

    def one_round(with_tracer) -> Round:
        fx = timed_set_up()
        warm_up(fx, wl)
        if with_tracer is None:
            rnd = play_round(fx, wl)
        else:
            with with_tracer.installed():
                rnd = play_round(fx, wl, with_tracer)
        ok, sha = check_round(fx, rnd, logs)
        verdicts.extend(ok)
        log_sha.append(sha)
        return rnd

    while True:
        untraced.append(one_round(None))
        if tracer is not None:
            traced.append(one_round(tracer))
        measured = sum(r.wall_s for r in untraced + traced)
        if measured >= args.seconds:
            break
    early: list[Round] = []
    for _ in range(0 if tracer else wl.early_passes):
        fx = timed_set_up()
        warm_up(fx, wl)
        rnd = play_round(fx, wl, early_only=True)
        rnd.players = []
        early.append(rnd)
    while len(setups) < MIN_SETUPS:
        timed_set_up()

    print(f"event_log_sha256 {log_sha[0]}")
    setup_s, parse_s, train_s = zip(*setups)
    if tracer is None:
        metrics, lines = end_to_end(setup_s, raw_setup_s, untraced, early)
    else:
        metrics, lines = per_layer(tracer, traced, untraced, parse_s, train_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_tsv(OUT_DIR / f"trace-{args.workload}.tsv")
    for line in lines:
        print(line)

    attempted = len(verdicts) + len(checks)
    failed = verdicts.count(False) + checks.count(False)
    print(f"utterances {attempted} utterances_failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "event_log_sha256": log_sha[0], **result},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "specsim" / "__init__.py").is_file():
        print(f"no specsim source tree under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import specsim as S  # noqa: E402
    from specsim import engine  # noqa: E402
    from specsim.ngram import parse_corpus  # noqa: E402
    from specsim.stream import config_from_json  # noqa: E402

    import hostspeed  # noqa: E402
    import spans  # noqa: E402
    import workloads  # noqa: E402
    sys.exit(main())

"""Command-line harness: replay transcripts, train models, validate fixtures,
and run the interactive typing demo.

Exit status 0 on success, 2 on any error (diagnostic on stderr). Replays are
fully deterministic: identical inputs produce byte-identical event logs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .engine import Session, feed, finalize, start_session
from .ngram import EmptyCorpus, NgramModel, parse_corpus, train_ngram
from .phrases import parse_phrase_table
from .predictor import NgramBackend, RemoteBackend, load_scripted_fixture
from .replay import events_to_jsonl, parse_lag_profile, replay, write_atomic
from .stream import (ContextDoc, EngineConfig, TokenEvent, config_from_json,
                     parse_transcript)
from .tree import leaf_hypotheses


class CliError(Exception):
    pass


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_config(path: str | None) -> EngineConfig:
    if path is None:
        return EngineConfig()
    try:
        return config_from_json(_read(path, "config"))
    except ValueError as exc:
        raise CliError(f"bad config {path!r}: {exc}") from exc


def _load_context(path: str | None, context_id: str) -> ContextDoc:
    body = tuple(_read(path, "context").split()) if path else ()
    return ContextDoc(context_id, body)


def _build_backend(args, table) -> tuple[object, ContextDoc]:
    if args.backend == "scripted":
        if not args.fixtures:
            raise CliError("--fixtures is required for the scripted backend")
        try:
            backend = load_scripted_fixture(_read(args.fixtures, "fixture"))
        except ValueError as exc:
            raise CliError(f"bad fixture {args.fixtures!r}: {exc}") from exc
        ids = backend.context_ids
        if "default" in ids or len(ids) == 1:
            cid = "default" if "default" in ids else ids[0]
        else:
            raise CliError(f"fixture has contexts {ids}; name one 'default'")
        return backend, _load_context(args.context, cid)
    if args.backend == "ngram":
        if not args.model:
            raise CliError("--model is required for the ngram backend")
        try:
            model = NgramModel.from_json(_read(args.model, "model"))
        except ValueError as exc:
            raise CliError(f"bad model {args.model!r}: {exc}") from exc
        backend = NgramBackend(model, table, max_len=args.max_len)
        return backend, _load_context(args.context, "corpus")
    if args.backend == "remote":
        if not args.endpoint:
            raise CliError("--endpoint is required for the remote backend")
        return RemoteBackend(args.endpoint), _load_context(args.context, "default")
    raise CliError(f"unknown backend {args.backend!r}")


def cmd_run(args) -> int:
    transcript = parse_transcript(_read(args.transcript, "transcript"))
    config = _load_config(args.config)
    table = parse_phrase_table(_read(args.phrase_table, "phrase table"))
    backend, context = _build_backend(args, table)
    profile = parse_lag_profile(args.lag_profile)
    session = start_session(config, context, backend, table)
    events, report = replay(transcript, session, profile)
    if args.out_events:
        write_atomic(args.out_events, events_to_jsonl(events))
    if args.out_report:
        write_atomic(args.out_report, report.to_json())
    sys.stdout.write(report.to_json())
    return 0


def cmd_train(args) -> int:
    text = _read(args.corpus, "corpus")
    corpus = parse_corpus(text)
    try:
        model = train_ngram(corpus, args.order, args.alpha)
    except (EmptyCorpus, ValueError) as exc:
        raise CliError(f"training failed: {exc}") from exc
    try:
        write_atomic(args.model, model.to_json())
    except OSError as exc:
        raise CliError(f"cannot write model {args.model!r}: {exc}") from exc
    print(f"trained order-{model.order} model: vocab {len(model.vocab)}, "
          f"{len(model.counts)} histories -> {args.model}")
    return 0


def cmd_validate(args) -> int:
    problems: list[str] = []
    for paths, load, what in ((args.transcript, parse_transcript, "transcript"),
                              (args.fixtures, load_scripted_fixture, "fixture"),
                              (args.phrase_table, parse_phrase_table, "phrase table")):
        for path in paths or []:
            try:
                load(_read(path, what))
            except ValueError as exc:
                problems.append(f"{path}: {exc}")
    if problems:
        for msg in problems:
            print(msg, file=sys.stderr)
        return 2
    print("all fixtures valid")
    return 0


def _print_state(session: Session, emitted_now):
    hyps = sorted(leaf_hypotheses(session.tree), key=lambda h: -h[1])[:3]
    for tr, mass, _ in hyps:
        print(f"  hyp {mass:.3f}: {' '.join(tr)}")
    print(f"  template: {session.template.render()}")
    if emitted_now:
        print(f"  emit: {' '.join(emitted_now)}")


def cmd_demo(args) -> int:
    config = _load_config(args.config)
    table = parse_phrase_table(_read(args.phrase_table, "phrase table"))
    backend, context = _build_backend(args, table)
    session = start_session(config, context, backend, table)
    index = 0
    print("type source tokens (whitespace separated); a blank line finalizes")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            break
        for tok in line.split():
            try:
                events = feed(session, TokenEvent(index, tok, index * 100))
            except ValueError as exc:
                print(f"warning: {exc}", file=sys.stderr)
                continue
            index += 1
            print(f"> {tok}")
            for ev in events:
                if ev.kind != "emit":
                    print(f"  [{ev.kind}]")
            _print_state(session, [t for ev in events for t in ev.toks])
    events, report = finalize(session)
    emitted = [t for ev in events for t in ev.toks]
    if emitted:
        print(f"  emit: {' '.join(emitted)}")
    print(f"final: {' '.join(session.emitted)}")
    sys.stdout.write(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsim",
        description="speculative simultaneous interpretation engine")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # what a session is built from, shared by run and demo
    session_opts = argparse.ArgumentParser(add_help=False)
    session_opts.add_argument("--config")
    session_opts.add_argument("--backend", required=True,
                              choices=["scripted", "ngram", "remote"])
    session_opts.add_argument("--fixtures", help="scripted prediction fixture (JSON)")
    session_opts.add_argument("--model", help="trained n-gram model (JSON)")
    session_opts.add_argument("--phrase-table", required=True)
    session_opts.add_argument("--endpoint", help="remote predictor base URL")
    session_opts.add_argument("--context", help="context token file (enables drift checks)")
    session_opts.add_argument("--max-len", type=int, default=12,
                              help="n-gram continuation horizon")

    run = sub.add_parser("run", parents=[session_opts],
                         help="replay a transcript through a session")
    run.add_argument("--transcript", required=True)
    run.add_argument("--lag-profile", default="1",
                     help="per-tick delivery counts, e.g. 3 or 3,1 (then 1/tick)")
    run.add_argument("--out-events", help="event log output path (JSONL)")
    run.add_argument("--out-report", help="report output path (JSON)")
    run.set_defaults(func=cmd_run)

    train = sub.add_parser("train", help="train and serialize an n-gram model")
    train.add_argument("--corpus", required=True)
    train.add_argument("--order", type=int, required=True)
    train.add_argument("--alpha", type=float, default=0.1)
    train.add_argument("--model", required=True, help="output model path")
    train.set_defaults(func=cmd_train)

    val = sub.add_parser("validate", help="check fixtures against their invariants")
    val.add_argument("--transcript", action="append")
    val.add_argument("--fixtures", action="append")
    val.add_argument("--phrase-table", action="append")
    val.set_defaults(func=cmd_validate)

    demo = sub.add_parser("demo", parents=[session_opts], help="interactive typing demo")
    demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

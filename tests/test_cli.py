"""CLI surface: run, train, validate, demo; determinism and atomic writes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from specsim.cli import build_parser, main
from specsim.ngram import NgramModel

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SHOPPING = FIXTURES / "shopping"


def run_cli(*argv) -> int:
    return main(list(argv))


def run_args(tmp_path, **overrides):
    args = {
        "--transcript": str(SHOPPING / "transcript.jsonl"),
        "--config": str(SHOPPING / "config.json"),
        "--backend": "scripted",
        "--fixtures": str(SHOPPING / "predictions.json"),
        "--phrase-table": str(SHOPPING / "phrases.tsv"),
        "--out-events": str(tmp_path / "events.jsonl"),
        "--out-report": str(tmp_path / "report.json"),
    }
    args.update(overrides)
    argv = ["run"]
    for key, val in args.items():
        if val is not None:
            argv += [key, val]
    return argv


def test_run_shopping_fixture(tmp_path, capsys):
    assert run_cli(*run_args(tmp_path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["divergences"] == 1
    assert report["accuracy"] == 1.0
    assert report["conflicts"] == 0
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    recs = [json.loads(ln) for ln in lines]
    assert [r["kind"] for r in recs] == ["emit", "diverge", "repredict", "emit"]
    out = capsys.readouterr().out
    assert json.loads(out) == report


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run_cli(*run_args(a)) == 0
    assert run_cli(*run_args(b)) == 0
    assert (a / "events.jsonl").read_bytes() == (b / "events.jsonl").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_run_missing_fixture_path_fails(tmp_path, capsys):
    code = run_cli(*run_args(tmp_path, **{"--fixtures": str(tmp_path / "nope.json")}))
    assert code == 2
    assert "nope.json" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_run_lag_profile_catchup(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"buffer_limit": 2}))
    argv = run_args(tmp_path, **{"--config": str(cfg), "--lag-profile": "3"})
    assert run_cli(*argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["catchups"] == 1
    assert report["accuracy"] == 1.0


def test_run_scripted_keeps_fixture_context_id_with_context_file(tmp_path):
    body = tmp_path / "context.txt"
    body.write_text("買い物 旅行 映画\n")
    argv = run_args(tmp_path, **{"--context": str(body)})
    assert run_cli(*argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["accuracy"] == 1.0  # fixture lookups still hit "daily-life"


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 0}))
    assert run_cli(*run_args(tmp_path, **{"--config": str(cfg)})) == 2
    assert "k >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    pytest.param('{"k": 1.5}', "k must be an integer", id="k-float"),
    pytest.param('{"epsilon": "0.1"}', "epsilon must be a number", id="epsilon-string"),
    pytest.param('{"k": true}', "k must be an integer", id="k-bool"),
    pytest.param('{"k": ' + "[" * 100000 + "]" * 100000 + "}", "nested too deeply",
                 id="nested-too-deeply"),
])
def test_run_rejects_ill_typed_config(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli(*run_args(tmp_path, **{"--config": str(cfg)})) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_run_ngram_backend(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat\nthe dog ran\n")
    model = tmp_path / "model.json"
    assert run_cli("train", "--corpus", str(corpus), "--order", "2",
                   "--model", str(model)) == 0
    table = tmp_path / "phrases.tsv"
    table.write_text("the\tle\ncat\tchat\nsat\tassis\n")
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(
        '{"src":"en","tgt":"fr","ref":["le","chat","assis"]}\n'
        '{"i":0,"tok":"the","t_ms":0}\n'
        '{"i":1,"tok":"cat","t_ms":100}\n'
        '{"i":2,"tok":"sat","t_ms":200,"final":true}\n')
    argv = ["run", "--transcript", str(transcript), "--backend", "ngram",
            "--model", str(model), "--phrase-table", str(table),
            "--out-report", str(tmp_path / "r.json")]
    assert run_cli(*argv) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["accuracy"] == 1.0


def test_run_ngram_toy_case_commits_no_truncated_hypothesis_as_settled(tmp_path):
    # at --max-len 1 every hypothesis is cut at the horizon; the one for "a"
    # used to complete the template, so "b" and "c" became conflicts and the
    # output stopped at "a" (conflicts 3, accuracy 0.333)
    model = tmp_path / "model.json"
    assert run_cli("train", "--corpus", str(FIXTURES / "toy" / "corpus.txt"),
                   "--order", "2", "--model", str(model)) == 0
    (tmp_path / "phrases.tsv").write_text("")
    (tmp_path / "config.json").write_text('{"d": 1}')
    (tmp_path / "t.jsonl").write_text(
        '{"src":"x","tgt":"y","ref":["a","b","c"]}\n'
        '{"i":0,"tok":"a","t_ms":0}\n'
        '{"i":1,"tok":"b","t_ms":100}\n'
        '{"i":2,"tok":"c","t_ms":200,"final":true}\n')
    assert run_cli("run", "--transcript", str(tmp_path / "t.jsonl"),
                   "--config", str(tmp_path / "config.json"), "--backend", "ngram",
                   "--model", str(model), "--phrase-table", str(tmp_path / "phrases.tsv"),
                   "--max-len", "1", "--out-events", str(tmp_path / "events.jsonl"),
                   "--out-report", str(tmp_path / "r.json")) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert (report["conflicts"], report["accuracy"]) == (0, 1.0)
    emitted = [tok for line in (tmp_path / "events.jsonl").read_text().splitlines()
               for tok in json.loads(line).get("toks", [])]
    assert emitted == ["a", "b", "c"]


def test_run_ngram_with_an_infinite_context_perplexity_exits_0(tmp_path):
    # alpha 1e-320 makes the perplexity of the unseen context overflow; it
    # used to end in an OverflowError traceback from start_session
    model = tmp_path / "model.json"
    assert run_cli("train", "--corpus", str(FIXTURES / "toy" / "corpus.txt"),
                   "--order", "3", "--alpha", "1e-320", "--model", str(model)) == 0
    (tmp_path / "phrases.tsv").write_text("")
    (tmp_path / "context.txt").write_text("x y q z\n")
    (tmp_path / "t.jsonl").write_text(
        '{"src":"x","tgt":"y","ref":["a","b","c"]}\n'
        '{"i":0,"tok":"a","t_ms":0}\n'
        '{"i":1,"tok":"b","t_ms":100}\n'
        '{"i":2,"tok":"c","t_ms":200,"final":true}\n')
    assert run_cli("run", "--transcript", str(tmp_path / "t.jsonl"), "--backend", "ngram",
                   "--model", str(model), "--phrase-table", str(tmp_path / "phrases.tsv"),
                   "--context", str(tmp_path / "context.txt"),
                   "--out-report", str(tmp_path / "r.json")) == 0
    assert json.loads((tmp_path / "r.json").read_text())["accuracy"] == 1.0


def test_run_remote_backend_against_local_server(tmp_path):
    import json as _json
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from specsim.ngram import END

    full = ["私は", "昨日", "、", "友達", "と", "買い物", "に", "行った"]
    translation = ["Yesterday", ",", "I", "went", "shopping", "with", "my", "friend"]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            req = _json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            rest = full[len(req["prefix"]):]
            items = []
            if rest:
                items = [{"cont": rest + [END], "p": 0.95, "tr": translation}]
            out = _json.dumps({"items": items}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        argv = ["run", "--transcript", str(SHOPPING / "transcript.jsonl"),
                "--backend", "remote",
                "--endpoint", f"http://127.0.0.1:{server.server_port}",
                "--phrase-table", str(SHOPPING / "phrases.tsv"),
                "--out-report", str(tmp_path / "r.json")]
        assert run_cli(*argv) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["divergences"] == 0
    finally:
        server.shutdown()
        server.server_close()


def test_run_remote_backend_refuses_a_bad_endpoint_by_name(tmp_path, capsys):
    argv = run_args(tmp_path, **{"--backend": "remote", "--fixtures": None,
                                 "--endpoint": "e"})
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: endpoint ") and "not 'e'" in err


@pytest.mark.parametrize("text", [
    pytest.param("[" * 100000, id="nested-too-deeply"),
    pytest.param("{}", id="no-fields"),
    pytest.param("[]", id="not-an-object"),
    pytest.param('{"order": 2, "alpha": 0.1, "vocab": [], "counts": {"a": 5}}',
                 id="count-row-not-an-object"),
    pytest.param('{"order": 2, "alpha": 0.1, "vocab": ["a"], "counts": {"a a": {"a": 1}}}',
                 id="history-longer-than-order"),
    pytest.param('{"order": 2, "alpha": 0.1, "vocab": ["a b"], "counts": {}}',
                 id="vocab-token-with-space"),
])
def test_run_rejects_bad_model(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text)
    argv = run_args(tmp_path, **{"--backend": "ngram", "--fixtures": None,
                                 "--model": str(model)})
    assert run_cli(*argv) == 2
    assert "bad model" in capsys.readouterr().err


def test_run_and_validate_reject_deeply_nested_transcript(tmp_path, capsys):
    bad = tmp_path / "deep.jsonl"
    bad.write_text('{"src":"a","tgt":"b"}\n' + "[" * 100000 + "\n")
    assert run_cli(*run_args(tmp_path, **{"--transcript": str(bad)})) == 2
    assert "nested too deeply" in capsys.readouterr().err
    assert run_cli("validate", "--transcript", str(bad)) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_train_hand_counts_and_idempotence(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c\na b d\n")
    out = tmp_path / "model.json"
    assert run_cli("train", "--corpus", str(corpus), "--order", "2",
                   "--model", str(out)) == 0
    model = NgramModel.from_json(out.read_text())
    assert model.counts[("b",)] == {"c": 1, "d": 1}
    first = out.read_bytes()
    assert run_cli("train", "--corpus", str(corpus), "--order", "2",
                   "--model", str(out)) == 0
    assert out.read_bytes() == first


def test_train_empty_corpus_fails(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    assert run_cli("train", "--corpus", str(corpus), "--order", "2",
                   "--model", str(tmp_path / "m.json")) == 2
    assert "no sentences" in capsys.readouterr().err
    corpus.write_text("a b c\na </s> b d\n")
    assert run_cli("train", "--corpus", str(corpus), "--order", "2",
                   "--model", str(tmp_path / "m.json")) == 2
    assert "sentence 2 holds the reserved symbol </s>" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_validate_shipped_fixtures(capsys):
    assert run_cli("validate",
                   "--transcript", str(SHOPPING / "transcript.jsonl"),
                   "--fixtures", str(SHOPPING / "predictions.json"),
                   "--phrase-table", str(SHOPPING / "phrases.tsv")) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_flags_overweight_prediction_set(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"contexts": {"c": [
        {"prefix": [], "items": [
            {"cont": ["x"], "p": 0.8, "tr": ["t"]},
            {"cont": ["y"], "p": 0.4, "tr": ["t"]},
        ]}]}}))
    assert run_cli("validate", "--fixtures", str(bad)) == 2
    assert "sum" in capsys.readouterr().err


def test_validate_flags_empty_phrase_source(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("\ttarget\n")
    assert run_cli("validate", "--phrase-table", str(bad)) == 2
    assert "empty source" in capsys.readouterr().err


def test_validate_flags_bad_transcript(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"src":"a","tgt":"b"}\n{"i":0,"tok":"x","t_ms":5}\n')
    assert run_cli("validate", "--transcript", str(bad)) == 2
    assert "end-of-utterance" in capsys.readouterr().err


DEMO_INPUT = "私は\n昨日\n、\n友達\nと\n買い物\nに\n行った\n\n"


def test_demo_reproduces_shopping_sequence():
    proc = subprocess.run(
        [sys.executable, "-m", "specsim.cli", "demo",
         "--backend", "scripted",
         "--fixtures", str(SHOPPING / "predictions.json"),
         "--phrase-table", str(SHOPPING / "phrases.tsv")],
        input=DEMO_INPUT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "Yesterday , I [*] with my friend" in out
    assert "[diverge]" in out
    assert "[repredict]" in out
    assert "final: Yesterday , I went shopping with my friend" in out


def test_demo_immediate_blank_line_exits_cleanly():
    proc = subprocess.run(
        [sys.executable, "-m", "specsim.cli", "demo",
         "--backend", "scripted",
         "--fixtures", str(SHOPPING / "predictions.json"),
         "--phrase-table", str(SHOPPING / "phrases.tsv")],
        input="\n", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "final:" in proc.stdout


def test_demo_unknown_tokens_with_ngram_backend(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\n")
    model = tmp_path / "m.json"
    assert run_cli("train", "--corpus", str(corpus), "--order", "2",
                   "--model", str(model)) == 0
    table = tmp_path / "p.tsv"
    table.write_text("a\tA\n")
    proc = subprocess.run(
        [sys.executable, "-m", "specsim.cli", "demo", "--backend", "ngram",
         "--model", str(model), "--phrase-table", str(table)],
        input="zzz qqq\n\n", capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "final:" in proc.stdout


def test_run_and_demo_share_the_session_options():
    shared = ["--config", "c.json", "--backend", "ngram", "--fixtures", "f.json",
              "--model", "m.json", "--phrase-table", "p.tsv", "--endpoint", "e",
              "--context", "ctx.txt", "--max-len", "5"]
    names = ("config", "backend", "fixtures", "model", "phrase_table", "endpoint",
             "context", "max_len")
    parser = build_parser()
    run = parser.parse_args(["run", "--transcript", "t.jsonl"] + shared)
    demo = parser.parse_args(["demo"] + shared)
    assert [getattr(run, n) for n in names] == [getattr(demo, n) for n in names] == [
        "c.json", "ngram", "f.json", "m.json", "p.tsv", "e", "ctx.txt", 5]
    assert parser.parse_args(["demo", "--backend", "scripted",
                              "--phrase-table", "p.tsv"]).max_len == 12

"""The benchmark's tracer (perfbench/spans.py) finds every name it wraps.

A traced benchmark run looks each function up by name on its owner, so a
renamed or removed import there ends the run with a KeyError. This test
reads the tracer's table and makes the same lookups.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_owner_and_attribute_resolves():
    spans = load_spans()
    # Tracer.installed reads vars(owner)[attr]: an inherited method would not do
    missing = [f"{owner}.{attr}" for _, owner, attr in spans.SPANS
               if attr not in vars(spans._owner(owner))]
    assert missing == []

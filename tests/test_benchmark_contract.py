"""The names the benchmark in perfbench/ reaches into must keep existing.

perfbench/spans.py wraps a fixed list of module attributes for its
traced runs and refuses to run when one is missing.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _, _ in spans.WRAPPED
    }
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(importlib.import_module(mod), attr) is original

"""The names the benchmark in perfbench/ reaches into must keep existing.

perfbench/spans.py wraps a fixed list of module attributes for its
traced runs and refuses to run when one is missing, every workload
imports its entry points from the package, and run.py records
evorate.sweep.worker_count() with the environment.
"""

import importlib
import inspect
from pathlib import Path

from evorate.sweep import worker_count

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


def test_every_workload_passes_its_reference_check_at_tiny_size(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    refs = reference.ReferenceCache()
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        _, outcomes = cls(1, str(workdir), True).run_pass(0)
        assert outcomes, name
        for outcome in outcomes:
            assert outcome.error is None or outcome.expect == "reducible", (name, outcome.error)
            assert reference.check(outcome, refs)[0] is None, name


def test_worker_count_takes_no_arguments_and_is_capped():
    assert not inspect.signature(worker_count).parameters
    count = worker_count()
    assert isinstance(count, int)
    assert 1 <= count <= 8

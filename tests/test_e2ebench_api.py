"""Guard the program surface the end-to-end benchmark depends on.

``e2ebench/`` changes only together with ``BENCHMARK.json``, yet it
wraps named functions and methods of the program (``layers.py``) and
builds the flow configs itself (``rep.py``).  A refactor that renames,
moves or drops one of those names breaks every benchmark repetition
without failing anything else.  These tests import the benchmark
modules the way its scripts do -- with ``e2ebench/`` on ``sys.path`` --
and check both surfaces without running a flow.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

E2EBENCH = pathlib.Path(__file__).resolve().parent.parent / "e2ebench"
MODULES = ("workloads", "layers", "rep")


@pytest.fixture
def bench(monkeypatch):
    # ``rep`` pins its CPU at import when the benchmark sets this.
    monkeypatch.delenv("E2EBENCH_CPU", raising=False)
    monkeypatch.syspath_prepend(str(E2EBENCH))
    yield {name: importlib.import_module(name) for name in MODULES}
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_wrapped_name_is_defined_on_its_owner(bench):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _layer, _hook in bench["layers"]._flow_targets()
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_framework_config_builds_for_every_workload(bench):
    for name, spec in bench["workloads"].WORKLOADS.items():
        config = bench["rep"].framework_config(spec)
        assert config.global_config.workers == spec.workers, name
        assert config.local_config.workers == spec.workers, name

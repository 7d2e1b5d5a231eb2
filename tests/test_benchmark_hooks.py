"""The benchmark's traced run (``perfbench/``) wraps program functions by
name. A name that stops resolving nulls its per-layer metrics and fails
the benchmark's own smoke test, which lies outside this suite and takes
minutes; this test reads the same hook table and fails fast instead."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_hook_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports spans.py
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.HOOKS
    for module_name, attr, _ in child.HOOKS:
        owner = importlib.import_module(f"fedsim.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attr} does not resolve"

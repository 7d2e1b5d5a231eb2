"""The benchmark's traced run (``perfbench/``) wraps program functions by
name. A name that stops resolving nulls its per-layer metrics and fails
the benchmark's own smoke test, which lies outside this suite and takes
minutes; this test reads the same hook table and fails fast instead."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from fedsim.client import LocalConfig, local_update, shard_group
from fedsim.data import Dataset
from fedsim.models import ModelSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_child(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # child.py imports spans.py
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_benchmark_hook_resolves_to_a_callable(monkeypatch):
    child = load_child(monkeypatch)
    assert child.HOOKS
    for module_name, attr, _ in child.HOOKS:
        owner = importlib.import_module(f"fedsim.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{attr} does not resolve"


def test_local_update_result_can_be_watched(monkeypatch):
    """The traced run re-classes each ``local_update`` result to see which
    of its attributes are read; a result that refuses nulls
    ``client.discarded_loss_ratio``."""
    use = load_child(monkeypatch).LossUse()
    group = shard_group(Dataset(np.ones((4, 1)), np.array([1.0, 1.0, 2.0, 2.0]), 1),
                        [np.arange(2), np.arange(2, 4)])
    out = use.wrap_local_update(local_update)(
        ModelSpec("linear_regression", input_dim=1), np.zeros(1), group, [0, 1],
        LocalConfig(k=2), 0, [np.random.default_rng(s) for s in (0, 1)])
    assert out.shape == (2, 1)
    assert use.report() is not None

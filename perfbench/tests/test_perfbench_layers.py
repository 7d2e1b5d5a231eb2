import numpy as np
import pytest

import child
import layers
import spans
from workloads import WORKLOADS


def _invocation(names, starts, ends, sizes, wall=10.0):
    s = {"name": np.array(names), "thread": np.ones(len(names), dtype=np.int64),
         "start": np.array(starts, dtype=float), "end": np.array(ends, dtype=float),
         "size": np.array(sizes, dtype=np.int64)}
    parent = spans.parents(s["thread"], s["start"], s["end"])
    s["self"] = spans.self_times(s["thread"], s["start"], s["end"], parent)
    s["parent"] = np.where(parent >= 0, s["name"][parent], "")
    stamps = {"runs": [[1.0, 2.0]], "loss_use": {"calls": 1, "discarded": 1},
              "missing": []}
    return {"spans": s, "stamps": stamps, "wall": wall}


def _metrics(missing):
    # cli.main [0, 10] > cli.run [1, 9] > local_update [2, 8] (gradient,
    # loss, to_batch) and global_loss [8.25, 8.75] (to_batch)
    inv = _invocation(
        ["cli.main", "cli.run", "engine.local_update", "client.gradient", "client.loss",
         "data.Dataset.to_batch", "engine.global_loss", "data.Dataset.to_batch"],
        [0.0, 1.0, 2.0, 3.0, 5.0, 6.5, 8.25, 8.5],
        [10.0, 9.0, 8.0, 4.0, 6.0, 7.0, 8.75, 8.75],
        [-1, -1, -1, 5, -1, -1, -1, -1])
    return layers.metrics(WORKLOADS["paper_c8"], layers.Traced([inv]),
                          untraced_walls=[8.0], walls_1=[10.0], walls_2=[12.0],
                          all_traced=[inv], missing=missing)


def test_metrics_from_a_hand_built_trace():
    got = {k: v for k, (v, _) in _metrics(set()).items()}
    assert got["client.local_update.calls"] == 1
    assert got["client.local_update.share"] == pytest.approx(0.6)
    assert got["models.gradient.us_p50"] == pytest.approx(1e6)
    assert got["client.discarded_loss_ratio"] == 1.0
    assert got["engine.pool_speedup"] == pytest.approx(10 / 12)
    assert got["trace.overhead"] == pytest.approx(10 / 8)
    # local_update [2, 8] minus gradient, loss and to_batch, per local step
    steps = WORKLOADS["paper_c8"].steps
    assert got["client.step_us"] == pytest.approx(1e6 * 6 / steps)
    assert got["client.self_us_per_step"] == pytest.approx(1e6 * 3.5 / steps)
    # cli.run [1, 9] minus local_update and global_loss, over 2 stamped rounds
    assert got["engine.self_ms_per_round"] == pytest.approx(1e3 * 1.5 / 2)
    # to_batch is split by the span that calls it
    assert got["data.to_batch.calls.client"] == 1
    assert got["data.to_batch.calls.metrics"] == 1
    assert got["data.to_batch.self_us_p50.client"] == pytest.approx(0.5e6)
    assert got["server.momentum_residual.us_p50"] == 0.0


def test_missing_hook_nulls_only_its_metrics():
    got = {k: v for k, (v, _) in _metrics({"client.gradient"}).items()}
    assert got["models.gradient.calls"] is None
    assert got["client.self_us_per_step"] is None
    assert got["client.local_update.calls"] == 1
    assert got["models.loss.calls.client"] == 1
    got = {k: v for k, (v, _) in _metrics({"engine.global_loss"}).items()}
    assert got["data.to_batch.calls.metrics"] is None
    assert got["data.to_batch.calls.client"] == 1


def test_install_hooks_names_missing_hooks(monkeypatch):
    import fedsim.metrics

    monkeypatch.setattr(fedsim.metrics, "loss", fedsim.metrics.loss)
    monkeypatch.setattr(child, "HOOKS", (("metrics", "loss", None),
                                         ("metrics", "no_such_function", None),
                                         ("no_such_module", "f", None)))
    recorder = spans.SpanRecorder()
    missing = child.install_hooks(recorder, child.LossUse())
    assert missing == ["metrics.no_such_function", "no_such_module.f"]
    assert fedsim.metrics.loss.__wrapped__ is not None


def test_loss_use_counts_values_nobody_reads():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Result:
        kept: float
        dropped: float

    use = child.LossUse()
    loss = use.wrap_loss(lambda x: x * 1.5)
    update = use.wrap_local_update(lambda: Result(loss(2.0), loss(4.0)))
    first, second = update(), update()
    assert isinstance(first, Result)
    assert first.kept == 3.0 and second.kept == 3.0
    assert use.report() == {"calls": 4, "discarded": 2}

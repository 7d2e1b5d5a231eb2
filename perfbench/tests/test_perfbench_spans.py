import threading

import numpy as np
import pytest

import layers
import spans


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9];
    # a lone span [12, 13] follows on the same thread.
    starts = [0, 1, 2, 5, 12]
    ends = [10, 4, 3, 9, 13]
    out = spans.self_times([7] * 5, starts, ends)
    assert out.tolist() == [10 - 3 - 4, 3 - 1, 1, 4, 1]


def test_self_time_counts_siblings_that_touch_as_disjoint():
    out = spans.self_times([1, 1, 1], [0, 0, 5], [10, 5, 10])
    assert out.tolist() == [0, 5, 5]


def test_self_time_is_per_thread():
    # a worker span overlapping the main thread's span is not its child
    threads = [1, 1, 2, 2]
    starts = [0, 1, 2, 3]
    ends = [10, 2, 9, 4]
    out = spans.self_times(threads, starts, ends)
    assert out.tolist() == [9, 1, 6, 1]
    # summed self time exceeds the wall when threads overlap
    assert out.sum() > max(ends) - min(starts)


def test_self_time_is_order_independent():
    rng = np.random.default_rng(0)
    threads = [1, 1, 1, 2, 2]
    starts = np.array([0.0, 1.0, 2.0, 0.5, 0.75])
    ends = np.array([5.0, 4.0, 3.0, 1.5, 1.0])
    expected = spans.self_times(threads, starts, ends)
    perm = rng.permutation(5)
    shuffled = spans.self_times(np.array(threads)[perm], starts[perm], ends[perm])
    assert shuffled.tolist() == expected[perm].tolist()


def test_recorder_round_trip(tmp_path):
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1, size=lambda args: args[0])
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    worker = threading.Thread(target=inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.dump(tmp_path / "spans.npz")
    got = spans.load(tmp_path / "spans.npz")
    assert got["name"].tolist() == ["inner", "outer", "inner"]
    assert got["size"].tolist() == [3, -1, 5]
    assert len(set(got["thread"].tolist())) == 2
    assert got["parent"].tolist() == ["outer", "", ""]
    assert got["self"][1] == pytest.approx(
        (got["end"][1] - got["start"][1]) - (got["end"][0] - got["start"][0]))


def test_recorder_records_raising_calls(tmp_path):
    rec = spans.SpanRecorder()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        rec.wrap("fail", fail)()
    assert [s[0] for s in rec.spans] == ["fail"]


def test_direct_parents_of_a_two_thread_set():
    # main thread: [1, 9] holds [2, 8], which holds [3, 4]; a worker span
    # [3, 7] overlaps them and holds [5, 6]
    threads = [1, 1, 1, 2, 2]
    starts = [1, 2, 3, 3, 5]
    ends = [9, 8, 4, 7, 6]
    assert spans.parents(threads, starts, ends).tolist() == [-1, 0, 1, -1, 3]


def test_gradient_flops_from_layer_shapes():
    # softmax 20 -> 10: forward and weight gradient, 2 flops per multiply-add
    assert layers.gradient_flops([20, 10], np.array([5])) == 2 * 2 * 200 * 5
    # one hidden layer adds the backward matmul of the second layer
    assert layers.gradient_flops([4, 3, 2], np.array([1, 1])) == 2 * (2 * 18 + 6) * 2

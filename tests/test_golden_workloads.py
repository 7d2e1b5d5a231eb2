"""The benchmark's three workloads at seeds 11 and 23 write the bytes
recorded in ``tests/golden/digests.json``. They take seconds, so they are
marked ``slow`` and left out of the default run; run them with
``python -m pytest -m slow tests/test_golden_workloads.py``."""

import pytest

from golden.cases import differences, load, record, version_mismatch, workload_cases

pytestmark = pytest.mark.slow


def test_every_workload_writes_its_recorded_bytes():
    digests = load()
    mismatch = version_mismatch(digests["versions"])
    if mismatch:
        pytest.fail(f"golden digests were made with another numpy or BLAS: {mismatch}")
    got = {case.name: record(case) for case in workload_cases()}
    diffs = differences(digests["workloads"], got)
    assert not diffs, "golden outputs differ:\n" + "\n".join(diffs)

"""Output bytes pinned across commits: every case of the golden corpus
(``tests/golden/cases.py``) must write exactly the files, and the bytes,
recorded in ``tests/golden/digests.json``. A change that moves a digest
rewrites the file with ``python tests/golden/rewrite.py`` and says why."""

import pytest

from golden.cases import CASES, differences, load, record, version_mismatch


def test_digests_were_made_with_this_numpy_and_blas():
    mismatch = version_mismatch(load()["versions"])
    if mismatch:
        pytest.fail(f"golden digests were made with another numpy or BLAS: {mismatch}")


def test_every_case_writes_its_recorded_bytes():
    expected = load()["cases"]
    diffs = differences(expected, {case.name: record(case) for case in CASES})
    assert not diffs, "golden outputs differ:\n" + "\n".join(diffs)

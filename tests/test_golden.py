"""Output bytes pinned across commits: every case of the golden corpus
(``tests/golden/cases.py``) must write exactly the files, and the bytes,
recorded in ``tests/golden/digests.json``. A change that moves a digest
rewrites the file with ``python tests/golden/rewrite.py`` and says why."""

import copy

import pytest

from golden.cases import (CASES, core_note, differences, load, record, version_mismatch,
                          versions)
from golden.rewrite import moved


def test_digests_were_made_with_this_numpy_and_blas():
    mismatch = version_mismatch(load()["versions"])
    if mismatch:
        pytest.fail(f"golden digests were made with another numpy or BLAS: {mismatch}")


def test_every_case_writes_its_recorded_bytes():
    digests = load()
    diffs = differences(digests["cases"], {case.name: record(case) for case in CASES})
    assert not diffs, (f"{core_note(digests['versions'])}; golden outputs differ:\n"
                       + "\n".join(diffs))


def test_a_blas_core_mismatch_alone_is_named_but_does_not_fail():
    # two cores can share a kernel, so the core is recorded and named, and
    # only bytes that differ fail
    made_with = load()["versions"]
    here = versions()
    assert "blas_core" in made_with and "blas_core" in here
    assert version_mismatch({**here, "blas_core": "another core"}) is None
    assert core_note({**here, "blas_core": "another core"}) == (
        f"BLAS core 'another core' (digests) vs {here['blas_core']!r} (here)")


def test_a_rewrite_names_each_record_that_moved():
    old = load()
    assert moved(old, copy.deepcopy(old)) == []
    new = copy.deepcopy(old)
    new["versions"]["blas_core"] = "another core"
    new["cases"]["two-groups"]["files"]["rounds.csv"] = "0" * 64
    del new["workloads"]["paper_c8-seed23"]
    assert moved(old, new) == [
        f"versions: blas_core {old['versions'].get('blas_core')!r} -> 'another core'",
        "cases: two-groups: rounds.csv differs",
        "workloads: paper_c8-seed23: not run"]

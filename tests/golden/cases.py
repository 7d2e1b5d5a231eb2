"""The golden-output corpus: configs whose output bytes are pinned.

Every case is one ``fedsim run`` or ``fedsim compare`` invocation, run in
process through ``fedsim.cli.main``. A case's record is its exit status,
its stderr lines and the sha256 of every file it writes except the
manifests, which hold timestamps and the environment. ``digests.json``
beside this file holds the records, and the numpy and BLAS versions and
the BLAS core they were made with, since the bytes depend on numpy's
streams and kernels.

``CASES`` is the fast corpus: the 56-config matrix (7 rules × softmax or
mlp × iid or Dirichlet × ``eval_every`` 1 or 3, as 8 compares of 7 rules)
and one case for each path the matrix misses. Every case runs in this
directory, so a config's relative data path, which its hash covers, reads
the same in every checkout. ``workload_cases()`` adds the three benchmark
workloads of ``perfbench/workloads.py`` at seeds 11 and 23, which take
seconds.

    python tests/golden/rewrite.py

rewrites ``digests.json`` from the checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedsim.cli import main

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
PERFBENCH = HERE.parent.parent / "perfbench"

RULES = ("fedavg", "fedprox", "fedavgm", "fedadam", "fedcm", "feddyn", "fedagm")

# 60 training examples over 12 clients, 6 sampled a round
_BASE = {
    "rounds": 7, "clients": 12, "participation": 0.5, "seed": 5,
    "model": {"kind": "softmax_classifier", "input_dim": 4, "output_dim": 3,
              "hidden_dims": [], "l2_weight_decay": 0.001},
    "data": {"classes": 3, "train_per_class": 20, "test_per_class": 6, "input_dim": 4},
    "partition": {"kind": "iid", "concentration": 0.3},
    "local": {"k": 6, "epochs": 2, "lr0": 0.1, "prox_mu": 0.05},
}
_MLP = {"kind": "mlp", "input_dim": 4, "output_dim": 3, "hidden_dims": [5],
        "l2_weight_decay": 0.001}


@dataclass(frozen=True)
class Case:
    name: str
    verb: str            # "run" or "compare"
    configs: tuple       # (label, config dict) per config file
    argv: tuple = ()     # further CLI arguments


def _config(**changes) -> dict:
    cfg = copy.deepcopy(_BASE)
    for key, value in changes.items():
        section, _, leaf = key.rpartition("__")
        (cfg.setdefault(section, {}) if section else cfg)[leaf] = value
    return cfg


def _matrix() -> list[Case]:
    cases = []
    for model in ("softmax", "mlp"):
        for partition in ("iid", "dirichlet"):
            for eval_every in (1, 3):
                cfg = _config(eval_every=eval_every, partition__kind=partition)
                if model == "mlp":
                    cfg["model"] = dict(_MLP)
                cases.append(Case(f"matrix-{model}-{partition}-every{eval_every}", "compare",
                                  tuple((rule, dict(cfg, algorithm=rule)) for rule in RULES)))
    return cases


def _extras() -> list[Case]:
    def run(name, **changes):
        return Case(name, "run", ((name, _config(**changes)),))

    return [
        # 60 examples over 7 clients: shards of 9 and of 8 whose ids
        # interleave, so a round folds one group's rows, then the other's
        run("two-groups", algorithm="fedagm", clients=7, participation=1.0,
            partition__kind="dirichlet", partition__concentration=0.5),
        run("linear-regression", algorithm="fedcm",
            model={"kind": "linear_regression", "input_dim": 4, "output_dim": 1,
                   "hidden_dims": [], "l2_weight_decay": 0.0},
            local__lr0=0.02),
        run("clipping", algorithm="fedagm", local__lr0=2.0, local__clip_norm=0.05),
        run("lr-decay", algorithm="feddyn", local__lr_decay=0.7, eval_every=2),
        # 48 rows of 3 features on scales 1e-2 to 1e2, the label column
        # among them and the classes first seen in the order c, b, a
        run("csv-normalized", algorithm="fedagm",
            model={"kind": "softmax_classifier", "input_dim": 3, "output_dim": 3,
                   "hidden_dims": [], "l2_weight_decay": 0.001},
            data={"kind": "csv", "path": "three_classes.csv", "label_column": "kind",
                  "normalize": True, "test_fraction": 0.25}),
        Case("targets", "compare", tuple(
            (rule, _config(algorithm=rule, rounds=9, targets=[0.4, 0.8, 0.99]))
            for rule in ("fedavg", "fedagm"))),
        # the second rule's server model overflows in round 5, so the third
        # never runs
        Case("aborting-compare", "compare", (
            ("fedavg", _config(algorithm="fedavg")),
            ("fedadam", _config(algorithm="fedadam", server={"global_lr": 1e153})),
            ("fedagm", _config(algorithm="fedagm")))),
    ]


CASES = _matrix() + _extras()


def workload_cases(seeds=(11, 23)) -> list[Case]:
    """The benchmark's workloads, each at each of ``seeds``, with the
    configs ``perfbench/workloads.py`` writes for them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [Case(f"{w.name}-seed{seed}", w.verb,
                 tuple(zip(w.algorithms, w.configs(seed))))
            for w in workloads.WORKLOADS.values() for seed in seeds]


def blas_core() -> str | None:
    """The core type OpenBLAS runs on in this process, as the
    ``scipy_openblas`` library that numpy wheels ship names it (SkylakeX,
    Haswell, ...), or None when no such library can be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def versions() -> dict:
    """The numpy and BLAS that made this process's digests, and the BLAS
    core they ran on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # a numpy whose show_config has no mode
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": blas_core()}


@contextlib.contextmanager
def _working_dir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def record(case: Case) -> dict:
    """Run ``case`` in a fresh directory; returns its exit status, stderr
    lines and the digest of every file it wrote but the manifests."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [case.verb]
        for label, cfg in case.configs:
            path = root / f"{label}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv += ["--config", str(path)]
        out = root / "out"
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
              _working_dir(HERE)):
            status = main([*argv, *case.argv, "--out", str(out)])
        files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.rglob("*"))
                 if p.is_file() and p.name != "manifest.json"}
    return {"exit": status, "stderr": err.getvalue().splitlines(), "files": files}


def load() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def version_mismatch(made_with: dict) -> str | None:
    """What differs between the numpy and BLAS versions ``made_with`` and
    this process's, or None. The BLAS core is left out: two cores can
    share a kernel, so only bytes that differ fail (see :func:`core_note`)."""
    here = versions()
    diffs = [f"{key} {made_with.get(key)!r} (digests) vs {here[key]!r} (here)"
             for key in here if key != "blas_core" and made_with.get(key) != here[key]]
    return "; ".join(diffs) or None


def core_note(made_with: dict) -> str:
    """The BLAS cores of the digests ``made_with`` and of this process,
    the first suspect when the bytes differ."""
    return (f"BLAS core {made_with.get('blas_core')!r} (digests) vs "
            f"{versions()['blas_core']!r} (here)")


def differences(expected: dict, got: dict) -> list[str]:
    """One line per case, and per file within it, whose record differs."""
    lines = []
    for name in sorted(expected.keys() | got.keys()):
        want, have = expected.get(name), got.get(name)
        if want is None or have is None:
            lines.append(f"{name}: {'not in digests.json' if want is None else 'not run'}")
            continue
        for key in ("exit", "stderr"):
            if want[key] != have[key]:
                lines.append(f"{name}: {key} {have[key]!r}, expected {want[key]!r}")
        for path in sorted(want["files"].keys() | have["files"].keys()):
            if want["files"].get(path) != have["files"].get(path):
                state = ("missing" if path not in have["files"] else
                         "unexpected" if path not in want["files"] else "differs")
                lines.append(f"{name}: {path} {state}")
    return lines

"""Run one fedsim CLI invocation in this fresh process and time it.

    python child.py STAMPS [--spans SPANS] -- FEDSIM_ARGS...

fedsim is imported from the checkout's ``src/``, never from an installed
copy. The engine ``run`` that ``fedsim.cli`` calls is wrapped so that each
``on_record`` callback is stamped with the clock, one call per round.

With ``--spans`` every call between package modules is also recorded as a
span. The package binds with ``from .x import y``, so each callee is
wrapped in the caller's namespace (``client.gradient``, ``metrics.loss``),
never in its own module. A hook whose name no longer exists is listed as
missing and skipped.

STAMPS receives one JSON object when ``fedsim.cli.main`` returns; the exit
status is that of ``main``.
"""

import importlib
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from spans import SpanRecorder

SRC = Path(__file__).resolve().parent.parent / "src"


def _batch_rows(args):
    return args[2].features.shape[0]


def _client_count(args):
    return len(args[1])


# (caller module, attribute, size of the span) for every call the benchmark
# times; the span is named "<module>.<attribute>".
HOOKS = (
    ("cli", "resolve_config", None),
    ("cli", "build_dataset", None),
    ("cli", "build_run_config", None),
    ("cli", "run", None),
    ("engine", "partition_dirichlet", None),
    ("engine", "partition_iid", None),
    ("engine", "sample_clients", None),
    ("engine", "broadcast", None),
    ("engine", "local_update", None),
    ("engine", "aggregate_fedagm", _client_count),
    ("engine", "aggregate_baseline", _client_count),
    ("engine", "momentum_residual", None),
    ("engine", "feddyn_updated_state", None),
    ("engine", "global_loss", None),
    ("engine", "accuracy", None),
    ("client", "gradient", _batch_rows),
    ("client", "loss", None),
    ("client", "axpy", None),
    ("client", "l2_norm_sq", None),
    ("metrics", "loss", None),
    ("server", "mean", None),
    ("server", "axpy", None),
    ("data", "Dataset.to_batch", None),
)


def stamp_rounds(cli, runs: list) -> None:
    """Wrap the engine ``run`` seen by ``cli`` so each call appends a list
    of per-record clock readings to ``runs``."""
    engine_run = cli.run

    def run(*args, on_record=None, **kwargs):
        stamps = []
        runs.append(stamps)

        def stamped(record):
            stamps.append(time.perf_counter())
            if on_record is not None:
                on_record(record)

        return engine_run(*args, on_record=stamped, **kwargs)

    cli.run = run


class LossUse:
    """Counts loss values computed inside ``local_update`` that no code
    reads afterwards.

    A value counts as used when the result of its ``local_update`` holds
    it (by identity) in a field that some code reads during the run. The
    result's class is swapped for a subclass that records attribute
    reads, so ``isinstance`` and ``dataclasses`` keep working. When a
    result's class cannot be swapped, the report is None.
    """

    def __init__(self):
        self._local = threading.local()
        self._subclasses = {}
        self.holders = Counter()      # tuple of field names -> loss values
        self.read = set()             # field names read on any result
        self.unwatched = 0

    def wrap_loss(self, fn):
        def loss(*args, **kwargs):
            value = fn(*args, **kwargs)
            pending = getattr(self._local, "values", None)
            if pending is not None:
                pending.append(value)
            return value
        return loss

    def wrap_local_update(self, fn):
        def local_update(*args, **kwargs):
            self._local.values = []
            try:
                result = fn(*args, **kwargs)
            finally:
                values, self._local.values = self._local.values, None
            fields = getattr(result, "__dict__", {})
            for v in values:
                self.holders[tuple(f for f, x in fields.items() if x is v)] += 1
            self._watch(result)
            return result
        return local_update

    def _watch(self, obj) -> None:
        cls = type(obj)
        sub = self._subclasses.get(cls)
        if sub is None:
            read = self.read

            def __getattribute__(inner, attr, _get=object.__getattribute__):
                read.add(attr)
                return _get(inner, attr)

            sub = type(cls.__name__, (cls,), {"__getattribute__": __getattribute__,
                                              "__slots__": ()})
            self._subclasses[cls] = sub
        try:
            object.__setattr__(obj, "__class__", sub)
        except TypeError:
            self.unwatched += 1

    def report(self) -> dict | None:
        if self.unwatched:
            return None
        calls = sum(self.holders.values())
        discarded = sum(n for fields, n in self.holders.items()
                        if not self.read.intersection(fields))
        return {"calls": calls, "discarded": discarded}


def install_hooks(recorder: SpanRecorder, loss_use: LossUse) -> list[str]:
    """Wrap every hook in ``HOOKS``; returns the names that are missing."""
    missing = []
    for module_name, attr, size in HOOKS:
        try:
            owner = importlib.import_module(f"fedsim.{module_name}")
        except ModuleNotFoundError:
            owner = None
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        name = f"{module_name}.{attr}"
        if not callable(fn):
            missing.append(name)
            continue
        if name == "client.loss":
            fn = loss_use.wrap_loss(fn)
        elif name == "engine.local_update":
            fn = loss_use.wrap_local_update(fn)
        setattr(owner, leaf, recorder.wrap(name, fn, size))
    return missing


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else 0
    if split == 0:
        print("usage: child.py STAMPS [--spans SPANS] -- FEDSIM_ARGS...",
              file=sys.stderr)
        return 2
    own, fedsim_args = argv[:split], argv[split + 1:]
    stamps_path = Path(own[0])
    spans_path = Path(own[2]) if own[1:2] == ["--spans"] else None

    if not (SRC / "fedsim" / "cli.py").is_file():
        print(f"error: no fedsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedsim.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "fedsim":
        print(f"error: fedsim imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    runs: list[list[float]] = []
    stamp_rounds(cli, runs)
    entry = cli.main
    recorder = loss_use = None
    missing: list[str] = []
    if spans_path is not None:
        recorder, loss_use = SpanRecorder(), LossUse()
        missing = install_hooks(recorder, loss_use)
        entry = recorder.wrap("cli.main", entry)

    status = entry(fedsim_args)
    stamps = {"runs": runs}
    if recorder is not None:
        dump_start = time.perf_counter()
        recorder.dump(spans_path)
        stamps.update(missing=missing, loss_use=loss_use.report(),
                      dump_s=time.perf_counter() - dump_start)
    stamps_path.write_text(json.dumps(stamps), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Experiment front door: ``fedsim run | compare | selftest``.

Configs are JSON objects; every key has a default, so a minimal file like
``{"algorithm": "fedagm", "rounds": 100}`` is complete. ``--set a.b=v``
overrides any resolved key with a dotted path (values parse as JSON, with
a bare-string fallback so ``--set algorithm=fedcm`` works unquoted). Each
key's default, type and bound come from :mod:`fedsim.schema`. The
fully resolved config is hashed (sha256 over its canonical serialization)
and echoed into manifest.json, so two runs with the same hash are
byte-identical in rounds.csv and summary.json. Each command builds its
data set and prepares one :class:`fedsim.engine.Task` from it, which a
compare's rules share, then drops the ungrouped training set before its
first round; it calls the engine's ``run`` once per config.

Exit codes: 0 success, 1 an unexpected exception, a fault of the program
(one ``error:`` line with its type; the manifest says ``status:
"crashed"``), or a selftest that FAILs, 2 config/input problem (parse
errors carry line:column; a value out of bounds reads ``<key> must ...,
got <value>``; a manifest says ``status: "config_error"``) or an output
that cannot be written (the message names it; the manifest says
``status: "io_error"``), 3 numeric abort (message carries round/client;
the partial rounds.csv written so far is kept; ``numeric_abort``), 130
interrupted by SIGINT (``interrupted``). One table, ``_ENDINGS``, gives
each exception its exit code and its manifest status, so the two always
agree. A manifest says ``status: "running"`` from the moment its
directory exists, so a killed run leaves that. A run or compare then
deletes the outputs that the manifest it replaced listed, so no file of
an earlier run is left beside its own.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import re
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .algorithms import REGISTRY
from .client import LocalConfig
from .data import load_csv, split_stratified, synthetic_split
from .engine import RoundRecord, RunConfig, Task, prepare, run
from .errors import ConfigError, NumericError, OutputError, StructuralError
from .metrics import rounds_to_target
from .models import ModelSpec
from .schema import DEFAULT_CONFIG, LEAVES, check_config, coerce
from .selftest import run_selftest
from .server import ServerHyper

# rounds.csv's header and the fields of each row, in order
COLUMNS = tuple(f.name for f in dataclasses.fields(RoundRecord))

# The most float64 values a synthetic data set may hold (512 MiB); the
# train/test split and the engine's shard groups copy it again. A larger
# set is rejected before any of it is drawn.
MAX_SYNTHETIC_VALUES = 2 ** 26

# keys that cmd_compare requires to be identical across its configs: the
# runs must see the same data, model, sampling schedule, and metrics so
# only the optimizer differs, and so one prepared task serves them all.
_COMPARE_FREE_KEYS = ("algorithm", "local", "server")

# the variables that set the BLAS's thread count, echoed into the manifest
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _merge(node: dict, raw: dict, prefix: str, path: str | None) -> None:
    """Write the values of ``raw`` over the defaults in ``node``, in place."""
    for key, value in raw.items():
        if isinstance(node.get(key), dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be an object", path=path)
            _merge(node[key], value, f"{prefix}{key}.", path)
        elif key in node:  # node holds its section's defaults, so its own leaves
            node[key] = coerce(prefix + key, value, path)
        else:
            raise ConfigError(f"unknown config key: {prefix}{key}", path=path)


def load_config(path: str) -> dict:
    """Parse a JSON config file and fill in every default."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", path=path) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: byte {exc.start} does not decode",
                          path=path) from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc.msg}", path=path,
                          line=exc.lineno, column=exc.colno) from None
    except ValueError:  # an integer of more digits than Python converts
        raise ConfigError("invalid JSON: an integer has too many digits", path=path) from None
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object", path=path)
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    _merge(cfg, raw, "", path)
    return cfg


def apply_overrides(cfg: dict, pairs: list[str]) -> None:
    """Apply ``--set key.path=value`` pairs in order, in place."""
    for item in pairs:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in LEAVES:
            raise ConfigError(f"--set addresses unknown key: {key}")
        try:
            value = json.loads(text)
        except ValueError:  # not JSON, or an integer of too many digits
            value = text
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = coerce(key, value)


def finalize_config(cfg: dict) -> None:
    """Fill algorithm-dependent defaults: the rule's own ``global_lr``."""
    if cfg["server"]["global_lr"] is None:
        cfg["server"]["global_lr"] = REGISTRY[cfg["algorithm"]].global_lr


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolve_config(path: str, overrides: list[str], seed: int | None) -> dict:
    cfg = load_config(path)
    apply_overrides(cfg, overrides)
    if seed is not None:
        cfg["seed"] = seed
    check_config(cfg)
    finalize_config(cfg)
    return cfg


def build_dataset(cfg: dict):
    """Materialize (train, test, meta) from the data section and check it
    against the model and the client count."""
    d = cfg["data"]
    seed = cfg["seed"]
    if d["kind"] == "synthetic":
        size = d["classes"] * (d["train_per_class"] + d["test_per_class"]) * d["input_dim"]
        if size > MAX_SYNTHETIC_VALUES:
            raise ConfigError(
                f"data: the synthetic set has {size} values (data.classes * "
                "(data.train_per_class + data.test_per_class) * data.input_dim), "
                f"more than the {MAX_SYNTHETIC_VALUES} allowed")
        train, test = synthetic_split(seed, d["classes"], d["train_per_class"],
                                      d["test_per_class"], d["input_dim"], d["spread"])
        meta = {"kind": "synthetic"}
        source = "data.classes * data.train_per_class"
    else:
        if not d["path"] or not d["label_column"]:
            raise ConfigError("data.path and data.label_column must be set "
                              "when data.kind is csv")
        ds = load_csv(d["path"], d["label_column"], normalize=d["normalize"])
        try:
            train, test = split_stratified(ds, d["test_fraction"], seed)
        except StructuralError as exc:
            raise ConfigError(f"data.test_fraction {d['test_fraction']!r}: {exc}",
                              path=d["path"]) from None
        meta = {"kind": "csv", **ds.meta}
        source = d["path"]
    meta["train_examples"] = train.n
    meta["test_examples"] = test.n

    m = cfg["model"]
    if train.features.shape[1] != m["input_dim"]:
        raise ConfigError(f"model.input_dim is {m['input_dim']} but the data "
                          f"has {train.features.shape[1]} features")
    if m["kind"] != "linear_regression" and train.class_count != m["output_dim"]:
        raise ConfigError(f"model.output_dim is {m['output_dim']} but the data "
                          f"has {train.class_count} classes")
    if cfg["clients"] > train.n:
        raise ConfigError(f"clients is {cfg['clients']} but must be at most the "
                          f"{train.n} examples of the training set ({source})")
    return train, test, meta


def build_run_config(cfg: dict) -> RunConfig:
    try:
        model = ModelSpec(**cfg["model"])
    except StructuralError as exc:  # a check across the model's keys
        raise ConfigError(str(exc)) from None
    return RunConfig(algorithm=cfg["algorithm"], model=model,
                     n_clients=cfg["clients"], rounds=cfg["rounds"],
                     participation=cfg["participation"], seed=cfg["seed"],
                     eval_every=cfg["eval_every"], partition_kind=cfg["partition"]["kind"],
                     concentration=cfg["partition"]["concentration"],
                     local=LocalConfig(**cfg["local"]), server=ServerHyper(**cfg["server"]))


def _csv_line(row) -> str:
    """One CSV line of ``row``'s values. Each is an int, a str or a float,
    and ``str`` of a float is the shortest decimal that round-trips, so
    reruns of the same config write byte-identical files."""
    return ",".join(map(str, row)) + "\n"


def _targets_report(records, targets, total_rounds: int) -> dict:
    """First evaluated round whose smoothed accuracy reaches each target,
    rendered as an int, or "<rounds>+" when never reached (recomputable by
    scanning the ema_accuracy column of rounds.csv)."""
    report = {}
    for t in targets:
        hit = rounds_to_target(records, t)
        report[str(t)] = f"{total_rounds}+" if hit is None else hit
    return report


# Strict JSON has no NaN or Infinity literal. A NaN (the accuracy of a
# regression run) is written as null, and +Infinity, which only the
# bound of local.clip_norm admits, as the number 1e999,
# which IEEE-754 parsers (Python's json, JavaScript's JSON.parse) read
# back as +Infinity; -Infinity raises. A string literal is matched whole,
# so text inside one is never taken for a bare token.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN')


def _strict_token(match) -> str:
    token = match.group()
    if token == "-Infinity":
        raise ValueError("-Infinity has no strict JSON form")
    return {"NaN": "null", "Infinity": "1e999"}.get(token, token)


@contextmanager
def _writing(path: Path):
    """Raise an OSError met inside as an OutputError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(path: Path, content) -> None:
    """Write a dict as strict JSON, or a list of rows as CSV lines, to
    ``path``; every output but the streamed rounds.csv goes through here.
    The text goes to a temporary file beside ``path`` that then replaces
    it, so a reader sees the old file or the new one, never part of one."""
    if isinstance(content, dict):
        text = json.dumps(content, indent=2, sort_keys=True)
        text = _JSON_TOKEN.sub(_strict_token, text) + "\n"
    else:
        text = "".join(map(_csv_line, content))
    tmp = path.with_name(path.name + ".tmp")
    with _writing(path):
        try:
            tmp.write_bytes(text.encode("utf-8"))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def environment() -> dict:
    """The interpreter, numpy, BLAS, CPUs and BLAS thread variables of this
    process, for the manifest; a value numpy or the OS does not report is
    None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # a numpy whose show_config has no mode
        blas = {}
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # an OS without CPU affinity
        cpus = os.cpu_count()
    return {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "cpu_count": cpus, **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _is_own_output(name) -> bool:
    """Whether ``name``, an entry of an old manifest's ``output_paths``, is
    the bare name, without a separator, of a file that a run or a compare
    writes beside its manifest."""
    return (isinstance(name, str) and "/" not in name and "\\" not in name
            and (name in ("rounds.csv", "summary.json", "comparison.csv")
                 or name.endswith("_curve.csv")))


# How each family of exception ends a command: its exit status and the
# status stamped into the manifest of each run directory it leaves. The
# first family that matches wins; a BaseException that none names
# (SystemExit) ends the process as Python ends it, with no stamp.
_ENDINGS = (
    (NumericError, 3, "numeric_abort"),
    (OutputError, 2, "io_error"),
    (ConfigError, 2, "config_error"),
    (KeyboardInterrupt, 130, "interrupted"),
    (Exception, 1, "crashed"),  # a fault of the program, not of its input
)


def _ending(exc: BaseException):
    """``(exit status, manifest status, error text)`` for ``exc``, or None
    when no family of :data:`_ENDINGS` names it. The text is what follows
    ``error:``: the message, and for a crash also the type, folded onto
    one line; an interrupt has none."""
    for family, code, status in _ENDINGS:
        if isinstance(exc, family):
            text = "" if code == 130 else str(exc)
            if code == 1:
                text = ": ".join(filter(None, [type(exc).__name__, " ".join(text.split())]))
            return code, status, text
    return None


@contextmanager
def _run_dir(out_dir: Path, manifest: dict):
    """Create ``out_dir`` and write ``manifest`` into it, first as
    ``running``, then stamped with how the block ends: ``ok``, or the
    status and ``error`` text that :func:`_ending` gives the exception.
    The outputs that the manifest it replaces lists (one that does not
    parse is ignored) are deleted once the ``running`` manifest is
    written, so no manifest ever vouches for a missing file.
    A failure also gets the fields the caller put into the dict this
    yields, and is raised again."""
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        old = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        stale = [out_dir / name for name in old["output_paths"] if _is_own_output(name)]
    except (OSError, ValueError, TypeError, KeyError):
        stale = []
    manifest.update(started_at=_now(), status="running")
    _write(out_dir / "manifest.json", manifest)
    failure, ending = {}, None
    try:
        for path in stale:
            with _writing(path):
                if path.is_file():
                    path.unlink()
        yield failure
        ending = {"status": "ok"}
    except BaseException as exc:
        if (found := _ending(exc)) is not None:
            _, status, text = found
            ending = {"status": status, **({"error": text} if text else {}), **failure}
        raise
    finally:
        if ending is not None:
            manifest.update(finished_at=_now(), **ending)
            _write(out_dir / "manifest.json", manifest)


def _execute(cfg: dict, rc: RunConfig, task: Task, meta: dict, out_dir: Path, threads: int):
    """Run one resolved config, already built into ``rc``, on ``task``
    into ``out_dir``, with the ``meta`` of :func:`build_dataset` in its
    manifest; returns its records and summary. Writes rounds.csv
    incrementally so an aborted run keeps the rounds finished before the
    failure."""
    digest = config_hash(cfg)
    manifest = {
        "tool_version": __version__,
        "config_hash": digest,
        "config": cfg,
        "data_meta": meta,
        "environment": environment(),
        "threads": threads,
        "output_paths": ["rounds.csv", "summary.json", "manifest.json"],
    }
    rounds_path = out_dir / "rounds.csv"
    with _run_dir(out_dir, manifest):
        with (_writing(rounds_path),
              rounds_path.open("w", encoding="utf-8", newline="") as fh):
            fh.write(_csv_line(COLUMNS))
            result = run(rc, task, on_record=lambda rec: (
                fh.write(_csv_line(getattr(rec, c) for c in COLUMNS)), fh.flush()))
        records = result.records
        summary = {
            "algorithm": cfg["algorithm"],
            "config_hash": digest,
            "evaluated_rounds": len(records),
            "final": None if not records else {
                "round": records[-1].round,
                "train_loss": records[-1].train_loss,
                "test_accuracy": records[-1].test_accuracy,
                "ema_accuracy": records[-1].ema_accuracy,
            },
            "totals": {
                "bytes_down": sum(r.bytes_down for r in records),
                "bytes_up": sum(r.bytes_up for r in records),
            },
            "rounds_to_target": _targets_report(records, cfg["targets"], cfg["rounds"]),
        }
        if result.max_momentum_residual is not None:
            summary["max_momentum_residual"] = result.max_momentum_residual
        _write(out_dir / "summary.json", summary)
    return records, summary


def _out_dir(out: str) -> Path:
    """``--out`` as a Path, rejected when it, or the nearest of its
    parents that exists, is not a directory, so that a run fails before
    any data is built rather than at its first write."""
    path = Path(out)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"--out {out}: {existing} is not a directory")
    return path


def cmd_run(args) -> int:
    out_dir = _out_dir(args.out)
    cfg = resolve_config(args.config, args.overrides, args.seed)
    train, test, meta = build_dataset(cfg)
    rc = build_run_config(cfg)
    task = prepare(rc, train, test)
    del train, test  # the task holds the training features once, as its shard groups
    records, _ = _execute(cfg, rc, task, meta, out_dir, args.threads)
    print(f"run complete: {len(records)} evaluated rounds written to {out_dir}")
    return 0


def _unique_labels(paths: list[str]) -> list[str]:
    """Each config's file stem, or, when an earlier config took that
    label, the stem with the first free ``#n`` (n = 2, 3, ...), so no two
    runs share a directory or a curve."""
    labels = []
    for p in paths:
        label = stem = Path(p).stem
        n = 1
        while label in labels:
            n += 1
            label = f"{stem}#{n}"
        labels.append(label)
    return labels


def cmd_compare(args) -> int:
    out_dir = _out_dir(args.out)
    configs = [resolve_config(p, args.overrides, args.seed) for p in args.configs]
    if len(configs) < 2:
        raise ConfigError("compare needs at least two --config files")
    shared0 = {k: v for k, v in configs[0].items() if k not in _COMPARE_FREE_KEYS}
    for path, cfg in zip(args.configs[1:], configs[1:]):
        shared = {k: v for k, v in cfg.items() if k not in _COMPARE_FREE_KEYS}
        if shared != shared0:
            raise ConfigError("compare configs may differ only in algorithm and "
                              f"hyperparameters; {path} changes the data/model/"
                              f"schedule relative to {args.configs[0]}")
    # the configs share the data section, the model, the seed, the client
    # count and the partition, so one task serves them all
    train, test, meta = build_dataset(configs[0])
    run_configs = [build_run_config(cfg) for cfg in configs]
    task = prepare(run_configs[0], train, test)
    del train, test  # the task holds the training features once, as its shard groups

    labels = _unique_labels(args.configs)
    total_rounds = configs[0]["rounds"]
    mid_round = max(1, total_rounds // 2)
    targets = [str(t) for t in configs[0]["targets"]]
    manifest = {
        "tool_version": __version__,
        "runs": [{"label": label, "config_hash": config_hash(cfg)}
                 for label, cfg in zip(labels, configs)],
        "environment": environment(),
        "output_paths": [f"{label}_curve.csv" for label in labels]
                        + ["comparison.csv", "manifest.json"],
    }
    table = [["label", "algorithm", f"ema_acc_round_{mid_round}",
              f"ema_acc_round_{total_rounds}"] + [f"rounds_to_{t}" for t in targets]]
    with _run_dir(out_dir, manifest) as failure:
        for label, cfg, rc in zip(labels, configs, run_configs):
            failure["failed_label"] = label
            records, summary = _execute(cfg, rc, task, meta, out_dir / label, args.threads)
            _write(out_dir / f"{label}_curve.csv", [["round", "ema_accuracy"]]
                   + [[rec.round, rec.ema_accuracy] for rec in records])
            at_mid = next((r.ema_accuracy for r in reversed(records)
                           if r.round <= mid_round), float("nan"))
            at_end = summary["final"]["ema_accuracy"] if records else float("nan")
            table.append([label, cfg["algorithm"], at_mid, at_end]
                         + [summary["rounds_to_target"][t] for t in targets])
        failure.clear()  # comparison.csv belongs to no one run
        _write(out_dir / "comparison.csv", table)
    print(f"comparison of {len(labels)} runs written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Federated-optimization simulator: accelerated global "
                    "momentum plus six averaging baselines on small models.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, multi_config: bool):
        if multi_config:
            p.add_argument("--config", action="append", required=True,
                           dest="configs", metavar="PATH",
                           help="config file; repeat once per run")
        else:
            p.add_argument("--config", required=True, metavar="PATH",
                           help="JSON config file")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a resolved config key (dotted path, "
                            "repeatable)")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="accepted and recorded in manifest.json; clients "
                            "always run serially (default: 1)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p_run = sub.add_parser("run", help="execute one config and write "
                                       "rounds.csv/summary.json/manifest.json")
    common(p_run, multi_config=False)
    p_run.add_argument("--out", default="fedsim_out", metavar="DIR",
                       help="output directory (default: fedsim_out)")

    p_cmp = sub.add_parser("compare", help="run several configs on the same "
                                           "data and tabulate them")
    common(p_cmp, multi_config=True)
    p_cmp.add_argument("--out", default="fedsim_compare", metavar="DIR",
                       help="output directory (default: fedsim_compare)")

    p_self = sub.add_parser("selftest", help="run the fast invariant suite")
    p_self.add_argument("--perturb-lambda-sign", action="store_true",
                        help="flip the momentum sign inside the recurrence "
                             "check; a healthy build must then FAIL it")
    return parser


# built once: main runs many times in one process under the tests
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.verb == "selftest":
            return run_selftest(perturb_lambda_sign=args.perturb_lambda_sign)
        if args.threads < 1:
            raise ConfigError(f"--threads must be a positive integer, got {args.threads}")
        if args.verb == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except BaseException as exc:
        if (found := _ending(exc)) is None:
            raise
        code, status, text = found
        print(f"error: {text or status}", file=sys.stderr)  # an interrupt names its status
        return code


if __name__ == "__main__":
    sys.exit(main())

"""Experiment front door: ``fedsim run | compare | selftest``.

Configs are JSON objects; every key has a default, so a minimal file like
``{"algorithm": "fedagm", "rounds": 100}`` is complete. ``--set a.b=v``
overrides any resolved key with a dotted path (values parse as JSON, with
a bare-string fallback so ``--set algorithm=fedcm`` works unquoted). The
fully resolved config is hashed (sha256 over its canonical serialization)
and echoed into manifest.json, so two runs with the same hash are
byte-identical in rounds.csv and summary.json.

Exit codes: 0 success, 2 config/input problem (parse errors carry
line:column) or an output that cannot be written (the message names it;
the manifest says ``status: "io_error"``), 3 numeric abort (message
carries round/client; the partial rounds.csv written so far is kept),
130 interrupted by SIGINT (the manifest of the run that was going says
``status: "interrupted"``). A manifest says ``status: "running"`` from
the moment its directory exists, so a killed run leaves that.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .algorithms import REGISTRY
from .client import UNBOUNDED_FIELDS, LocalConfig
from .data import generate_synthetic, load_csv, split_stratified, take_per_class
from .engine import RunConfig, run
from .errors import ConfigError, NumericError, OutputError, StructuralError
from .metrics import Saturated, rounds_to_target
from .models import ModelSpec
from .selftest import run_selftest
from .server import ServerHyper

CSV_HEADER = "round,train_loss,test_accuracy,ema_accuracy,bytes_down,bytes_up\n"

DEFAULT_CONFIG = {
    "algorithm": "fedavg",
    "seed": 0,
    "rounds": 50,
    "clients": 10,
    "participation": 1.0,
    "eval_every": 1,
    "targets": [],
    "model": {
        "kind": "softmax_classifier",
        "input_dim": 20,
        "output_dim": 10,
        "hidden_dims": [],
        "l2_weight_decay": 0.001,
    },
    "data": {
        "kind": "synthetic",
        "classes": 10,
        "train_per_class": 50,
        "test_per_class": 20,
        "input_dim": 20,
        "spread": 1.0,
        "path": None,
        "label_column": None,
        "test_fraction": 0.2,
        "normalize": True,
    },
    "partition": {"kind": "iid", "concentration": 0.3},
    "local": {f.name: f.default for f in fields(LocalConfig)},
    # global_lr None: finalize_config fills in the rule's own default
    "server": {**{f.name: f.default for f in fields(ServerHyper)}, "global_lr": None},
}

# The value type of each leaf whose default is None, and of each item of
# each list leaf, as a default of that type for _coerce.
_OPTIONAL = {"local.batch_size": 1, "server.global_lr": 1.0,
             "data.path": "", "data.label_column": ""}
_ITEMS = {"targets": 0.5, "model.hidden_dims": 1}

# The most float64 values a synthetic data set may hold (512 MiB); the
# train/test split and the engine's shard groups copy it again. A larger
# set is rejected before any of it is drawn.
MAX_SYNTHETIC_VALUES = 2 ** 26

# keys that cmd_compare requires to be identical across its configs: the
# runs must see the same data, model, sampling schedule, and metrics so
# only the optimizer differs.
_COMPARE_FREE_KEYS = ("algorithm", "local", "server")


def _coerce(default, value, keypath: str, path: str | None):
    """Align a config value's type with the default's (ints promote to
    floats, bools stay bools), item by item in a list. Only a leaf whose
    default is None may be null; any other value it takes must have its
    ``_OPTIONAL`` type. A float must be finite, except that a local
    field in ``UNBOUNDED_FIELDS`` may be Infinity."""
    if default is None:
        if value is None:
            return value
        default = _OPTIONAL[keypath]
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{keypath} must be true or false", path=path)
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{keypath} must be a number", path=path)
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range is infinite, as 1e999 is
            value = math.inf if value > 0 else -math.inf
        section, _, name = keypath.rpartition(".")
        unbounded = section == "local" and name in UNBOUNDED_FIELDS and value == math.inf
        if not (math.isfinite(value) or unbounded):
            where = f"{section}: {name}" if section else name
            raise ConfigError(f"{where} must be a finite number", path=path)
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{keypath} must be an integer", path=path)
        return value
    if isinstance(default, str) and not isinstance(value, str):
        raise ConfigError(f"{keypath} must be a string", path=path)
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{keypath} must be a list", path=path)
        return [_coerce(_ITEMS[keypath], v, f"{keypath}[{i}]", path)
                for i, v in enumerate(value)]
    return value


def _merge(defaults: dict, raw: dict, prefix: str, path: str | None) -> dict:
    for key in raw:
        if key not in defaults:
            raise ConfigError(f"unknown config key: {prefix}{key}", path=path)
    out = {}
    for key, dv in defaults.items():
        if key not in raw:
            out[key] = copy.deepcopy(dv)
        elif isinstance(dv, dict):
            if not isinstance(raw[key], dict):
                raise ConfigError(f"{prefix}{key} must be an object", path=path)
            out[key] = _merge(dv, raw[key], f"{prefix}{key}.", path)
        else:
            out[key] = _coerce(dv, raw[key], f"{prefix}{key}", path)
    return out


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
    return _merge(DEFAULT_CONFIG, raw, "", path)


def apply_overrides(cfg: dict, pairs: list[str]) -> None:
    """Apply ``--set key.path=value`` pairs in order, in place."""
    for item in pairs:
        key, sep, text = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        node, default = cfg, DEFAULT_CONFIG
        parts = key.split(".")
        for p in parts[:-1]:
            if not isinstance(default.get(p), dict):
                raise ConfigError(f"--set addresses unknown key: {key}")
            node, default = node[p], default[p]
        leaf = parts[-1]
        if leaf not in default or isinstance(default[leaf], dict):
            raise ConfigError(f"--set addresses unknown key: {key}")
        try:
            value = json.loads(text)
        except ValueError:  # not JSON, or an integer of too many digits
            value = text
        node[leaf] = _coerce(default[leaf], value, key, None)


def finalize_config(cfg: dict) -> None:
    """Fill algorithm-dependent defaults: the rule's own ``global_lr``."""
    algo = REGISTRY.get(cfg["algorithm"])
    if algo is None:
        raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
    if cfg["server"]["global_lr"] is None:
        cfg["server"]["global_lr"] = algo.global_lr


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def resolve_config(path: str, overrides: list[str], seed: int | None) -> dict:
    cfg = load_config(path)
    apply_overrides(cfg, overrides)
    if seed is not None:
        cfg["seed"] = seed
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {cfg['seed']}")
    finalize_config(cfg)
    return cfg


def build_model(cfg: dict) -> ModelSpec:
    m = cfg["model"]
    if m["kind"] == "linear_regression" and m["output_dim"] != 1:
        raise ConfigError("model.output_dim must be 1 for linear_regression")
    if m["kind"] == "mlp" and not m["hidden_dims"]:
        raise ConfigError("model.hidden_dims must list at least one hidden layer for mlp")
    try:
        return ModelSpec(kind=m["kind"], input_dim=m["input_dim"],
                         output_dim=m["output_dim"],
                         hidden_dims=tuple(m["hidden_dims"]),
                         l2_weight_decay=m["l2_weight_decay"])
    except StructuralError as exc:
        raise ConfigError(f"model: {exc}") from None


def build_dataset(cfg: dict):
    """Materialize (train, test, meta) from the data section and check it
    against the model and the client count."""
    d = cfg["data"]
    seed = cfg["seed"]
    if d["kind"] == "synthetic":
        if d["train_per_class"] < 1 or d["test_per_class"] < 1:
            raise ConfigError("data.train_per_class and data.test_per_class "
                              "must be positive")
        if d["classes"] < 1 or d["input_dim"] < 1:
            raise ConfigError("data.classes and data.input_dim must be positive")
        if not 0 <= d["spread"] < math.inf:
            raise ConfigError("data.spread must be a finite nonnegative number")
        size = d["classes"] * (d["train_per_class"] + d["test_per_class"]) * d["input_dim"]
        if size > MAX_SYNTHETIC_VALUES:
            raise ConfigError(
                f"data: the synthetic set has {size} values (data.classes * "
                "(data.train_per_class + data.test_per_class) * data.input_dim), "
                f"more than the {MAX_SYNTHETIC_VALUES} allowed")
        full = generate_synthetic(seed=seed, clusters=d["classes"],
                                  per_class=d["train_per_class"] + d["test_per_class"],
                                  input_dim=d["input_dim"], spread=d["spread"])
        train, test = take_per_class(full, d["train_per_class"])
        meta = {"kind": "synthetic"}
    elif d["kind"] == "csv":
        if not d["path"] or not d["label_column"]:
            raise ConfigError("csv data needs data.path and data.label_column")
        ds = load_csv(d["path"], d["label_column"], normalize=d["normalize"])
        if not 0 < d["test_fraction"] < 1:
            raise ConfigError("data.test_fraction must lie in (0, 1)")
        try:
            train, test = split_stratified(ds, d["test_fraction"], seed)
        except StructuralError as exc:
            raise ConfigError(f"data.test_fraction {d['test_fraction']!r}: {exc}",
                              path=d["path"]) from None
        meta = {"kind": "csv", **ds.meta}
    else:
        raise ConfigError(f"unknown data kind: {d['kind']!r}")
    meta["train_examples"] = train.n
    meta["test_examples"] = test.n

    m = cfg["model"]
    if train.features.shape[1] != m["input_dim"]:
        raise ConfigError(f"model.input_dim is {m['input_dim']} but the data "
                          f"has {train.features.shape[1]} features")
    if m["kind"] != "linear_regression" and train.class_count != m["output_dim"]:
        raise ConfigError(f"model.output_dim is {m['output_dim']} but the data "
                          f"has {train.class_count} classes")
    if not 1 <= cfg["clients"] <= train.n:
        raise ConfigError(f"clients is {cfg['clients']} but must lie between 1 and "
                          f"the {train.n} examples of the training set")
    return train, test, meta


def build_run_config(cfg: dict) -> RunConfig:
    try:
        sections = {}
        for key, cls in (("local", LocalConfig), ("server", ServerHyper)):
            try:
                sections[key] = cls(**cfg[key])
            except StructuralError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        return RunConfig(algorithm=cfg["algorithm"], model=build_model(cfg),
                         n_clients=cfg["clients"], rounds=cfg["rounds"],
                         participation=cfg["participation"], seed=cfg["seed"],
                         eval_every=cfg["eval_every"],
                         targets=tuple(cfg["targets"]),
                         partition_kind=cfg["partition"]["kind"],
                         concentration=cfg["partition"]["concentration"],
                         **sections)
    except StructuralError as exc:
        raise ConfigError(str(exc)) from None
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from None


def _fmt(x: float) -> str:
    # repr gives the shortest decimal that round-trips, so reruns of the
    # same config produce byte-identical files
    return repr(float(x))


def _csv_row(rec) -> str:
    return (f"{rec.round},{_fmt(rec.train_loss)},{_fmt(rec.test_accuracy)},"
            f"{_fmt(rec.ema_accuracy)},{rec.bytes_down},{rec.bytes_up}\n")


def _targets_report(records, targets, total_rounds: int) -> dict:
    """First evaluated round whose smoothed accuracy reaches each target,
    rendered as an int, or "<rounds>+" when never reached (recomputable by
    scanning the ema_accuracy column of rounds.csv)."""
    report = {}
    smoothed = [r.ema_accuracy for r in records]
    for t in targets:
        hit = rounds_to_target(smoothed, t, max(len(smoothed), 1))
        if isinstance(hit, Saturated):
            report[_fmt(t)] = str(Saturated(total_rounds))
        else:
            report[_fmt(t)] = records[hit - 1].round
    return report


# Strict JSON has no NaN or Infinity literal. A NaN (the accuracy of a
# regression run) is written as null, and +Infinity, the value of an
# unbounded local field (client.UNBOUNDED_FIELDS), as the number 1e999,
# which IEEE-754 parsers (Python's json, JavaScript's JSON.parse) read
# back as +Infinity; -Infinity raises.
_INFINITY_MARK = "\0+Infinity"  # stands in for +Infinity until the text is built


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
    def mark(value):
        if isinstance(value, dict):
            return {k: mark(v) for k, v in value.items()}
        if isinstance(value, list):
            return [mark(v) for v in value]
        if isinstance(value, float) and math.isnan(value):
            return None
        return _INFINITY_MARK if isinstance(value, float) and value == math.inf else value
    if isinstance(content, dict):
        text = json.dumps(mark(content), indent=2, sort_keys=True, allow_nan=False)
        text = text.replace(json.dumps(_INFINITY_MARK), "1e999") + "\n"
    else:
        text = "".join(",".join(map(str, row)) + "\n" for row in content)
    tmp = path.with_name(path.name + ".tmp")
    with _writing(path):
        try:
            tmp.write_bytes(text.encode("utf-8"))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@contextmanager
def _run_dir(out_dir: Path, manifest: dict):
    """Create ``out_dir`` and write ``manifest`` into it, first as
    ``running``, then stamped with how the block ends: ``ok``,
    ``numeric_abort`` or ``io_error`` with the ``error``, or
    ``interrupted``. A failure also gets the fields the caller put into
    the dict this yields, and is raised again."""
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    manifest.update(started_at=_now(), status="running")
    _write(out_dir / "manifest.json", manifest)
    failure = {}
    ending = None  # no status describes any other exception
    try:
        yield failure
        ending = {"status": "ok"}
    except NumericError as exc:
        ending = {"status": "numeric_abort", "error": str(exc), **failure}
        raise
    except OutputError as exc:
        ending = {"status": "io_error", "error": str(exc), **failure}
        raise
    except KeyboardInterrupt:
        ending = {"status": "interrupted", **failure}
        raise
    finally:
        if ending is not None:
            manifest.update(finished_at=_now(), **ending)
            _write(out_dir / "manifest.json", manifest)


def _execute(cfg: dict, rc: RunConfig, data: tuple, out_dir: Path, threads: int):
    """Run one resolved config, already built into ``rc`` and ``data`` (the
    (train, test, meta) of :func:`build_dataset`), into ``out_dir``;
    returns its records and summary. Writes rounds.csv incrementally so an
    aborted run keeps the rounds finished before the failure."""
    digest = config_hash(cfg)
    train, test, meta = data
    manifest = {
        "tool_version": __version__,
        "config_hash": digest,
        "config": cfg,
        "data_meta": meta,
        "threads": threads,
        "output_paths": ["rounds.csv", "summary.json", "manifest.json"],
    }
    rounds_path = out_dir / "rounds.csv"
    with _run_dir(out_dir, manifest):
        with (_writing(rounds_path),
              rounds_path.open("w", encoding="utf-8", newline="") as fh):
            fh.write(CSV_HEADER)
            result = run(rc, train, test,
                         on_record=lambda rec: (fh.write(_csv_row(rec)), fh.flush()))
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
            "rounds_to_target": _targets_report(records, rc.targets, cfg["rounds"]),
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
    data = build_dataset(cfg)
    rc = build_run_config(cfg)
    records, _ = _execute(cfg, rc, data, out_dir, args.threads)
    print(f"run complete: {len(records)} evaluated rounds written to {out_dir}")
    return 0


def _unique_labels(paths: list[str]) -> list[str]:
    labels, seen = [], {}
    for p in paths:
        stem = Path(p).stem
        seen[stem] = seen.get(stem, 0) + 1
        labels.append(stem if seen[stem] == 1 else f"{stem}#{seen[stem]}")
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
    # the configs share the data section, the model, the seed and the
    # client count, so one dataset serves them all
    data = build_dataset(configs[0])
    run_configs = [build_run_config(cfg) for cfg in configs]

    labels = _unique_labels(args.configs)
    total_rounds = configs[0]["rounds"]
    mid_round = max(1, total_rounds // 2)
    targets = [_fmt(t) for t in configs[0]["targets"]]
    manifest = {
        "tool_version": __version__,
        "runs": [{"label": label, "config_hash": config_hash(cfg)}
                 for label, cfg in zip(labels, configs)],
    }
    table = [["label", "algorithm", f"ema_acc_round_{mid_round}",
              f"ema_acc_round_{total_rounds}"] + [f"rounds_to_{t}" for t in targets]]
    with _run_dir(out_dir, manifest) as failure:
        for label, cfg, rc in zip(labels, configs, run_configs):
            failure["failed_label"] = label
            records, summary = _execute(cfg, rc, data, out_dir / label, args.threads)
            _write(out_dir / f"{label}_curve.csv", [["round", "ema_accuracy"]]
                   + [[rec.round, _fmt(rec.ema_accuracy)] for rec in records])
            at_mid = next((r.ema_accuracy for r in reversed(records)
                           if r.round <= mid_round), float("nan"))
            at_end = summary["final"]["ema_accuracy"] if records else float("nan")
            table.append([label, cfg["algorithm"], _fmt(at_mid), _fmt(at_end)]
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "selftest":
            return run_selftest(perturb_lambda_sign=args.perturb_lambda_sign)
        if args.threads < 1:
            raise ConfigError("--threads must be a positive integer")
        if args.verb == "run":
            return cmd_run(args)
        return cmd_compare(args)
    except (ConfigError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

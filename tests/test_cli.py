import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from bounds import BOUNDED, edges
from children import CAN_TIE, running, tied
from fedsim import cli, engine
from fedsim.cli import (DEFAULT_CONFIG, apply_overrides, config_hash, load_config,
                        main, resolve_config)
from fedsim.client import LocalConfig
from fedsim.errors import ConfigError, NumericError, OutputError, StructuralError
from fedsim.models import ModelSpec
from fedsim.schema import LEAVES
from fedsim.server import ServerHyper

SMALL = {
    "algorithm": "fedagm",
    "rounds": 8,
    "clients": 6,
    "seed": 4,
    "targets": [0.5, 0.99],
    "model": {"input_dim": 5, "output_dim": 3},
    "data": {"classes": 3, "train_per_class": 20, "test_per_class": 8,
             "input_dim": 5},
    "partition": {"kind": "dirichlet", "concentration": 0.3},
    "local": {"k": 8},
}


def write_config(tmp_path, payload=SMALL, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(out_dir):
    lines = (out_dir / "rounds.csv").read_text().splitlines()
    assert lines[0] == "round,train_loss,test_accuracy,ema_accuracy,bytes_down,bytes_up"
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- config


def test_minimal_config_fills_every_default(tmp_path):
    cfg = load_config(write_config(tmp_path, {"algorithm": "fedcm"}))
    assert cfg["algorithm"] == "fedcm"
    assert cfg["rounds"] == DEFAULT_CONFIG["rounds"]
    assert cfg["local"]["k"] == 50
    assert cfg["server"]["lam"] == 0.85
    assert cfg["data"]["kind"] == "synthetic"


def test_unknown_keys_rejected_with_dotted_path(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key: frobnicate"):
        load_config(write_config(tmp_path, {"frobnicate": 1}))
    with pytest.raises(ConfigError, match="unknown config key: local.momentum"):
        load_config(write_config(tmp_path, {"local": {"momentum": 0.9}}))
    # a dotted key names a leaf only through its section
    for raw, key in (({"local.k": 2}, "local.k"), ({"model.kind": "mlp"}, "model.kind"),
                     ({"local": {"k.x": 2}}, "local.k.x")):
        with pytest.raises(ConfigError, match=f"unknown config key: {re.escape(key)} "):
            load_config(write_config(tmp_path, raw))


def test_scalar_type_checks(tmp_path):
    """Ints promote to floats, but strings and bools in numeric slots fail."""
    cfg = load_config(write_config(tmp_path, {"participation": 1}))
    assert isinstance(cfg["participation"], float)
    with pytest.raises(ConfigError, match="rounds must be an integer"):
        load_config(write_config(tmp_path, {"rounds": 2.5}))
    with pytest.raises(ConfigError, match="must be a number"):
        load_config(write_config(tmp_path, {"local": {"lr0": "fast"}}))
    with pytest.raises(ConfigError, match="must be true or false"):
        load_config(write_config(tmp_path, {"data": {"normalize": 1}}))


def test_set_overrides_parse_json_with_string_fallback(tmp_path):
    cfg = load_config(write_config(tmp_path))
    apply_overrides(cfg, ["seed=7", "algorithm=fedprox", "server.lam=0.5",
                          "model.hidden_dims=[8,4]"])
    assert cfg["seed"] == 7
    assert cfg["algorithm"] == "fedprox"
    assert cfg["server"]["lam"] == 0.5
    assert cfg["model"]["hidden_dims"] == [8, 4]
    for bad in ["nosuch=1", "local.nosuch=1", "local=3", "justakey"]:
        with pytest.raises(ConfigError):
            apply_overrides(cfg, [bad])


def test_config_hash_is_canonical(tmp_path):
    a = resolve_config(write_config(tmp_path, SMALL, "a.json"), [], None)
    # same content, different key order in the file
    flipped = dict(reversed(list(SMALL.items())))
    b = resolve_config(write_config(tmp_path, flipped, "b.json"), [], None)
    assert config_hash(a) == config_hash(b)
    c = resolve_config(write_config(tmp_path, SMALL, "c.json"), ["seed=99"], None)
    assert config_hash(c) != config_hash(a)


# config_hash of an empty config file per rule, as computed before the
# "local" and "server" defaults were derived from LocalConfig and
# ServerHyper; a moved default or a changed canonical form changes them
PINNED_HASHES = {
    "fedavg": "89de2508b6745578d19a14be812c54ef76dfc3da53eb324b8c563ec143cc4245",
    "fedprox": "fc63d1860e41872360daa8b8f86164581edfd8ea68b15b453a1220bfb05802db",
    "fedavgm": "d79189e1b40f8646c9500d10a17a27c3a8ecadeef8b98f59b2e965de005268d1",
    "fedadam": "92b501639b5cf836a31ebdb5925b7a784ffd638aba891967dd47596c67f53b16",
    "feddyn": "bfde08440385b80c1eb7a651abd11b5f691a537436e231ff76d7ba8ab5bff028",
    "fedcm": "e585f383d604c7d0000d0b85bdf0cbf75858f40831aea2391f9af3b6cb894a28",
    "fedagm": "e75b97d0d7184ab4de56709b7a01c2bfb34aa62fa4b20fc9f1c7ba5a342952ca",
}


@pytest.mark.parametrize("rule", sorted(PINNED_HASHES))
def test_default_config_hash_is_pinned(tmp_path, rule):
    cfg = resolve_config(write_config(tmp_path, {}), [f"algorithm={rule}"], None)
    assert config_hash(cfg) == PINNED_HASHES[rule]


def test_infinite_clip_norm_config_hash_is_pinned(tmp_path):
    # the hash keeps hashing Infinity as the canonical JSON's bare literal
    cfg = resolve_config(write_config(tmp_path, {}), ["local.clip_norm=Infinity"], None)
    assert config_hash(cfg) == \
        "9f238050b94be3662c3b6b5353464d778ff74fccbecd49d86d7eb1120b0b6240"


def test_global_lr_default_depends_on_algorithm(tmp_path):
    path = write_config(tmp_path, {"algorithm": "fedadam"})
    assert resolve_config(path, [], None)["server"]["global_lr"] == 0.01
    assert resolve_config(path, ["algorithm=fedavgm"], None)["server"]["global_lr"] == 1.0
    assert resolve_config(path, ["server.global_lr=0.5"], None)["server"]["global_lr"] == 0.5
    with pytest.raises(ConfigError, match="^algorithm must be one of fedavg, .*, got 'sgd'$"):
        resolve_config(path, ["algorithm=sgd"], None)


# ---------------------------------------------------------------- schema


def leaf_keys(node=DEFAULT_CONFIG, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_default_leaf_has_exactly_one_schema_entry():
    keys = list(leaf_keys())
    assert sorted(keys) == sorted(LEAVES) and len(set(keys)) == len(keys)
    # the dataclasses check their fields as the leaves of their section
    for section, cls in (("local", LocalConfig), ("server", ServerHyper), ("model", ModelSpec)):
        assert sorted(f"{section}.{f.name}" for f in fields(cls)) == \
            sorted(k for k in LEAVES if k.startswith(section + "."))
    # and the library defaults of local and server are the config's, but
    # for server.global_lr, which the config leaves null for the rule's own
    for section, obj in (("local", LocalConfig()), ("server", ServerHyper())):
        for f in fields(obj):
            if f"{section}.{f.name}" != "server.global_lr":
                assert getattr(obj, f.name) == LEAVES[f"{section}.{f.name}"].default, f.name


def test_readme_config_reference_lists_each_key_once():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    reference = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", reference, re.MULTILINE)
    assert sorted(keys) == sorted(LEAVES)


# a run that trains nothing, on synthetic data split iid, so that the
# bounds of the keys only csv data or a dirichlet partition reads are
# probed where nothing reads them
EDGE_BASE = {"rounds": 0, "clients": 4, "model": {"input_dim": 3, "output_dim": 2},
             "data": {"classes": 2, "train_per_class": 6, "test_per_class": 3,
                      "input_dim": 3}}


@pytest.mark.parametrize("key,value,inside", [
    (key, value, inside) for key in BOUNDED
    for inside, values in zip((True, False), edges(key)) for value in values])
def test_each_bound_admits_a_value_just_inside_and_rejects_one_just_outside(
        tmp_path, capsys, key, value, inside):
    out = tmp_path / "out"
    code = main(["run", "--config", write_config(tmp_path, EDGE_BASE),
                 "--set", f"{key}={json.dumps(value)}", "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    name, item = (f"{key}[0]", value[0]) if isinstance(value, list) else (key, value)
    if inside:
        assert code in (0, 2, 3) and not any(line.startswith(f"error: {name} must ")
                                             for line in err), err
    else:
        assert code == 2 and len(err) == 1, err
        assert err[0].startswith(f"error: {name} must ") and err[0].endswith(f", got {item!r}")
        assert not out.exists()


def test_a_bound_holds_whatever_the_kind(tmp_path, capsys):
    # only csv data reads data.test_fraction, but synthetic data checks it too
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--set", "data.test_fraction=2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: data.test_fraction must lie in (0, 1), got 2.0"]
    assert not out.exists()


# ------------------------------------------------------------------- run


def test_run_writes_all_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path),
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == SMALL["rounds"]
    assert [int(r[0]) for r in rows] == list(range(1, SMALL["rounds"] + 1))

    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary["algorithm"] == "fedagm"
    assert summary["evaluated_rounds"] == SMALL["rounds"]
    assert manifest["status"] == "ok"
    assert manifest["config_hash"] == summary["config_hash"]
    assert manifest["config"]["rounds"] == SMALL["rounds"]
    assert manifest["tool_version"]
    assert set(manifest["output_paths"]) == {"rounds.csv", "summary.json",
                                             "manifest.json"}


@pytest.mark.parametrize("eval_every", [1, 3])
def test_summary_targets_recompute_from_csv(tmp_path, eval_every):
    """rounds_to_target in summary.json must agree with a scan of the
    ema_accuracy column in rounds.csv, also when the logged rounds are not
    1, 2, 3, ... (at eval_every 3, 0.5 is first reached at round 3)."""
    out = tmp_path / "out"
    main(["run", "--config", write_config(tmp_path, {**SMALL, "eval_every": eval_every}),
          "--out", str(out)])
    rows = read_rows(out)
    summary = json.loads((out / "summary.json").read_text())
    for key, reported in summary["rounds_to_target"].items():
        target = float(key)
        hit = next((int(r[0]) for r in rows if float(r[3]) >= target), None)
        if hit is None:
            assert reported == f"{SMALL['rounds']}+"
        else:
            assert reported == hit


def test_rerun_is_byte_identical_and_seed_flag_changes_it(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "rounds.csv").read_bytes() == (outs[1] / "rounds.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    out3 = tmp_path / "o3"
    assert main(["run", "--config", cfg, "--seed", "99", "--out", str(out3)]) == 0
    assert (outs[0] / "rounds.csv").read_bytes() != (out3 / "rounds.csv").read_bytes()


def test_eval_every_controls_row_count(tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", write_config(tmp_path),
          "--set", "eval_every=4", "--out", str(out)])
    rows = read_rows(out)
    assert [int(r[0]) for r in rows] == [4, 8]


def test_the_rounds_after_the_last_evaluated_one_are_reported(tmp_path):
    # 7 rounds at eval_every 3: round 7 gets a row, its bytes reach the
    # totals, and summary.json's final is the model that trained 7 rounds
    payload = {"rounds": 7, "eval_every": 3, "clients": 4, "local": {"k": 2}}
    cfg = write_config(tmp_path, payload)
    sparse, dense = tmp_path / "sparse", tmp_path / "dense"
    assert main(["run", "--config", cfg, "--out", str(sparse)]) == 0
    assert main(["run", "--config", cfg, "--set", "eval_every=1", "--out", str(dense)]) == 0
    assert [int(r[0]) for r in read_rows(sparse)] == [3, 6, 7]
    # the same model as the dense run's round 7; only the smoothing, which
    # sees fewer evaluations, differs
    assert read_rows(sparse)[-1][:3] == read_rows(dense)[-1][:3]
    summary, every = (json.loads((d / "summary.json").read_text()) for d in (sparse, dense))
    assert summary["totals"] == every["totals"]
    for key in ("round", "train_loss", "test_accuracy"):
        assert summary["final"][key] == every["final"][key]

    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--config", cfg, "--out", str(out)]) == 0
    header, row, _ = (out / "comparison.csv").read_text().splitlines()
    assert header.split(",")[3] == "ema_acc_round_7"
    assert row.split(",")[3] == read_rows(sparse)[-1][3]


def test_regression_model_logs_nan_accuracy(tmp_path):
    payload = dict(SMALL, model={"kind": "linear_regression", "input_dim": 5,
                                 "output_dim": 1},
                   targets=[])
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    for row in read_rows(out):
        assert math.isnan(float(row[2])) and math.isnan(float(row[3]))
        assert math.isfinite(float(row[1]))
    # summary.json is strict JSON: a NaN accuracy is written as null
    final = strict_json((out / "summary.json").read_text())["final"]
    assert final["test_accuracy"] is None and final["ema_accuracy"] is None
    assert math.isfinite(final["train_loss"])


def test_parse_error_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"algorithm": }')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "broken.json:1:15" in err


def test_config_that_is_not_utf8_exits_2_naming_path_and_byte(tmp_path, capsys):
    path = tmp_path / "latin.json"
    raw = b'{"algorithm": "fed\xe1gm"}'
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "latin.json" in err[0] and f"byte {raw.index(0xe1)} " in err[0]
    assert not out.exists()


def test_missing_config_exits_2_naming_path(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path / "x")]) == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("make,error", [
    (lambda path: path.mkdir(),
     "cannot read config file: [Errno 21] Is a directory: 'cfg.json' [cfg.json]"),
    (lambda path: path.write_text(json.dumps([SMALL])),
     "top-level config must be a JSON object [cfg.json]"),
], ids=["directory", "array"])
def test_config_that_is_no_json_object_file_exits_2_naming_path(tmp_path, capsys, monkeypatch,
                                                                make, error):
    monkeypatch.chdir(tmp_path)
    make(tmp_path / "cfg.json")
    assert main(["run", "--config", "cfg.json", "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / "x").exists()


def test_numeric_abort_exits_3_and_keeps_partial_csv(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", write_config(tmp_path),
                 "--set", "local.lr0=1e200", "--set", "local.clip_norm=1e308",
                 "--out", str(out)])
    assert code == 3
    assert "round=" in capsys.readouterr().err
    # the file exists with its header; rounds finished before the blow-up stay
    assert (out / "rounds.csv").read_text().startswith("round,train_loss")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numeric_abort"
    assert "round=" in manifest["error"]


def test_numeric_abort_stderr_is_one_error_line(tmp_path, capsys):
    assert main(["run", "--config", write_config(tmp_path),
                 "--set", "local.lr0=1e200", "--set", "local.clip_norm=1e308",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_more_clients_than_examples_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, dict(SMALL, clients=100000)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "clients is 100000" in err and "60 examples" in err
    assert not out.exists()


def test_model_data_mismatch_exits_2(tmp_path, capsys):
    payload = dict(SMALL, model={"input_dim": 7, "output_dim": 3})
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "x")]) == 2
    assert "input_dim" in capsys.readouterr().err


def test_csv_dataset_roundtrip(tmp_path):
    rows = ["a,b,species"]
    for i in range(12):
        cls = ("x", "y", "z")[i % 3]
        rows.append(f"{i * 0.25},{3.0 - i * 0.5},{cls}")
    data_file = tmp_path / "tiny.csv"
    data_file.write_text("\n".join(rows) + "\n")
    payload = {
        "algorithm": "fedavg",
        "rounds": 3,
        "clients": 2,
        "model": {"input_dim": 2, "output_dim": 3},
        "data": {"kind": "csv", "path": str(data_file), "label_column": "species",
                 "test_fraction": 0.25},
        "local": {"k": 4},
    }
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    meta = json.loads((out / "manifest.json").read_text())["data_meta"]
    assert meta["kind"] == "csv"
    assert meta["label_names"] == ["x", "y", "z"]
    assert meta["normalized"] is True
    assert meta["train_examples"] == 9 and meta["test_examples"] == 3


@pytest.mark.parametrize("prefix", [b"", b"a,b,species\n" + b"1,2,x\n" * 2000],
                         ids=["first_byte", "past_the_first_read"])
def test_csv_that_is_not_utf8_exits_2_naming_path_and_byte(tmp_path, capsys, prefix):
    data_file = tmp_path / "tiny.csv"
    data_file.write_bytes(prefix + b"\xff\xfe{")
    payload = {"rounds": 2, "clients": 2, "model": {"input_dim": 2, "output_dim": 3},
               "data": {"kind": "csv", "path": str(data_file), "label_column": "species"}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "tiny.csv" in err[0] and f"byte {len(prefix)} " in err[0]
    assert not out.exists()


@pytest.mark.parametrize("normalize", [True, False])
def test_non_finite_csv_cell_exits_2_naming_the_cell(tmp_path, capsys, normalize):
    data_file = tmp_path / "tiny.csv"
    rows = ["a,b,species"] + [f"{i},{i + 1},{'xyz'[i % 3]}" for i in range(11)]
    rows.insert(5, "nan,1,x")
    data_file.write_text("\n".join(rows) + "\n")
    payload = {"rounds": 2, "clients": 2, "model": {"input_dim": 2, "output_dim": 3},
               "data": {"kind": "csv", "path": str(data_file), "label_column": "species",
                        "normalize": normalize}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "tiny.csv:6:1" in err[0] and "'nan'" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text,error", [
    ("a,b,species\n", "no data rows after the header [tiny.csv:1]"),
    # the blank line 3 is no row, but the bad value after it names line 4
    ("a,b,species\n1,2,x\n\n3,oops,y\n",
     "non-numeric feature value 'oops' in column 'b' [tiny.csv:4]"),
], ids=["header_only", "after_a_blank_line"])
def test_csv_without_data_or_with_a_bad_value_exits_2_naming_its_line(
        tmp_path, capsys, monkeypatch, text, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.csv").write_text(text)
    payload = {"rounds": 2, "clients": 2, "model": {"input_dim": 2, "output_dim": 3},
               "data": {"kind": "csv", "path": "tiny.csv", "label_column": "species"}}
    assert main(["run", "--config", write_config(tmp_path, payload), "--out", "x"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("override,key", [
    ("data.spread=-1", "data.spread"),
    ("data.classes=0", "data.classes"),
    ("partition.concentration=0", "partition.concentration"),
    ("partition.concentration=-0.5", "partition.concentration"),
    ("clients=0", "clients"),
    ("clients=-1", "clients"),
    ("model.kind=mlp", "model.hidden_dims"),
])
def test_bad_data_or_partition_value_exits_2_before_writing(tmp_path, capsys,
                                                            override, key):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--set", override,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


@pytest.mark.parametrize("overrides,key", [
    (['targets=["a"]'], "targets[0]"),
    (["model.kind=mlp", "model.hidden_dims=[1.5]"], "model.hidden_dims[0]"),
    (["model.kind=mlp", "model.hidden_dims=[true]"], "model.hidden_dims[0]"),
    (['local.batch_size="x"'], "local.batch_size"),
    (['server.global_lr="x"'], "server.global_lr"),
    (["data.spread=null"], "data.spread"),
    (["partition.kind=iid", "partition.concentration=null"], "partition.concentration"),
])
def test_wrong_type_exits_2_naming_the_key(tmp_path, capsys, overrides, key):
    out = tmp_path / "out"
    args = ["run", "--config", write_config(tmp_path), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be ")
    assert not out.exists()


FLOAT_HYPERPARAMETERS = (
    [f"local.{k}" for k in ("lr0", "lr_decay", "clip_norm", "alpha", "beta", "prox_mu",
                            "cm_alpha", "dyn_alpha")]
    + [f"server.{k}" for k in ("tau", "lam", "global_lr", "avgm_beta", "adam_tau")]
    + ["model.l2_weight_decay"])


@pytest.mark.parametrize("key,literal", [
    (key, literal) for key in FLOAT_HYPERPARAMETERS
    for literal in ("NaN", "Infinity", "-Infinity")
    if (key, literal) != ("local.clip_norm", "Infinity")])  # +inf: no clipping
def test_non_finite_hyperparameter_exits_2_naming_the_key(tmp_path, capsys, key, literal):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--set", "algorithm=fedadam",
                 "--set", f"{key}={literal}", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must ")
    assert err[0].endswith(f", got {float(literal)!r}")
    assert not out.exists()


def test_non_finite_literal_in_a_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"local": {"alpha": NaN}, "server": {"global_lr": Infinity}}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: local.alpha must be a finite number, got nan"]
    assert not out.exists()


@pytest.mark.parametrize("how", ["set", "file"])
def test_integer_of_too_many_digits_exits_2(tmp_path, capsys, how):
    digits = "9" * 5000  # more digits than Python converts from text
    if how == "file":
        path = tmp_path / "long.json"
        path.write_text('{"rounds": ' + digits + "}")
        args, named = ["run", "--config", str(path)], "long.json"
    else:
        args = ["run", "--config", write_config(tmp_path), "--set", f"rounds={digits}"]
        named = "error: rounds must be an integer"
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
    assert not out.exists()


def float_keys(node=DEFAULT_CONFIG, prefix=""):
    """Every float-valued key of the config, the None-default ones included."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from float_keys(value, f"{prefix}{key}.")
        elif isinstance(value, float) or f"{prefix}{key}" == "server.global_lr":
            yield f"{prefix}{key}"


def strict_json(text):
    """json.loads that refuses the NaN and Infinity literals strict JSON lacks."""
    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("overrides,named", [
    (["partition.kind=iid", "partition.concentration=NaN"], "partition: concentration"),
    (["data.test_fraction=Infinity"], "data: test_fraction"),
    (["participation=-Infinity"], "participation"),
    (["targets=[0.5, NaN]"], "targets[1]"),
    (["local.clip_norm=-Infinity"], "local: clip_norm"),
] + [([f"{key}=NaN"], ": ".join(key.split("."))) for key in float_keys()] + [
    # an integer beyond the float range is infinite, as 1e999 is
    ([f"data.spread={10 ** 400}"], "data: spread"),
    ([f"model.l2_weight_decay=-{10 ** 400}"], "model: l2_weight_decay"),
])
def test_non_finite_value_in_any_float_key_exits_2(tmp_path, capsys, overrides, named):
    # a key the run never reads (the concentration of an iid partition, the
    # test fraction of synthetic data) is rejected too, so no manifest can
    # hold a bare NaN or Infinity
    out = tmp_path / "out"
    args = ["run", "--config", write_config(tmp_path), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    key = named.replace(": ", ".")
    assert len(err) == 1 and err[0].startswith(f"error: {key} must ")
    assert err[0].endswith((", got nan", ", got inf", ", got -inf"))
    assert not out.exists()


def test_manifest_of_a_finite_config_is_strict_json(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--set", "partition.kind=iid",
                 "--out", str(out)]) == 0
    manifest = strict_json((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["config"]["partition"]["concentration"] == 0.3
    strict_json((out / "summary.json").read_text())


def test_infinite_clip_norm_is_accepted(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path),
                 "--set", "local.clip_norm=Infinity", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["local"]["clip_norm"] \
        == math.inf
    # an integer beyond the float range reads as the same infinity
    cfg = resolve_config(write_config(tmp_path, {}), [f"local.clip_norm={10 ** 400}"], None)
    assert cfg["local"]["clip_norm"] == math.inf
    assert config_hash(cfg) == \
        "9f238050b94be3662c3b6b5353464d778ff74fccbecd49d86d7eb1120b0b6240"


def test_manifest_of_an_infinite_clip_norm_is_strict_json(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path),
                 "--set", "local.clip_norm=Infinity", "--out", str(out)]) == 0
    text = (out / "manifest.json").read_text()
    assert '"clip_norm": 1e999,' in text
    manifest = strict_json(text)
    assert manifest["config"]["local"]["clip_norm"] == math.inf
    assert manifest["config_hash"] == config_hash(manifest["config"])


def test_a_string_that_reads_like_infinity_stays_a_string(tmp_path):
    # a label that spells a bare token, or NUL and +Infinity, must read
    # back as the string it was
    names = ["a", "\0+Infinity", "-Infinity", "Infinity"]
    data = tmp_path / "d.csv"
    data.write_text("\n".join(["f0,label"] + [f"{i},{names[i % 4]}" for i in range(40)])
                    + "\n", encoding="utf-8")
    cfg = {"rounds": 1, "clients": 2, "local": {"k": 1},
           "model": {"input_dim": 1, "output_dim": 4},
           "data": {"kind": "csv", "path": str(data), "label_column": "label"}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    manifest = strict_json((out / "manifest.json").read_text())
    assert manifest["data_meta"]["label_names"] == names


def test_negative_infinity_has_no_strict_json_form(tmp_path):
    with pytest.raises(ValueError):
        cli._write(tmp_path / "x.json", {"x": -math.inf})
    assert not list(tmp_path.iterdir())


def test_manifests_record_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", write_config(tmp_path),
                 "--config", write_config(tmp_path, name="b.json"), "--out", str(out)]) == 0
    for path in (out / "manifest.json", out / "cfg" / "manifest.json"):
        env = json.loads(path.read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_version", "cpu_count",
                            *cli.BLAS_THREAD_VARS}
        assert env["OPENBLAS_NUM_THREADS"] == "3" and env["MKL_NUM_THREADS"] is None
        assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert env["numpy"] == np.__version__
        assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
    run_manifest = json.loads((out / "cfg" / "manifest.json").read_text())
    assert run_manifest["config_hash"] == config_hash(run_manifest["config"])
    # a numpy whose show_config takes no mode reports no BLAS
    monkeypatch.setattr(cli.np, "show_config", lambda: None)
    assert cli.environment()["blas"] is None and cli.environment()["blas_version"] is None


def test_model_over_the_parameter_bound_exits_2_before_writing(tmp_path, capsys):
    # 3.1e9 parameters: refused before any array of that size is allocated
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path), "--set", "model.kind=mlp",
                 "--set", "model.hidden_dims=[100000000]", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model: ")
    assert not out.exists()


@pytest.mark.parametrize("overrides, key", [
    (["data.input_dim=1000000000000000", "model.input_dim=1000000000000000"],
     "data.input_dim"),
    (["data.train_per_class=1000000000000"], "data.train_per_class"),
], ids=["input_dim", "train_per_class"])
def test_synthetic_data_over_the_bound_exits_2_before_writing(tmp_path, capsys,
                                                              overrides, key):
    # refused before any of the data is drawn; never raise these values
    out = tmp_path / "out"
    args = ["run", "--config", write_config(tmp_path), "--out", str(out)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: data: ") and key in err[0]
    assert not out.exists()


@pytest.mark.parametrize("how", ["set", "flag", "file"])
def test_negative_seed_exits_2_naming_the_key(tmp_path, capsys, how):
    out = tmp_path / "out"
    path = write_config(tmp_path, {**SMALL, "seed": -1} if how == "file" else SMALL)
    args = ["run", "--config", path, "--out", str(out)]
    args += {"set": ["--set", "seed=-1"], "flag": ["--seed", "-1"], "file": []}[how]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed must be a nonnegative integer")
    assert not out.exists()


# one huge step leaves a regression model whose squared norm is still
# finite but whose residuals overflow when squared
EVAL_OVERFLOW = {"rounds": 3, "clients": 4,
                 "model": {"kind": "linear_regression", "input_dim": 4, "output_dim": 1,
                           "l2_weight_decay": 0.0},
                 "data": {"classes": 3, "train_per_class": 20, "test_per_class": 5,
                          "input_dim": 4, "spread": 5.0},
                 "local": {"k": 1, "lr0": 3e153, "clip_norm": 1e300}}


@pytest.mark.parametrize("seed", [0, 2])
def test_evaluation_overflow_exits_3_naming_its_round(tmp_path, capsys, seed):
    # at seed 2 the squares are finite and their per-client sums overflow
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, EVAL_OVERFLOW), "--out", str(out),
                 "--seed", str(seed)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: loss is not finite (round=0)"]


def accuracy_overflow(tmp_path):
    """Two classes around -3 and +3, plus one row whose logits overflow.
    When the split puts that row in the test set, the run completes with
    an overflowing accuracy pass; in the training set, it ends in exit 3."""
    lines = ["a,b,label"]
    for i in range(40):
        s = 3.0 if i % 2 else -3.0
        lines.append(f"{s + i % 5 / 10},{s - i % 7 / 10},{i % 2}")
    data_file = tmp_path / "accuracy_overflow.csv"
    data_file.write_text("\n".join([*lines, "1.5e308,1.5e308,0", ""]))
    return {"algorithm": "fedavg", "rounds": 30, "clients": 4,
            "model": {"kind": "softmax_classifier", "input_dim": 2, "output_dim": 2},
            "data": {"kind": "csv", "path": str(data_file), "label_column": "label",
                     "normalize": False, "test_fraction": 0.3},
            "local": {"lr0": 1.0}}


@pytest.mark.parametrize("payload, overrides", [
    (EVAL_OVERFLOW, []),
    (SMALL, ["local.lr0=1e300"]),
    (EVAL_OVERFLOW, ["local.lr0=1e300"]),
    (SMALL, ["algorithm=fedadam", "server.global_lr=1e300"]),
    (SMALL, ["algorithm=fedavgm", "server.global_lr=1e308"]),
    (accuracy_overflow, []),
], ids=["evaluation_overflow", "softmax_huge_lr0", "regression_huge_lr0",
        "fedadam_server_overflow", "fedavgm_server_overflow", "accuracy_overflow"])
def test_numeric_edges_end_in_one_line_at_every_seed(tmp_path, capsys, payload, overrides):
    # seeds 0-39 of each numeric-edge config: each run completes or ends in
    # exit 3 with its one error line, and no numpy warning reaches stderr
    # (under this suite's filter a warning would end the run in exit 1)
    path = write_config(tmp_path, payload(tmp_path) if callable(payload) else payload)
    argv = ["run", "--config", path]
    for item in overrides:
        argv += ["--set", item]
    for seed in range(40):
        status = main([*argv, "--seed", str(seed), "--out", str(tmp_path / f"s{seed}")])
        err = capsys.readouterr().err.splitlines()
        assert status in (0, 3) and len(err) <= 1, (seed, status, err)


@pytest.mark.parametrize("overrides", [
    ["algorithm=fedadam", "server.global_lr=1e300"],
    ["algorithm=fedavgm", "server.global_lr=1e308"],
    ["algorithm=fedadam", "server.global_lr=1e300", "eval_every=2"],
])
def test_server_model_overflow_exits_3_naming_its_round(tmp_path, capsys, overrides):
    # the first server step leaves a model whose squared norm overflows;
    # the run ends there, not in the next evaluation or client step
    out = tmp_path / "out"
    argv = ["run", "--config", write_config(tmp_path), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: server model is not finite (round=0)"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "numeric_abort"
    assert read_rows(out) == []


def test_csv_with_no_test_examples_exits_2_before_writing(tmp_path, capsys):
    # every label distinct: a 0.2 share of a one-example class rounds to 0
    data_file = tmp_path / "distinct.csv"
    data_file.write_text("a,label\n" + "".join(f"{i},c{i}\n" for i in range(6)))
    payload = {"clients": 2, "model": {"input_dim": 1, "output_dim": 6},
               "data": {"kind": "csv", "path": str(data_file), "label_column": "label"}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "distinct.csv" in err[0] and "empty" in err[0]
    assert not out.exists()


def test_csv_normalize_overflow_exits_2_naming_the_column(tmp_path, capsys):
    data_file = tmp_path / "huge.csv"
    rows = ["a,b,species"] + [f"{i},{(-1) ** i * 1e308},{'xyz'[i % 3]}"
                              for i in range(20)]
    data_file.write_text("\n".join(rows) + "\n")
    payload = {"clients": 2, "model": {"input_dim": 2, "output_dim": 3},
               "data": {"kind": "csv", "path": str(data_file), "label_column": "species"}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "huge.csv" in err[0] and "'b'" in err[0]
    assert "RuntimeWarning" not in "\n".join(err)
    assert not out.exists()


# --------------------------------------------------------------- compare


def test_compare_identical_configs_produce_identical_rows(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--config", cfg,
                 "--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("label,algorithm,ema_acc_round_4,ema_acc_round_8")
    first = lines[1].split(",", 1)[1]
    second = lines[2].split(",", 1)[1]
    assert first == second
    assert (out / "cfg_curve.csv").exists()
    assert (out / "cfg#2_curve.csv").exists()
    assert (out / "cfg" / "rounds.csv").exists()


def test_compare_labels_never_collide(tmp_path):
    # the second a.json takes a#2, so a#2.json takes the next free a#2#2
    (tmp_path / "d").mkdir()
    paths = [write_config(tmp_path, TINY, name) for name in ("a.json", "d/a.json", "a#2.json")]
    out = tmp_path / "cmp"
    assert main(["compare", *(a for p in paths for a in ("--config", p)),
                 "--out", str(out)]) == 0
    labels = ["a", "a#2", "a#2#2"]
    manifest = strict_json((out / "manifest.json").read_text())
    assert [run["label"] for run in manifest["runs"]] == labels
    rows = (out / "comparison.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == labels
    for label in labels:
        assert (out / f"{label}_curve.csv").is_file()
        assert strict_json((out / label / "manifest.json").read_text())["status"] == "ok"


def test_compare_renders_unreached_target_with_plus(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "cmp"
    main(["compare", "--config", cfg, "--config", cfg,
          "--set", "algorithm=fedavg", "--out", str(out)])
    header, row, _ = (out / "comparison.csv").read_text().splitlines()
    assert header.endswith("rounds_to_0.5,rounds_to_0.99")
    assert row.endswith(f",{SMALL['rounds']}+")


def test_compare_rejects_different_data_specs(tmp_path, capsys):
    a = write_config(tmp_path, SMALL, "a.json")
    b = write_config(tmp_path, dict(SMALL, seed=99), "b.json")
    assert main(["compare", "--config", a, "--config", b,
                 "--out", str(tmp_path / "x")]) == 2
    assert "b.json" in capsys.readouterr().err

    # differing only in algorithm/hyperparameters is fine
    c = write_config(tmp_path, dict(SMALL, algorithm="fedavg",
                                    local={"k": 8, "prox_mu": 0.1}), "c.json")
    assert main(["compare", "--config", a, "--config", c,
                 "--out", str(tmp_path / "ok")]) == 0


MLP_SMALL = dict(SMALL, model={"kind": "mlp", "input_dim": 5, "output_dim": 3,
                               "hidden_dims": [4]})


@pytest.mark.parametrize("first, second", [
    (SMALL, dict(SMALL, clients=5)),
    (SMALL, dict(SMALL, partition={"kind": "iid"})),
    (SMALL, dict(SMALL, partition={"kind": "dirichlet", "concentration": 0.5})),
    (MLP_SMALL, dict(MLP_SMALL, model=dict(MLP_SMALL["model"], hidden_dims=[5]))),
    (SMALL, dict(SMALL, model=dict(SMALL["model"], l2_weight_decay=0.01))),
    (SMALL, dict(SMALL, data=dict(SMALL["data"], spread=2.0))),
    (SMALL, dict(SMALL, data=dict(SMALL["data"], train_per_class=25))),
], ids=["clients", "partition.kind", "partition.concentration", "model.hidden_dims",
        "model.l2_weight_decay", "data.spread", "data.train_per_class"])
def test_compare_rejects_configs_that_need_another_task(tmp_path, capsys, first, second):
    # a compare prepares one task, the partition of one data set, for all
    # its configs; a config that changes what the task is built from is
    # refused before anything is built
    a = write_config(tmp_path, first, "a.json")
    b = write_config(tmp_path, second, "b.json")
    out = tmp_path / "x"
    assert main(["compare", "--config", a, "--config", b, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "b.json" in err[0]
    assert not out.exists()


def test_compare_partitions_and_groups_once(tmp_path, monkeypatch):
    # three rules share one task: one partition, one set of shard groups
    calls = []

    def counted(name):
        fn = getattr(engine, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("partition_dirichlet", "shard_groups"):
        monkeypatch.setattr(engine, name, counted(name))
    paths = [write_config(tmp_path, dict(SMALL, algorithm=rule), f"{rule}.json")
             for rule in ("fedavg", "fedcm", "fedagm")]
    argv = ["compare", "--out", str(tmp_path / "cmp")]
    for path in paths:
        argv += ["--config", path]
    assert main(argv) == 0
    assert sorted(calls) == ["partition_dirichlet", "shard_groups"]


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_ungrouped_training_features_are_released_before_round_0(tmp_path, monkeypatch,
                                                                 verb):
    # once the task holds the training features as its shard groups, no
    # reference to the ungrouped copy is left when the first client steps
    build_dataset, local_update = cli.build_dataset, engine.local_update
    refs, alive = [], []

    def spy_build_dataset(cfg):
        train, test, meta = build_dataset(cfg)
        refs.append(weakref.ref(train.features))
        return train, test, meta

    def spy_local_update(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return local_update(*args, **kwargs)

    monkeypatch.setattr(cli, "build_dataset", spy_build_dataset)
    monkeypatch.setattr(engine, "local_update", spy_local_update)
    configs = ["--config", write_config(tmp_path, TINY, "a.json")]
    if verb == "compare":
        configs += ["--config", write_config(tmp_path, dict(TINY, algorithm="fedavg"),
                                             "b.json")]
    assert main([verb, *configs, "--out", str(tmp_path / "out")]) == 0
    assert len(refs) == 1 and alive and alive[0] == [False]


@pytest.mark.parametrize("second", [
    dict(SMALL, clients=100000),
    dict(SMALL, local={"k": 0}),
], ids=["too_many_clients", "bad_local_k"])
def test_rejected_compare_leaves_no_directory(tmp_path, capsys, second):
    a = write_config(tmp_path, dict(SMALL, clients=second["clients"]), "a.json")
    b = write_config(tmp_path, second, "b.json")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config", b, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


TINY = {
    "algorithm": "fedagm", "rounds": 2, "clients": 4, "seed": 1,
    "model": {"input_dim": 3, "output_dim": 2},
    "data": {"classes": 2, "train_per_class": 6, "test_per_class": 3, "input_dim": 3},
    "partition": {"kind": "dirichlet", "concentration": 0.5},
    "local": {"k": 2},
}


def test_compare_writes_a_top_level_manifest(tmp_path):
    a = write_config(tmp_path, TINY, "a.json")
    b = write_config(tmp_path, dict(TINY, algorithm="fedavg"), "b.json")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config", b, "--out", str(out)]) == 0
    manifest = strict_json((out / "manifest.json").read_text())
    assert manifest["status"] == "ok" and "error" not in manifest
    assert manifest["runs"] == [
        {"label": label, "config_hash": strict_json(
            (out / label / "manifest.json").read_text())["config_hash"]}
        for label in ("a", "b")]
    assert (out / "comparison.csv").exists()


def test_aborted_compare_leaves_a_manifest_naming_the_failed_run(tmp_path, capsys):
    # the second run diverges: compare exits 3 after the first run's files,
    # with a top-level manifest but no comparison.csv
    a = write_config(tmp_path, TINY, "a.json")
    c = write_config(tmp_path, dict(TINY, local={"k": 2, "lr0": 1e300}), "c.json")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config", c, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "round=" in err[0]
    assert sorted(p.name for p in out.iterdir()) == ["a", "a_curve.csv", "c", "manifest.json"]
    manifest = strict_json((out / "manifest.json").read_text())
    assert manifest["status"] == "numeric_abort"
    assert manifest["failed_label"] == "c"
    assert manifest["error"] == err[0][len("error: "):]
    assert [run["label"] for run in manifest["runs"]] == ["a", "c"]
    assert strict_json((out / "c" / "manifest.json").read_text())["status"] == "numeric_abort"


@pytest.mark.parametrize("exc, line", [
    (MemoryError(), "MemoryError"),
    (RuntimeError("boom\n  at step 2"), "RuntimeError: boom at step 2"),
], ids=["MemoryError", "RuntimeError"])
@pytest.mark.parametrize("verb", ["run", "compare"])
def test_unexpected_exception_exits_1_with_one_line_and_a_crashed_manifest(
        tmp_path, capsys, monkeypatch, verb, exc, line):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "run", fail)
    out = tmp_path / "out"
    configs = ["--config", write_config(tmp_path, TINY, "a.json")] * (2 if verb == "compare" else 1)
    assert main([verb, *configs, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    for directory in [out] + ([out / "a"] if verb == "compare" else []):
        manifest = strict_json((directory / "manifest.json").read_text())
        assert manifest["status"] == "crashed" and manifest["error"] == line
        assert "finished_at" in manifest
    if verb == "compare":
        assert strict_json((out / "manifest.json").read_text())["failed_label"] == "a"


@pytest.mark.parametrize("exc, code, status, text", [
    (NumericError("loss is not finite", round=1), 3, "numeric_abort",
     "loss is not finite (round=1)"),
    (OutputError("cannot write x.csv: No space left on device"), 2, "io_error",
     "cannot write x.csv: No space left on device"),
    (ConfigError("checkpoint is damaged", path="ckpt.npz"), 2, "config_error",
     "checkpoint is damaged [ckpt.npz]"),
    (KeyboardInterrupt(), 130, "interrupted", None),
    (RuntimeError("boom"), 1, "crashed", "RuntimeError: boom"),
    (StructuralError("shapes differ"), 1, "crashed", "StructuralError: shapes differ"),
], ids=["NumericError", "OutputError", "ConfigError", "KeyboardInterrupt",
        "RuntimeError", "StructuralError"])
@pytest.mark.parametrize("verb", ["run", "compare"])
def test_each_ending_gives_one_exit_code_one_line_and_one_manifest_status(
        tmp_path, capsys, monkeypatch, verb, exc, code, status, text):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "run", fail)
    out = tmp_path / "out"
    configs = ["--config", write_config(tmp_path, TINY, "a.json")] * (2 if verb == "compare" else 1)
    assert main([verb, *configs, "--out", str(out)]) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {text or status}"]
    for directory in [out] + ([out / "a"] if verb == "compare" else []):
        manifest = strict_json((directory / "manifest.json").read_text())
        assert manifest["status"] == status and manifest.get("error") == text
        assert "finished_at" in manifest


def test_system_exit_passes_through_and_leaves_the_manifest_running(tmp_path, monkeypatch):
    def leave(*args, **kwargs):
        raise SystemExit(5)
    monkeypatch.setattr(cli, "run", leave)
    out = tmp_path / "out"
    with pytest.raises(SystemExit):
        main(["run", "--config", write_config(tmp_path, TINY), "--out", str(out)])
    assert strict_json((out / "manifest.json").read_text())["status"] == "running"


def test_rerun_into_a_finished_run_deletes_its_outputs_first(tmp_path, capsys):
    # the rerun aborts, so a summary.json left from the first run would
    # stand beside a manifest of another config
    cfg = write_config(tmp_path, {"rounds": 2, "clients": 4, "local": {"k": 2}})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "summary.json").exists()
    assert main(["run", "--config", cfg, "--set", "local.lr0=1e300", "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "rounds.csv"]
    assert strict_json((out / "manifest.json").read_text())["status"] == "numeric_abort"


def test_compare_rerun_deletes_the_curve_of_a_dropped_label(tmp_path):
    a, b, c = (write_config(tmp_path, TINY, f"{label}.json") for label in "abc")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config", b, "--out", str(out)]) == 0
    assert main(["compare", "--config", a, "--config", c, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "a", "a_curve.csv", "b", "c", "c_curve.csv", "comparison.csv", "manifest.json"]
    assert strict_json((out / "manifest.json").read_text())["output_paths"] == [
        "a_curve.csv", "c_curve.csv", "comparison.csv", "manifest.json"]
    # a directory is never deleted: b/ keeps the files of its own run
    assert sorted(p.name for p in (out / "b").iterdir()) == [
        "manifest.json", "rounds.csv", "summary.json"]


@pytest.mark.parametrize("listed", [
    ["../victim"],
    ["../victim", "../rounds.csv", "sub/rounds.csv", "sub\\rounds.csv", "..", ".",
     "notes.txt", "old_curve.csv", "manifest.json", 7, None, ["rounds.csv"]],
], ids=["parent", "crafted"])
def test_an_old_manifest_deletes_nothing_but_bare_output_files(tmp_path, listed):
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "old_curve.csv").mkdir()  # a directory
    kept = [tmp_path / "victim", tmp_path / "rounds.csv", out / "sub" / "rounds.csv",
            out / "sub\\rounds.csv", out / "notes.txt"]
    for path in kept:
        path.write_text("keep\n")
    (out / "manifest.json").write_text(json.dumps({"output_paths": listed}))
    assert main(["run", "--config", write_config(tmp_path, TINY), "--out", str(out)]) == 0
    assert all(path.read_text() == "keep\n" for path in kept)
    assert (out / "old_curve.csv").is_dir() and (out / "sub").is_dir()


@pytest.mark.parametrize("text", ["{", "[]", '{"output_paths": 7}', "\udcff"])
def test_an_old_manifest_that_does_not_parse_is_ignored(tmp_path, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text, encoding="utf-8", errors="surrogateescape")
    (out / "rounds.csv").write_text("old\n")
    assert main(["run", "--config", write_config(tmp_path, TINY), "--out", str(out)]) == 0
    assert strict_json((out / "manifest.json").read_text())["status"] == "ok"


def test_stale_outputs_are_deleted_under_a_running_manifest(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    unlink, seen = Path.unlink, []

    def refuse(path, *args, **kwargs):
        if path.suffix == ".tmp":
            return unlink(path, *args, **kwargs)
        seen.append(strict_json((out / "manifest.json").read_text())["status"])
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(Path, "unlink", refuse)
    # the old manifest, which lists the file, is replaced before its
    # deletion is tried, and a deletion that fails is stamped io_error
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert seen == ["running"]
    manifest = strict_json((out / "manifest.json").read_text())
    assert manifest["status"] == "io_error"
    assert manifest["error"] == f"cannot write {out / 'rounds.csv'}: Permission denied"


def start_long_run(tmp_path, verb):
    """Start ``fedsim run`` or ``compare`` on runs far too long to finish,
    tied to this process, and wait until rounds.csv has a row; returns the
    process, the output directory and the directory of the run that is
    going."""
    if not CAN_TIE:
        pytest.skip("a run that never ends needs PR_SET_PDEATHSIG to die with the test")
    long = dict(SMALL, rounds=10 ** 6, targets=[])
    configs = [write_config(tmp_path, long, f"{label}.json") for label in "ab"]
    out = tmp_path / "out"
    run_dir = out if verb == "run" else out / "a"
    args = [a for c in configs[:1 if verb == "run" else 2] for a in ("--config", c)]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "fedsim", verb, *args, "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=tmp_path, preexec_fn=tied())
    try:
        deadline = time.monotonic() + 60
        csv = run_dir / "rounds.csv"
        while not (csv.exists() and csv.read_text().count("\n") >= 2):  # header and a row
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, out, run_dir


@pytest.mark.skipif(not CAN_TIE, reason="PR_SET_PDEATHSIG is Linux only")
def test_a_tied_child_dies_with_the_process_that_started_it():
    # a helper starts a tied child that would sleep for ten minutes and
    # prints its pid; SIGKILL on the helper must take the child with it
    helper_code = ("import subprocess, sys, time\n"
                   "from children import tied\n"
                   "child = subprocess.Popen([sys.executable, '-c', 'import time; "
                   "time.sleep(600)'], stdout=subprocess.DEVNULL, preexec_fn=tied())\n"
                   "print(child.pid, flush=True)\n"
                   "time.sleep(600)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent)}
    helper = subprocess.Popen([sys.executable, "-c", helper_code], stdout=subprocess.PIPE,
                              text=True, env=env, preexec_fn=tied())
    try:
        pid = int(helper.stdout.readline())
    finally:
        helper.kill()
        helper.wait()
        helper.stdout.close()
    assert helper.returncode == -signal.SIGKILL
    try:
        deadline = time.monotonic() + 10
        while running(pid):
            assert time.monotonic() < deadline, "the child outlived its killed parent"
            time.sleep(0.01)
    finally:
        if running(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_sigint_exits_130_with_one_line_and_an_interrupted_manifest(tmp_path, verb):
    proc, out, run_dir = start_long_run(tmp_path, verb)
    try:
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert err == "error: interrupted\n"
    assert len(read_rows(run_dir)) >= 1
    manifest = strict_json((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "interrupted" and "finished_at" in manifest
    if verb == "compare":
        top = strict_json((out / "manifest.json").read_text())
        assert top["status"] == "interrupted" and top["failed_label"] == "a"
        assert not (out / "comparison.csv").exists()


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_killed_run_leaves_a_running_manifest(tmp_path, verb):
    # SIGKILL gives the process no way out, so the manifest written when
    # the directory was made must already be whole and true
    proc, out, run_dir = start_long_run(tmp_path, verb)
    proc.kill()
    proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    for directory in {out, run_dir}:
        manifest = strict_json((directory / "manifest.json").read_text())
        assert manifest["status"] == "running" and "started_at" in manifest
        assert "finished_at" not in manifest and "error" not in manifest
    assert len(read_rows(run_dir)) >= 1
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("verb, blocked", [
    ("run", "rounds.csv"), ("run", "summary.json"),
    ("compare", "a_curve.csv"), ("compare", "comparison.csv"),
])
def test_output_that_cannot_be_written_exits_2_with_an_io_error_manifest(
        tmp_path, capsys, verb, blocked):
    # a directory stands where an output file goes
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    configs = [write_config(tmp_path, TINY, "a.json")] * (2 if verb == "compare" else 1)
    assert main([verb, *(a for c in configs for a in ("--config", c)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {out / blocked}: Is a directory"]
    manifest = strict_json((out / "manifest.json").read_text())
    assert manifest["status"] == "io_error" and "finished_at" in manifest
    assert manifest["error"] == err[0][len("error: "):]
    if verb == "compare":
        # every run finished; a curve belongs to its run, comparison.csv to none
        assert manifest.get("failed_label") == ("a" if blocked == "a_curve.csv" else None)
        assert strict_json((out / "a" / "manifest.json").read_text())["status"] == "ok"
    assert (out / blocked).is_dir() and not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_unwritable_manifest_exits_2_with_one_line(tmp_path, capsys, verb):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    cfg = write_config(tmp_path, TINY, "a.json")
    configs = ["--config", cfg] * (2 if verb == "compare" else 1)
    assert main([verb, *configs, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {out / 'manifest.json'}: Is a directory"]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("verb", ["run", "compare"])
def test_out_that_is_or_lies_under_a_file_exits_2_before_any_data(
        tmp_path, capsys, monkeypatch, verb, under):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    out = afile / "x" if under else afile
    monkeypatch.setattr(cli, "build_dataset", lambda cfg: pytest.fail("data was built"))
    cfg = write_config(tmp_path, TINY)
    configs = ["--config", cfg] * (2 if verb == "compare" else 1)
    assert main([verb, *configs, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert afile.read_text() == "keep\n"


def test_compare_needs_two_configs(tmp_path, capsys):
    assert main(["compare", "--config", write_config(tmp_path),
                 "--out", str(tmp_path / "x")]) == 2
    assert "at least two" in capsys.readouterr().err


# --------------------------------------------------------------- threads


def test_threads_default_to_1_and_must_be_positive(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
    assert json.loads((tmp_path / "t" / "manifest.json").read_text())["threads"] == 1
    capsys.readouterr()
    for bad in ("0", "-3"):
        assert main(["run", "--config", cfg, "--threads", bad,
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == \
            f"error: --threads must be a positive integer, got {bad}\n"
    assert not (tmp_path / "x").exists()


# The training loss is evaluated over one shard group of 8 clients of 300
# rows, so each matrix product of the mlp makes two full 1,024-row gemm
# blocks and a partial one.
EVAL_BLOCKS = {"algorithm": "fedagm", "rounds": 3, "clients": 8, "seed": 5,
               "model": {"kind": "mlp", "input_dim": 16, "output_dim": 4, "hidden_dims": [32]},
               "data": {"classes": 4, "train_per_class": 600, "test_per_class": 50,
                        "input_dim": 16},
               "local": {"k": 5}}
# The benchmark's cross_silo task over two rounds: 100 clients of d = 7,210
# at full participation step in chunks of six rows.
SILO_CHUNKS = {"algorithm": "feddyn", "rounds": 2, "clients": 100, "seed": 11,
               "model": {"kind": "mlp", "input_dim": 64, "output_dim": 10,
                         "hidden_dims": [96], "l2_weight_decay": 0.001},
               "data": {"classes": 10, "train_per_class": 200, "test_per_class": 50,
                        "input_dim": 64},
               "partition": {"kind": "dirichlet", "concentration": 0.3},
               "local": {"k": 2, "epochs": 1, "lr0": 0.1}}


@pytest.mark.parametrize("payload", [EVAL_BLOCKS, SILO_CHUNKS], ids=["eval-blocks", "silo-chunks"])
def test_blas_thread_count_never_changes_output(tmp_path, payload):
    cfg = write_config(tmp_path, payload)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "fedsim", "run", "--config", cfg,
                               "--out", str(out)], capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("rounds.csv", "summary.json")])
    assert outputs[0] == outputs[1]


# -------------------------------------------------------------- selftest


def test_selftest_passes_and_repeats_identically(capsys):
    assert main(["selftest"]) == 0
    first = capsys.readouterr().out
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out == first
    assert first.count("PASS") == 6


def test_selftest_fails_under_lambda_sign_mutation(capsys):
    assert main(["selftest", "--perturb-lambda-sign"]) == 1
    out = capsys.readouterr().out
    assert "FAIL momentum-recurrence" in out


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "fedsim", "run", "--config",
                           str(tmp_path / "missing.json")],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: config file not found")

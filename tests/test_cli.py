import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fedsim import cli
from fedsim.cli import (DEFAULT_CONFIG, apply_overrides, config_hash, load_config,
                        main, resolve_config)
from fedsim.errors import ConfigError

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
    with pytest.raises(ConfigError, match="unknown algorithm 'sgd'"):
        resolve_config(path, ["algorithm=sgd"], None)


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


def test_summary_targets_recompute_from_csv(tmp_path):
    """rounds_to_target in summary.json must agree with a scan of the
    ema_accuracy column in rounds.csv."""
    out = tmp_path / "out"
    main(["run", "--config", write_config(tmp_path), "--out", str(out)])
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
    section, name = key.split(".")
    assert len(err) == 1 and err[0].startswith(f"error: {section}: {name} ")
    assert not out.exists()


def test_non_finite_literal_in_a_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"local": {"alpha": NaN}, "server": {"global_lr": Infinity}}')
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: local: alpha ")
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
    assert len(err) == 1 and err[0].startswith(f"error: {named} must be a finite number")
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


def test_evaluation_overflow_exits_3_naming_its_round(tmp_path, capsys):
    # one huge step leaves a regression model whose squared norm is still
    # finite but whose residuals overflow when squared
    payload = {"rounds": 3, "clients": 4,
               "model": {"kind": "linear_regression", "input_dim": 4, "output_dim": 1,
                         "l2_weight_decay": 0.0},
               "data": {"classes": 3, "train_per_class": 20, "test_per_class": 5,
                        "input_dim": 4, "spread": 5.0},
               "local": {"k": 1, "lr0": 3e153, "clip_norm": 1e300}}
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: loss is not finite (round=0)"]


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


def start_long_run(tmp_path, verb):
    """Start ``fedsim run`` or ``compare`` on runs far too long to finish
    and wait until rounds.csv has a row; returns the process, the output
    directory and the directory of the run that is going."""
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
                            env=env, cwd=tmp_path)
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
        assert capsys.readouterr().err == "error: --threads must be a positive integer\n"
    assert not (tmp_path / "x").exists()


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

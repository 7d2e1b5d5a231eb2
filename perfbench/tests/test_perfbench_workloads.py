import json
from pathlib import Path

import pytest

from fedsim.cli import build_dataset, build_run_config, resolve_config
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_are_deterministic_under_the_seed(name, tmp_path):
    wl = WORKLOADS[name]
    first = [p.read_bytes() for p in wl.write_configs(tmp_path / "a", 7)]
    again = [p.read_bytes() for p in wl.write_configs(tmp_path / "b", 7)]
    other = [json.loads(p.read_bytes()) for p in wl.write_configs(tmp_path / "c", 8)]
    assert first == again
    for text, cfg in zip(first, other):
        seeded = json.loads(text)
        assert seeded["seed"] == 7 and cfg["seed"] == 8
        assert {**seeded, "seed": 8} == cfg


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_pass_the_cli_validation(name, tmp_path):
    wl = WORKLOADS[name]
    for path, algo in zip(wl.write_configs(tmp_path, 3), wl.algorithms):
        cfg = resolve_config(str(path), [], None)
        rc = build_run_config(cfg)
        train, _, _ = build_dataset(cfg)
        assert rc.algorithm == algo and rc.seed == 3 and rc.eval_every == 1
        assert rc.rounds == wl.rounds and rc.local.k == wl.config["local"]["k"]
        assert train.n >= rc.n_clients


def test_workload_shapes():
    c8, device, silo = (WORKLOADS[n] for n in ("paper_c8", "cross_device", "cross_silo"))
    assert (c8.sampled, c8.steps) == (5, 2 * 60 * 5 * 50)
    assert device.sampled == 10 and device.config["clients"] == 1000
    assert silo.sampled == 100 and silo.threads == 2
    dims = silo.layer_dims
    assert sum(a * b + b for a, b in zip(dims[:-1], dims[1:])) == 7210


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["why"] for w in spec["workloads"]} == {w.why for w in WORKLOADS.values()}

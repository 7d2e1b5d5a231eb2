import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write_outputs(out: Path, rows: list[str], residual=1e-16):
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.csv").write_text(
        "round,train_loss,test_accuracy,ema_accuracy,bytes_down,bytes_up\n"
        + "".join(f"{i + 1},{loss},0.5,0.5,0,0\n" for i, loss in enumerate(rows)))
    (out / "summary.json").write_text(json.dumps({"max_momentum_residual": residual}))


def _cross_device_check(tmp_path, losses, residual=1e-16):
    wl = WORKLOADS["cross_device"]
    check = run.OutputCheck(wl)
    stamps = {"runs": [[0.0] * wl.rounds]}
    _write_outputs(tmp_path / "a", losses, residual)
    return check, stamps, check(0, tmp_path / "a", stamps, setup=False)


def test_check_passes_identical_outputs_and_flags_a_changed_byte(tmp_path):
    losses = ["0.5"] * 60
    check, stamps, errors = _cross_device_check(tmp_path, losses)
    assert errors == []
    _write_outputs(tmp_path / "b", losses)
    assert check(0, tmp_path / "b", stamps, setup=False) == []
    _write_outputs(tmp_path / "c", ["0.5"] * 59 + ["0.6"])
    assert check(0, tmp_path / "c", stamps, setup=False) == [
        "fedagm/rounds.csv differs from the first invocation"]


def test_check_flags_exit_code_rows_and_residual(tmp_path):
    check, stamps, errors = _cross_device_check(tmp_path, ["0.5"] * 59, residual=None)
    assert "fedagm/rounds.csv has 59 rows, not 60" in errors
    assert "fedagm max_momentum_residual is None" in errors
    assert check(3, tmp_path / "a", stamps, setup=False) == ["exit code 3"]
    assert check(0, tmp_path / "a", {"runs": [[0.0]]}, setup=False)[0].startswith(
        "expected 1 engine runs")


def test_check_requires_the_paper_loss_target(tmp_path):
    wl = WORKLOADS["paper_c8"]
    stamps = {"runs": [[0.0] * 60] * 2}
    _write_outputs(tmp_path / "fedavg", ["0.3"] * 59 + ["0.2"])
    _write_outputs(tmp_path / "fedagm", ["0.3"] * 60)
    check = run.OutputCheck(wl)
    assert check(0, tmp_path, stamps, setup=False) == [
        "fedagm never reached train loss 0.2 within 60 rounds"]
    assert check.rounds_to_loss == {"fedavg": 60, "fedagm": 61}


def _bench(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_shortest_run(name, trace):
    done = _bench(["--workload", name, "--seed", "11", "--seconds", "1",
                   "--trace", str(trace)], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(["--workload", "paper_c8", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout

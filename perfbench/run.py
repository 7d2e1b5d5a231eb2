"""fedsim benchmark: end-to-end and per-layer metrics of CLI invocations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it benchmarks the fedsim sources
in that checkout's ``src/``. Every invocation is a fresh ``fedsim``
process (``perfbench/child.py``), started one at a time, with BLAS pinned
to one thread. The workload's config files are written from ``--seed``.

``--trace 0`` times the workload: it alternates set-up invocations
(``--set rounds=0``) with full ones until ``--seconds`` is spent, and
reports medians. ``--trace 1`` alternates an untraced invocation with
traced ones at 1 and 2 threads and reports per-layer metrics. Every
invocation's outputs are checked; a failed check counts the invocation as
failed. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import spans
from workloads import LOSS_TARGET, ROUND_BUDGET, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
# Fewest full invocations a timed run makes, whatever --seconds allows, so
# run_s is a median of at least this many and the round intervals leave
# at least ten samples beyond p90.
MIN_FULL = 3
MIN_INTERVALS = 100
# Set-up invocations are short and their fresh-process start dominates
# them, so a run takes more of them to steady the median.
SETUPS_PER_FULL = 2


def environment() -> dict:
    """Interpreter, numpy, BLAS, CPU and thread settings of this run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            **{v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def rounds_to_loss(rows: list[tuple[int, float]], target: float, rounds: int) -> int:
    """First round whose train loss is at most ``target``; rounds + 1 when
    none is."""
    return next((r for r, loss in rows if loss <= target), rounds + 1)


class OutputCheck:
    """Checks one invocation's outputs; returns a list of failures.

    rounds.csv and summary.json must equal, byte for byte, those of the
    first invocation of the same config in this run, whatever the thread
    count or tracing. A fedagm summary must carry a finite
    max_momentum_residual. When ``loss_target`` is set, every algorithm
    must reach train loss <= LOSS_TARGET within ROUND_BUDGET rounds.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[tuple, str] = {}
        self.rounds_to_loss: dict[str, int] = {}

    def __call__(self, status: int, out: Path, stamps, setup: bool) -> list[str]:
        if status != 0:
            return [f"exit code {status}"]
        wl = self.workload
        rounds = 0 if setup else wl.rounds
        errors = []
        if stamps is None or [len(r) for r in stamps["runs"]] != [rounds] * len(wl.algorithms):
            errors.append(f"expected {len(wl.algorithms)} engine runs of {rounds} records")
        for algo, directory in wl.output_dirs(out).items():
            try:
                files = {name: (directory / name).read_bytes()
                         for name in ("rounds.csv", "summary.json")}
            except OSError as exc:
                errors.append(f"{algo}: {exc}")
                continue
            for name, data in files.items():
                digest = hashlib.sha256(data).hexdigest()
                if self.reference.setdefault((setup, algo, name), digest) != digest:
                    errors.append(f"{algo}/{name} differs from the first invocation")
            rows = [(int(r["round"]), float(r["train_loss"]))
                    for r in csv.DictReader(files["rounds.csv"].decode().splitlines())]
            if len(rows) != rounds:
                errors.append(f"{algo}/rounds.csv has {len(rows)} rows, not {rounds}")
            if algo == "fedagm":
                residual = json.loads(files["summary.json"]).get("max_momentum_residual")
                if not isinstance(residual, float) or not math.isfinite(residual):
                    errors.append(f"fedagm max_momentum_residual is {residual!r}")
            if not setup:
                hit = rounds_to_loss(rows, LOSS_TARGET, rounds)
                self.rounds_to_loss.setdefault(algo, hit)
                if wl.loss_target and hit > ROUND_BUDGET:
                    errors.append(f"{algo} never reached train loss {LOSS_TARGET} "
                                  f"within {ROUND_BUDGET} rounds")
        return errors


class Runner:
    """Starts the invocations of one benchmark run, one at a time."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.configs = workload.write_configs(work / "configs", seed)
        self.check = OutputCheck(workload)
        self.env = {**os.environ, **{v: "1" for v in BLAS_THREAD_VARS}}
        self.invocations: list[dict] = []

    def invoke(self, *, threads: int, setup: bool = False, traced: bool = False) -> dict:
        index = len(self.invocations)
        inv_dir = self.work / f"inv{index}"
        inv_dir.mkdir()
        stamps_path, spans_path = inv_dir / "stamps.json", inv_dir / "spans.npz"
        cmd = [sys.executable, str(CHILD), str(stamps_path)]
        if traced:
            cmd += ["--spans", str(spans_path)]
        cmd += ["--", *self.workload.argv(self.configs, inv_dir / "out", threads, setup)]
        with open(inv_dir / "stderr.txt", "wb") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - spawned
            timer.join()
        proc.returncode = status = os.waitstatus_to_exitcode(wait_status)

        stamps = (json.loads(stamps_path.read_text(encoding="utf-8"))
                  if status == 0 and stamps_path.is_file() else None)
        errors = self.check(status, inv_dir / "out", stamps, setup)
        inv = {"threads": threads, "setup": setup, "traced": traced,
               "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
               "stamps": stamps, "errors": errors}
        if traced and not errors:
            inv["spans"] = spans.load(spans_path)
            inv["wall"] -= stamps["dump_s"]
        if errors:
            tail = (inv_dir / "stderr.txt").read_text(errors="replace").strip()
            print(f"# invocation {index} failed: {'; '.join(errors)}"
                  + (f" (stderr: {tail.splitlines()[-1]})" if tail else ""))
        shutil.rmtree(inv_dir)
        self.invocations.append(inv)
        return inv

    def ok(self, **match) -> list[dict]:
        """Invocations without errors whose fields equal ``match``."""
        return [i for i in self.invocations
                if not i["errors"] and all(i[k] == v for k, v in match.items())]


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics; see the module docstring."""
    wl = runner.workload
    start = time.perf_counter()
    if wl.threads > 1:
        # outputs at one thread are the reference the pooled runs must match
        runner.invoke(threads=1)
    while True:
        cycle = time.perf_counter()
        for _ in range(SETUPS_PER_FULL):
            runner.invoke(threads=wl.threads, setup=True)
        runner.invoke(threads=wl.threads)
        now = time.perf_counter()
        enough = (len(runner.ok(setup=False, threads=wl.threads)) >= MIN_FULL
                  or any(i["errors"] for i in runner.invocations))
        if enough and now + (now - cycle) - start > seconds:
            break

    full = runner.ok(setup=False, threads=wl.threads)
    setups = runner.ok(setup=True)
    if not full or not setups:
        return {}
    run_s = statistics.median(i["wall"] for i in full)
    setup_s = statistics.median(i["wall"] for i in setups)
    intervals = [1e3 * (b - a) for i in full for run in i["stamps"]["runs"]
                 for a, b in zip(run, run[1:])]
    if len(intervals) < MIN_INTERVALS:
        raise RuntimeError(f"only {len(intervals)} round intervals; raise the rounds")
    return {
        "run_s": (run_s, "s"),
        "setup_s": (setup_s, "s"),
        "steps_per_s": (wl.steps / (run_s - setup_s), "1/s"),
        "round_ms_p50": (statistics.median(intervals), "ms"),
        "round_ms_p90": (statistics.quantiles(intervals, n=10)[-1], "ms"),
        "peak_rss_mb": (statistics.median(i["rss_mb"] for i in full), "MB"),
    }


def trace(runner: Runner, seconds: float) -> dict:
    """Per-layer metrics; see the module docstring."""
    wl = runner.workload
    other = 1 if wl.threads > 1 else 2
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        runner.invoke(threads=wl.threads)
        runner.invoke(threads=wl.threads, traced=True)
        runner.invoke(threads=other, traced=True)
        now = time.perf_counter()
        if now + (now - cycle) - start > seconds:
            break

    own = runner.ok(traced=True, threads=wl.threads)
    untraced = runner.ok(traced=False)
    by_threads = {n: [i["wall"] for i in runner.ok(traced=True, threads=n)] for n in (1, 2)}
    if not own or not untraced or not all(by_threads.values()):
        return {}
    missing = set()
    for inv in runner.ok(traced=True):
        missing.update(inv["stamps"]["missing"])
    if missing:
        print(f"# hooks missing, their layers' metrics are null: {sorted(missing)}")
    return layers.metrics(
        wl, layers.Traced(own), untraced_walls=[i["wall"] for i in untraced],
        walls_1=by_threads[1], walls_2=by_threads[2],
        all_traced=runner.ok(traced=True), missing=missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "fedsim" / "cli.py").is_file():
        print(f"error: no fedsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update({v: "1" for v in BLAS_THREAD_VARS})
    print("# env " + json.dumps(environment(), sort_keys=True))
    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    work = base / f"{workload.name}-{os.getpid()}"
    try:
        runner = Runner(workload, args.seed, work)
        found = (trace if args.trace else measure)(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    if runner.check.rounds_to_loss:
        print("# rounds_to_loss_0.2 " + json.dumps(runner.check.rounds_to_loss))

    failed = sum(1 for i in runner.invocations if i["errors"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"correct": failed == 0 and bool(found),
              "attempted": len(runner.invocations), "failed": failed,
              "metrics": {}}
    for m in declared["per_layer" if args.trace else "end_to_end"]:
        value, unit = found.get(m["name"], (None, m["unit"]))
        result["metrics"][m["name"]] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: fedsim configs written from the workload seed.

Each workload is one ``fedsim run`` or ``fedsim compare`` invocation. Its
config files are generated here, with the workload seed as the config
``seed``; fedsim derives the synthetic data, the partition, the model
initialisation and every sampling stream from it. ``eval_every`` is 1
everywhere, so every round delivers one record.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

# The criterion-8 task of the acceptance suite: softmax d=210 over 10
# Gaussian classes, 100 clients, 5% participation, Dirichlet(0.3), K=50.
_SOFTMAX_20 = {"kind": "softmax_classifier", "input_dim": 20, "output_dim": 10,
               "hidden_dims": [], "l2_weight_decay": 0.001}
_DATA_20 = {"kind": "synthetic", "classes": 10, "train_per_class": 500,
            "test_per_class": 50, "input_dim": 20, "spread": 1.0}
_DIRICHLET = {"kind": "dirichlet", "concentration": 0.3}
_SERVER = {"tau": 1.0, "lam": 0.85}

# The loss target and round budget frozen in acceptance criterion 8.
LOSS_TARGET = 0.2
ROUND_BUDGET = 60


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    verb: str                 # "run" or "compare"
    algorithms: tuple         # one config per algorithm, in this order
    threads: int
    config: dict              # everything but "algorithm" and "seed"
    loss_target: bool = False  # every run must reach LOSS_TARGET in time

    def configs(self, seed: int) -> list[dict]:
        """The config of every algorithm, seeded with ``seed``."""
        return [{"algorithm": algo, "seed": seed, **copy.deepcopy(self.config)}
                for algo in self.algorithms]

    def write_configs(self, directory: Path, seed: int) -> list[Path]:
        """Write one JSON config per algorithm; the file stem is the
        algorithm, so compare labels its outputs by algorithm."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for cfg in self.configs(seed):
            path = directory / f"{cfg['algorithm']}.json"
            path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            paths.append(path)
        return paths

    def argv(self, config_paths, out_dir, threads: int, setup: bool) -> list[str]:
        """fedsim arguments for one invocation; ``setup`` runs 0 rounds."""
        args = [self.verb]
        for p in config_paths:
            args += ["--config", str(p)]
        args += ["--threads", str(threads), "--out", str(out_dir)]
        if setup:
            args += ["--set", "rounds=0"]
        return args

    def output_dirs(self, out_dir: Path) -> dict:
        """Directory holding rounds.csv and summary.json, per algorithm."""
        if self.verb == "run":
            return {self.algorithms[0]: out_dir}
        return {algo: out_dir / algo for algo in self.algorithms}

    @property
    def rounds(self) -> int:
        return self.config["rounds"]

    @property
    def sampled(self) -> int:
        """|S_t|: the engine samples max(1, round(participation * N))."""
        c = self.config
        return max(1, int(math.floor(c["participation"] * c["clients"] + 0.5)))

    @property
    def steps(self) -> int:
        """Local SGD steps of one full invocation: sum over runs and
        rounds of |S_t| * K."""
        return len(self.algorithms) * self.rounds * self.sampled * self.config["local"]["k"]

    @property
    def layer_dims(self) -> list[int]:
        m = self.config["model"]
        return [m["input_dim"], *m["hidden_dims"], m["output_dim"]]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper_c8",
        why="fedavg vs fedagm on the criterion-8 task (softmax d=210, N=100, 5% "
            "participation, K=50): per-step Python dispatch in local_update dominates",
        verb="compare", algorithms=("fedavg", "fedagm"), threads=1,
        config={"rounds": ROUND_BUDGET, "clients": 100, "participation": 0.05,
                "eval_every": 1, "targets": [], "model": _SOFTMAX_20,
                "data": _DATA_20, "partition": _DIRICHLET,
                "local": {"k": 50, "epochs": 5, "lr0": 0.1, "beta": 0.01},
                "server": _SERVER},
        loss_target=True),
    Workload(
        name="cross_device",
        why="fedagm over 1000 clients of 5 examples at 1% participation, K=10: "
            "per-round evaluation and set-up dominate, client steps do not",
        verb="run", algorithms=("fedagm",), threads=1,
        config={"rounds": 60, "clients": 1000, "participation": 0.01,
                "eval_every": 1, "targets": [], "model": _SOFTMAX_20,
                "data": _DATA_20, "partition": _DIRICHLET,
                "local": {"k": 10, "epochs": 2, "lr0": 0.1, "beta": 0.01},
                "server": _SERVER}),
    Workload(
        name="cross_silo",
        why="feddyn vs fedcm, mlp d=7210, 100 silos at full participation, K=2, "
            "2 threads: BLAS-bound gradient, |S|=100 aggregation, the worker pool",
        verb="compare", algorithms=("feddyn", "fedcm"), threads=2,
        config={"rounds": 20, "clients": 100, "participation": 1.0,
                "eval_every": 1, "targets": [],
                "model": {"kind": "mlp", "input_dim": 64, "output_dim": 10,
                          "hidden_dims": [96], "l2_weight_decay": 0.001},
                "data": {"kind": "synthetic", "classes": 10, "train_per_class": 200,
                         "test_per_class": 50, "input_dim": 64, "spread": 1.0},
                "partition": _DIRICHLET,
                "local": {"k": 2, "epochs": 1, "lr0": 0.1},
                "server": _SERVER}),
)}

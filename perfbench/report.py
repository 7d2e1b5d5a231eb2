"""Print every benchmark metric of every workload, with its unit.

    python3 perfbench/report.py [--seed N]

Runs ``perfbench/run.py`` once per workload with ``--trace 0`` (end-to-end
metrics) and once with ``--trace 1`` (per-layer metrics), one after the
other, each for the ``run_seconds`` of BENCHMARK.json, and prints one
table row per metric. Exits 1 if any run fails or reports an incorrect
output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    status = 0
    print(f"{'workload':13} {'metric':36} {'value':>14}  unit")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload}: run.py exited {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            *notes, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            for note in notes:
                if not note.startswith("# env"):
                    print(f"{workload:13} {note}")
            print(f"{workload:13} {'invocations':36} {result['attempted']:>14}  "
                  f"({result['failed']} failed, correct={result['correct']})")
            status |= not result["correct"]
            for name, m in result["metrics"].items():
                value = "null" if m["value"] is None else f"{m['value']:.6g}"
                print(f"{workload:13} {name:36} {value:>14}  {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())

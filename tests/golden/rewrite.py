"""Rewrite ``digests.json`` from the fedsim sources of this checkout.

    python tests/golden/rewrite.py

Runs every case of the corpus and of the benchmark workloads, and writes
their records with this process's numpy and BLAS versions. A change that
moves any digest says which and why.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from golden.cases import CASES, DIGESTS, record, versions, workload_cases  # noqa: E402


def main() -> int:
    digests = {"versions": versions(),
               "cases": {c.name: record(c) for c in CASES},
               "workloads": {c.name: record(c) for c in workload_cases()}}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests['cases'])} cases and {len(digests['workloads'])} "
          f"workload runs to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

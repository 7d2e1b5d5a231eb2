"""Rewrite ``digests.json`` from the fedsim sources of this checkout.

    python tests/golden/rewrite.py

Runs every case of the corpus and of the benchmark workloads, and writes
their records with this process's numpy and BLAS versions and BLAS
core. Before it writes, it prints each record that moved against the
file it replaces: a key of the versions block, or a file, exit status or
stderr of a case or a workload run; or "no record moved". A change that
moves any digest says which and why.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from golden.cases import (CASES, DIGESTS, differences, load, record, versions,  # noqa: E402
                          workload_cases)


def moved(old: dict, new: dict) -> list[str]:
    """One line per record of ``new`` that differs from ``old``."""
    was, now = old.get("versions", {}), new["versions"]
    lines = [f"versions: {key} {was.get(key)!r} -> {now.get(key)!r}"
             for key in sorted(was.keys() | now.keys()) if was.get(key) != now.get(key)]
    for part in ("cases", "workloads"):
        lines += [f"{part}: {line}" for line in differences(old.get(part, {}), new[part])]
    return lines


def main() -> int:
    digests = {"versions": versions(),
               "cases": {c.name: record(c) for c in CASES},
               "workloads": {c.name: record(c) for c in workload_cases()}}
    print("\n".join(moved(load() if DIGESTS.exists() else {}, digests)) or "no record moved")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests['cases'])} cases and {len(digests['workloads'])} "
          f"workload runs to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference.json, the extremal values extremal_tables is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Every distinct symmetry image of every pattern is solved, and the script
stops if two images disagree, so the table is valid for every seed.
Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import patternex as px  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench.workloads import REFERENCE_PATH, execute  # noqa: E402


def main() -> None:
    # Eight passes cycle every pattern through all of its distinct images;
    # no pattern has more than eight.
    rows = {
        (r.kind, r.key, r.n, r.pattern): r
        for p in range(8)
        for r in inputs.extremal_tables(px, 0, p)
    }
    values: dict = {}
    for (kind, key, n, _), row in rows.items():
        result = execute(px, "extremal_tables", row)
        values.setdefault((kind, key, n), set()).add(result if kind == "count" else result.value)
    table: dict = {}
    for (kind, key, n), found in sorted(values.items()):
        if len(found) != 1:
            raise SystemExit(f"{kind} {key} n={n}: images disagree: {sorted(found)}")
        table.setdefault(kind, {}).setdefault(key, {})[str(n)] = found.pop()
    REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

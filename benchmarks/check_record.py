"""Check a fresh ``python -m repro.bench --json`` run against a record.

Every experiment in FRESH must appear in RECORD with the same rows and
notes; each differing cell or note is printed and the exit code is 1.
Compare only experiments whose every cell is deterministic (simulated
time, counts, modularity), never wall time: at the record scale that is
every experiment but fig8, stress and kernels.

Run:  python -m repro.bench table2 fig1 table1 fig4 fig5 fig6 fig7 \
          table3 table4 fig9 fig10 --scale 0.25 --json record.json
      python benchmarks/check_record.py record.json bench_results_scale025.json
"""

from __future__ import annotations

import json
import sys


def diff_experiment(fresh: dict, record: dict) -> list[str]:
    """Each row cell and note of ``fresh`` that ``record`` does not hold."""
    name = fresh["experiment"]
    out = []
    if len(fresh["rows"]) != len(record["rows"]):
        out.append(f"{name}: {len(record['rows'])} rows recorded, {len(fresh['rows'])} now")
    for i, (got, want) in enumerate(zip(fresh["rows"], record["rows"])):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                out.append(f"{name} row {i} [{key}]: {want.get(key)!r} -> {got.get(key)!r}")
    if fresh["notes"] != record["notes"]:
        out.append(f"{name} notes: {record['notes']!r} -> {fresh['notes']!r}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        fresh = json.load(fh)
    with open(argv[1]) as fh:
        record = {e["experiment"]: e for e in json.load(fh)}
    problems = []
    for experiment in fresh:
        name = experiment["experiment"]
        if name not in record:
            problems.append(f"{name}: not in {argv[1]}")
        else:
            problems += diff_experiment(experiment, record[name])
    for line in problems:
        print(line)
    checked = ", ".join(e["experiment"] for e in fresh)
    print(f"{checked}: {'differs from' if problems else 'matches'} {argv[1]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Summarise saved benchmark outputs, or compare two sets of runs.

Save the standard output of each ``run.py`` call to a file, then::

    python3 perfbench/compare.py runs/*.out
    python3 perfbench/compare.py --base parent/*.out --new change/*.out

The first form prints, per workload and metric, the run count, the
median and the quartile spread ``(q3 - q1) / median`` (quartiles from
``statistics.quantiles(values, n=4)``). The second form prints each
end-to-end metric's median change against its bound in
``BENCHMARK.json``. Both flag runs that were incorrect, and runs whose
machine record or jit provider differs: such runs measure different
programs and are not comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list) -> list:
    """(detail, result) pairs from saved outputs, in file order."""
    runs = []
    for path in paths:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh if line.startswith("{")]
        for a, b in zip(lines, lines[1:]):
            if "detail" in a and "metrics" in b:
                runs.append((a["detail"], b))
    return runs


def environment(detail: dict) -> tuple:
    machine = detail.get("machine", {})
    jit = (detail.get("jit") or {}).get("provider")
    return (machine.get("cpu_count"), machine.get("cc"), machine.get("numpy"), jit)


def grouped(runs: list) -> dict:
    """(workload, trace) -> metric -> values."""
    out = defaultdict(lambda: defaultdict(list))
    for detail, result in runs:
        for name, metric in result["metrics"].items():
            out[(detail["workload"], detail["trace"])][name].append(metric["value"])
    return out


def spread(values: list) -> tuple:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def warnings(runs: list) -> list:
    out = []
    for detail, result in runs:
        if not result["correct"]:
            out.append(f"{detail['workload']} seed {detail['seed']}: incorrect: {detail.get('errors')}")
    envs = {environment(d) for d, _ in runs}
    if len(envs) > 1:
        out.append(f"runs differ in machine or jit provider, not comparable: {sorted(map(str, envs))}")
    return out


def summarize(paths: list) -> None:
    runs = load(paths)
    for (workload, trace), metrics in sorted(grouped(runs).items()):
        print(f"{workload} (trace {trace})")
        for name, values in metrics.items():
            med, rel = spread(values)
            print(f"  {name:40s} n={len(values):2d} median={med:.6g} spread={rel:.4f}")
    for line in warnings(runs):
        print("WARNING:", line)


def compare(base_paths: list, new_paths: list) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base_runs, new_runs = load(base_paths), load(new_paths)
    base, new = grouped(base_runs), grouped(new_runs)
    for key in sorted(set(base) & set(new)):
        if key[1]:
            continue
        print(key[0])
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b, n = base[key].get(name), new[key].get(name)
            if not b or not n:
                continue
            mb, rb = spread(b)
            mn, _ = spread(n)
            change = (mn - mb) / mb if spec["better"] == "lower" else (mb - mn) / mb
            verdict = "worse" if change > spec["bound"] else "ok"
            if rb > spec["bound"]:
                verdict = "unresolved (base spread above bound)"
            print(f"  {name:16s} base={mb:.6g} new={mn:.6g} worse_by={change:+.4f} "
                  f"bound={spec['bound']} {verdict}")
    for line in warnings(base_runs + new_runs):
        print("WARNING:", line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--new", nargs="+")
    args = parser.parse_args()
    if args.base and args.new:
        compare(args.base, args.new)
    elif args.files:
        summarize(args.files)
    else:
        parser.error("give output files, or --base and --new")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lfr-local --seed 102 --seconds 10 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``. ``--trace 0``
measures the end-to-end metrics with no timing wrappers installed;
``--trace 1`` measures the per-layer metrics, alternating untraced and
traced operations so the tracing overhead is measured too.

The workload runs in fresh interpreters with ``PYTHONPATH=src``, and
``TMPDIR`` and ``REPRO_JIT_CACHE`` pointed inside a run directory of
the checkout. An untraced run starts ``PROCESSES`` of them one after
another, each with its own set-up and an equal share of ``--seconds``,
and reports the median of their metrics: on a shared host one process
can run a fifth slower than the next for its whole life, and the median
over processes keeps that out of the run-to-run spread. After each
process ends, any ``/dev/shm`` segment it created or any file left in
its temp directory counts as a failed operation. The second-to-last
line of output is a ``detail`` record (machine, jit provider, sample
counts, digests, per-process metrics, errors); the last line is the
result::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: workload processes per untraced run
PROCESSES = 3
#: a whole run, every process included, must end within 180 s
RUN_TIMEOUT_S = 170
SHM = "/dev/shm"


def machine_record() -> dict:
    """Where the run happened: compare only runs with the same record."""
    try:
        cc = subprocess.run(
            [os.environ.get("CC", "cc"), "--version"],
            capture_output=True, text=True, timeout=10,
        ).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        cc = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": cc,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def _shm_entries() -> set:
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def _leftovers(path: str) -> list:
    return sorted(os.listdir(path)) if os.path.isdir(path) else []


def run_child(args, run_dir: str, seconds: float, timeout: float) -> tuple:
    """Run the workload in a fresh interpreter; returns (result, leaks)."""
    tmp = os.path.join(run_dir, "tmp")
    jit_root = os.path.join(run_dir, "jit")
    out = os.path.join(run_dir, "result.json")
    os.makedirs(tmp)
    os.makedirs(jit_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    env["REPRO_JIT_CACHE"] = os.path.join(jit_root, "unset")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--tmp", tmp, "--jit-root", jit_root, "--out", out,
    ]
    shm_before = _shm_entries()
    # the child's own output goes to stderr: stdout carries only results
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"workload {args.workload} exceeded {timeout:.0f}s")
    if code != 0:
        raise SystemExit(f"workload {args.workload} exited with code {code}")
    with open(out) as fh:
        result = json.load(fh)
    leaks = [f"{SHM}/{name}" for name in sorted(_shm_entries() - shm_before)]
    leaks += [f"TMPDIR/{name}" for name in _leftovers(tmp)]
    return result, leaks


def checked_metrics(produced: dict, declared: list, layer_run: bool) -> tuple:
    """The declared metrics with their units, plus naming errors.

    Per-layer metrics of a layer the workload does not exercise read 0.
    """
    errors = [f"undeclared metric {name}" for name in sorted(set(produced) - {m["name"] for m in declared})]
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in produced and not layer_run:
            errors.append(f"missing metric {name}")
            continue
        value = float(produced.get(name, 0.0))
        if not math.isfinite(value):
            errors.append(f"metric {name} is not finite")
            continue
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics, errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro package next to BENCHMARK.json; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    processes = 1 if args.trace else PROCESSES
    run_dir = os.path.join(ROOT, ".perfbench-run", f"{args.workload}-{os.getpid()}")
    results, leaks, leaky = [], [], 0
    try:
        for i in range(processes):
            result, leaked = run_child(
                args,
                os.path.join(run_dir, f"p{i}"),
                args.seconds / processes,
                RUN_TIMEOUT_S / processes,
            )
            results.append(result)
            leaks += leaked
            leaky += int(bool(leaked))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    produced = {
        name: median([r["metrics"][name] for r in results])
        for name in results[0]["metrics"]
    }
    metrics, naming_errors = checked_metrics(produced, declared, bool(args.trace))
    errors = [e for r in results for e in r["errors"]]
    errors += naming_errors + [f"leaked {path}" for path in leaks]
    # one more operation per process: its isolation check
    attempted = sum(r["attempted"] for r in results) + processes
    failed = sum(r["failed"] for r in results) + leaky
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        **results[0]["detail"],
        "per_process": [r["metrics"] for r in results] if processes > 1 else None,
        "errors": errors,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

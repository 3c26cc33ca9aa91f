"""Wall-clock harness for the gpusim execution engines — regenerates
``BENCH_gpusim.json``.

Methodology (same as ``BENCH_kernels.json``): the scalar ("before") and
batched ("after") engines run in *interleaved subprocesses* — each round
spawns one fresh interpreter per engine, alternating, so thermal drift
and cache warmth never favour one side. Each subprocess times several
in-process repetitions of

* the Figure 9 kernel-cost experiment (the engines' headline comparison), and
* a full gpusim phase-1 run on the LJ stand-in,

and reports the timings plus every deterministic column: the fig9 cycle
ratios, and the phase-1 modularity / iteration count / simulated cycle
total. The parent asserts the deterministic columns are identical across
engines (the bit-exactness contract) before writing the JSON, and
records the machine it ran on (cores, affinity, versions, jit provider).

Usage::

    PYTHONPATH=src python benchmarks/bench_gpusim.py [-o BENCH_gpusim.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SCALE = 0.25
ROUNDS = 3
FIG9_REPS = 2
ENGINES = ("scalar", "batched")


def _worker(engine: str) -> dict:
    """Run the payload in-process; the engine comes in via the env."""
    assert os.environ.get("REPRO_GPUSIM_ENGINE") == engine
    from repro.bench.experiments import fig9_kernels
    from repro.core.gala import GalaConfig, gala
    from repro.graph.generators import load_dataset

    fig9_times, fig9_rows = [], None
    for _ in range(FIG9_REPS):
        t0 = time.perf_counter()
        out = fig9_kernels.run(scale=SCALE)
        fig9_times.append(time.perf_counter() - t0)
        fig9_rows = out.rows

    graph = load_dataset("LJ", SCALE)
    t0 = time.perf_counter()
    result = gala(graph, GalaConfig(backend="gpusim", phase1_only=True))
    phase1_time = time.perf_counter() - t0
    return {
        "fig9_times_s": fig9_times,
        "fig9_rows": fig9_rows,
        "phase1_time_s": phase1_time,
        "modularity": result.modularity,
        "iterations": result.num_iterations,
    }


def _worker_with_cycles(engine: str) -> dict:
    """Payload plus the simulated-cycle total of one pinned launch set."""
    import numpy as np

    from repro.core.kernels.dispatch import make_gpusim_kernel
    from repro.core.state import CommunityState
    from repro.graph.generators import load_dataset

    out = _worker(engine)
    graph = load_dataset("LJ", SCALE)
    rng = np.random.default_rng(0)
    state = CommunityState.from_assignment(
        graph, rng.integers(0, 64, graph.n)
    )
    kernel = make_gpusim_kernel(engine=engine)
    kernel(state, np.arange(graph.n))
    out["launch_total_cycles"] = kernel.device.profiler.total_cycles
    return out


def _machine() -> dict:
    """The box the timings come from; compare ratios, not seconds."""
    import numpy as np

    from repro.core.kernels.jit import get_runtime

    runtime = get_runtime()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "jit_provider": runtime.provider if runtime is not None else None,
    }


def _spawn(engine: str) -> dict:
    env = dict(os.environ, REPRO_GPUSIM_ENGINE=engine)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", engine],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--output", default="BENCH_gpusim.json")
    parser.add_argument("--worker", metavar="ENGINE", default=None)
    args = parser.parse_args()

    if args.worker:
        print(json.dumps(_worker_with_cycles(args.worker)))
        return

    runs: dict[str, list[dict]] = {e: [] for e in ENGINES}
    for rnd in range(ROUNDS):
        for engine in ENGINES:
            print(f"round {rnd + 1}/{ROUNDS}: {engine} ...", flush=True)
            runs[engine].append(_spawn(engine))

    report: dict = {
        "description": (
            "gpusim engine wall-clock: fig9 kernel experiment + gpusim "
            f"phase-1 on the LJ stand-in at REPRO_BENCH_SCALE={SCALE}; "
            "before = scalar engine (one vertex per Python iteration), "
            "after = batched engine (the default: shuffle kernel on "
            "(vertex, community) runs, fixed-point hash probe resolution)"
        ),
        "machine": _machine(),
        "machine_note": (
            f"best over {ROUNDS} interleaved subprocess rounds x "
            f"{FIG9_REPS} in-process fig9 reps each"
        ),
    }
    for engine, key in (("scalar", "before"), ("batched", "after")):
        rs = runs[engine]
        fig9 = [t for r in rs for t in r["fig9_times_s"]]
        report[key] = {
            "engine": engine,
            "fig9": {
                "best_s": min(fig9),
                "median_s": statistics.median(fig9),
                "rows": rs[0]["fig9_rows"],
            },
            "phase1_LJ": {
                "best_s": min(r["phase1_time_s"] for r in rs),
                "modularity": rs[0]["modularity"],
                "iterations": rs[0]["iterations"],
                "launch_total_cycles": rs[0]["launch_total_cycles"],
            },
        }

    # the bit-exactness contract: every deterministic column identical
    for field in ("fig9_rows", "modularity", "iterations", "launch_total_cycles"):
        values = [r[field] for rs in runs.values() for r in rs]
        assert all(v == values[0] for v in values), f"{field} diverged: {values}"

    fig9_speedup = report["before"]["fig9"]["best_s"] / report["after"]["fig9"]["best_s"]
    phase1_speedup = (
        report["before"]["phase1_LJ"]["best_s"]
        / report["after"]["phase1_LJ"]["best_s"]
    )
    report["speedup"] = {
        "fig9": f"{fig9_speedup:.1f}x",
        "phase1_LJ": f"{phase1_speedup:.1f}x",
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"fig9 {fig9_speedup:.1f}x, phase1 {phase1_speedup:.1f}x -> {args.output}")


if __name__ == "__main__":
    main()

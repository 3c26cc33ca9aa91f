"""Host DecideAndMove backends: ``vectorized`` vs ``jit``.

Not one of the paper's figures — this experiment times the repo's two
host-side DecideAndMove backends on MG-pruned phase-1 runs:

* ``vectorized`` — NumPy segmented reductions (the reference);
* ``jit`` — the compiled per-vertex loop with a flat per-community
  accumulator the kernel keeps across calls; included only when a
  compile provider passes its warm-up probe on the host.

``kernel="auto"`` resolves to ``jit`` exactly when that probe passed, else
to ``vectorized``, so the table also covers the default. Every row is
checked bit-identical against ``vectorized`` on the fly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.harness import ExperimentOutput
from repro.bench.workloads import bench_scale, load_suite
from repro.core.kernels.jit import get_runtime
from repro.core.phase1 import Phase1Config, run_phase1

GRAPHS = ["LJ", "OR"]


def _timed_phase1(graph, backend: str):
    t0 = time.perf_counter()
    result = run_phase1(graph, Phase1Config(pruning="mg", kernel=backend))
    return result, time.perf_counter() - t0


def run(scale: float | None = None) -> ExperimentOutput:
    scale = scale if scale is not None else bench_scale()
    rows = []
    notes = []
    # probed (and compiled) here, so the one-off compile never lands in a
    # timed row
    rt = get_runtime()
    backends = ["vectorized"]
    if rt is not None:
        backends.append("jit")
        notes.append(
            f"jit provider: {rt.provider} "
            f"(one-off compile {rt.compile_s:.3f}s, excluded from rows); "
            f"kernel='auto' runs jit"
        )
    else:
        notes.append("no jit compile provider here; kernel='auto' runs vectorized")
    for graph in load_suite(GRAPHS, scale=scale):
        timed = {backend: _timed_phase1(graph, backend) for backend in backends}
        ref, ref_time = timed["vectorized"]
        for backend, (result, elapsed) in timed.items():
            if not np.array_equal(result.communities, ref.communities):
                raise AssertionError(
                    f"{backend} diverged from vectorized on {graph.name}"
                )
            rows.append(
                {
                    "graph": graph.name,
                    "backend": backend,
                    "time_s": elapsed,
                    "speedup": f"{ref_time / elapsed:.2f}x",
                    "iters": result.num_iterations,
                    "active_edges": result.processed_edges,
                    "modularity": result.modularity,
                }
            )
    return ExperimentOutput(
        experiment="kernels",
        title="DecideAndMove host backends (vectorized vs jit)",
        rows=rows,
        columns=[
            "graph", "backend", "time_s", "speedup", "iters",
            "active_edges", "modularity",
        ],
        notes=notes,
    )

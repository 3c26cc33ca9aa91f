"""Figure 10: multi-GPU scalability and time breakdown.

(a) speedup from 1 to 8 simulated GPUs on every graph (paper: 2.5x average,
sub-linear because communication does not shrink);
(b) computation vs communication breakdown on the OR stand-in (paper:
computation drops 4.4x from 1 to 8 GPUs, communication stays nearly
constant and reaches 43% of runtime at 8 GPUs).
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentOutput
from repro.bench.workloads import bench_scale
from repro.graph.generators import load_dataset
from repro.multigpu import MultiGpuConfig, run_multigpu_phase1

GPU_COUNTS = [1, 2, 4, 8]
GRAPHS = ["LJ", "OR", "UK", "HW"]


def run(scale: float | None = None, graphs: list[str] | None = None) -> ExperimentOutput:
    scale = scale if scale is not None else bench_scale()
    graphs = graphs or GRAPHS
    rows = []
    speedups_at_8 = []
    for abbr in graphs:
        g = load_dataset(abbr, scale)
        results = {
            k: run_multigpu_phase1(g, MultiGpuConfig(num_gpus=k))
            for k in GPU_COUNTS
        }
        t1 = results[1].total_seconds()
        row: dict = {"graph": abbr}
        for k in GPU_COUNTS:
            row[f"{k} GPU"] = f"{t1 / results[k].total_seconds():.2f}x"
        speedups_at_8.append(t1 / results[8].total_seconds())
        rows.append(row)

    # (b) breakdown on OR — merged into the same schema via shared columns
    g = load_dataset("OR", scale)
    comp1 = None
    for k in GPU_COUNTS:
        r = run_multigpu_phase1(g, MultiGpuConfig(num_gpus=k))
        plans = [h.sync_plan for h in r.history]
        comp, comm = r.compute_seconds(), r.comm_seconds()
        comp1 = comp1 or comp
        rows.append(
            {
                "graph": f"OR breakdown @{k} GPU",
                "compute (ms)": round(1e3 * comp, 3),
                "comm (ms)": round(1e3 * comm, 3),
                "comm share": f"{100 * comm / (comp + comm):.1f}%",
                "compute scale": f"{comp1 / comp:.2f}x",
            }
        )
    columns = ["graph"] + [f"{k} GPU" for k in GPU_COUNTS] + [
        "compute (ms)", "comm (ms)", "comm share", "compute scale",
    ]
    return ExperimentOutput(
        experiment="fig10",
        title="Multi-GPU speedup (a) and OR compute/comm breakdown (b)",
        rows=rows,
        columns=columns,
        notes=[
            f"avg speedup at 8 GPUs: {np.mean(speedups_at_8):.2f}x "
            "(paper: 2.5x; higher here because the stand-ins' compute/"
            "comm ratio differs at laptop scale)",
            "paper (b): compute drops 4.4x from 1->8 GPUs, comm nearly "
            "constant (43% of runtime at 8 GPUs)",
            "sync bytes per run on OR @8 GPU (dense and sparse count a "
            "vertex once, halo once per device that ghosts it): dense "
            f"{sum(p.dense_bytes for p in plans) / 1e3:.0f} KB, sparse "
            f"{sum(p.sparse_bytes for p in plans) / 1e3:.0f} KB, adaptive "
            f"{sum(p.chosen_bytes for p in plans) / 1e3:.0f} KB, halo "
            f"{sum(p.halo_bytes for p in plans) / 1e3:.0f} KB",
        ],
    )

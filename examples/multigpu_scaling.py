"""Scaling GALA across simulated GPUs (paper Section 4.3 / Figure 10).

Partitions a graph's vertices over 1-8 simulated devices, runs the
partitioned BSP phase 1, and reports the computation/communication split,
the dense->sparse synchronisation switching behaviour, and the halo
exchange's volume against a full broadcast.

Run:  python examples/multigpu_scaling.py [scale]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import Phase1Config, run_phase1
from repro.graph.generators import load_dataset
from repro.multigpu import MultiGpuConfig, SyncMode, run_multigpu_phase1


def main(scale: float = 0.25) -> None:
    graph = load_dataset("OR", scale)
    print(f"graph: {graph.name} n={graph.n} m={graph.num_edges}\n")

    single = run_phase1(graph, Phase1Config(pruning="mg"))
    t1 = None
    print(f"{'GPUs':>4} | {'compute':>9} | {'comm':>9} | {'total':>9} | "
          f"{'speedup':>7} | sync modes")
    for k in [1, 2, 4, 8]:
        r = run_multigpu_phase1(graph, MultiGpuConfig(num_gpus=k))
        assert np.array_equal(r.communities, single.communities), (
            "multi-GPU run must be bit-identical to the single-GPU engine"
        )
        total = r.total_seconds()
        t1 = t1 or total
        modes = "".join(h.sync_plan.mode.value[0] for h in r.history)
        print(
            f"{k:>4} | {1e3 * r.compute_seconds():>7.2f}ms | "
            f"{1e3 * r.comm_seconds():>7.3f}ms | {1e3 * total:>7.2f}ms | "
            f"{t1 / total:>6.2f}x | {modes}"
        )
    print(
        "\nsync modes per iteration: d = dense AllReduce, s = sparse "
        "AllGather, whichever the communicator prices cheaper (dense "
        "early on few devices, when many vertices move). Computation "
        "scales with devices; communication does not — which is why the "
        "paper's Figure 10 speedup is sub-linear."
    )

    # fixed-mode comparison at 4 GPUs
    print("\ncommunication cost by sync policy (4 GPUs):")
    for mode in [SyncMode.DENSE, SyncMode.SPARSE, SyncMode.HALO, SyncMode.ADAPTIVE]:
        r = run_multigpu_phase1(
            graph, MultiGpuConfig(num_gpus=4, sync_mode=mode)
        )
        print(f"  {mode.value:>8}: {1e6 * r.comm_seconds():.0f}us")


def halo_exchange_demo(scale: float = 0.25) -> None:
    """Vite-style halo exchange: each device mirrors only its owned and
    ghost vertices and sends only the boundary movers, against a full
    broadcast of the assignment every iteration."""
    from repro.bench.reporting import format_table, trace_rows

    graph = load_dataset("OR", scale)
    print("\nVite-style halo exchange (SyncMode.HALO):")

    def run(k):
        return run_multigpu_phase1(
            graph, MultiGpuConfig(num_gpus=k, sync_mode=SyncMode.HALO)
        )

    print(format_table(trace_rows(run(2).history),
                       title="per-iteration trace (2 devices):"))
    print()
    print(f"{'GPUs':>4} | {'halo KB':>8} | {'broadcast KB':>12} | saved | comm")
    for k in [2, 4, 8]:
        r = run(k)
        halo = r.stats.bytes_sent / 1e3
        bcast = r.broadcast_bytes_equivalent / 1e3
        print(f"{k:>4} | {halo:>8.1f} | {bcast:>12.1f} | "
              f"{100 * (1 - halo / bcast):>4.0f}% | "
              f"{1e6 * r.comm_seconds():.0f}us")


if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    main(scale)
    halo_exchange_demo(scale)

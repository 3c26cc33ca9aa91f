"""Halo-exchange bench: the multi-GPU runtime synchronised by
``SyncMode.HALO`` (Vite-style model, paper ref [24])."""

import numpy as np

from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators import load_dataset
from repro.multigpu import MultiGpuConfig, SyncMode, run_multigpu_phase1


def test_distributed_halo(run_once, bench_scale):
    graph = load_dataset("OR", bench_scale)
    single = run_phase1(graph, Phase1Config(pruning="mg"))

    def run_ranks():
        return {
            k: run_multigpu_phase1(
                graph, MultiGpuConfig(num_gpus=k, sync_mode=SyncMode.HALO)
            )
            for k in (2, 4, 8)
        }

    results = run_once(run_ranks)

    for k, r in results.items():
        # Claim 1: bit-identical result at every rank count.
        np.testing.assert_array_equal(r.communities, single.communities)
        # Claim 2: halo volume beats the broadcast equivalent.
        assert r.stats.bytes_sent < r.broadcast_bytes_equivalent, k

    # Claim 3: halo traffic decays as the partition stabilises.
    series = results[4].stats.bytes_per_iteration
    assert sum(series[-2:]) < sum(series[:2])

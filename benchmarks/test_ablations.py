"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's own figures, these quantify the costs of three design
decisions so downstream users can see why the defaults are what they are:

1. MG's **global-minimum** D_V bound (Eq. 6) vs the tighter per-vertex
   neighbourhood minimum — how much pruning does the O(1) bound give up?
2. The **remove-self** gain convention (Grappolo/standard) vs the paper's
   verbatim Eq. 2 — does the convention change result quality?
3. **Adaptive** dense/sparse synchronisation vs either fixed policy.
"""

import numpy as np
import pytest

from repro.core.phase1 import Phase1Config, run_phase1
from repro.core.pruning.modularity_gain import ModularityGainPruning
from repro.graph.generators import load_dataset
from repro.multigpu import MultiGpuConfig, SyncMode, run_multigpu_phase1


@pytest.fixture(scope="module")
def graph(bench_scale=None):
    return load_dataset("LJ", 0.1)


def test_ablation_mg_bound_tightness(run_once, graph):
    """The neighbourhood bound prunes more per iteration, but both are
    lossless; the paper's global bound is the right default because its
    evaluation is O(1) per vertex instead of an O(E) pass."""

    def run_both():
        g = run_phase1(
            graph, Phase1Config(pruning=ModularityGainPruning(bound="global"))
        )
        n = run_phase1(
            graph,
            Phase1Config(pruning=ModularityGainPruning(bound="neighborhood")),
        )
        return g, n

    global_r, nbr_r = run_once(run_both)
    # identical results (both bounds are sound)
    np.testing.assert_array_equal(global_r.communities, nbr_r.communities)
    # neighbourhood bound prunes at least as much work
    assert nbr_r.processed_vertices <= global_r.processed_vertices
    saved = 1 - nbr_r.processed_vertices / global_r.processed_vertices
    # and the advantage is bounded — the global bound keeps most of it
    assert saved < 0.5


def test_ablation_remove_self_convention(run_once, graph):
    """Both gain conventions must land in the same quality neighbourhood;
    the convention is about correctness of the comparison, not quality."""

    def run_both():
        std = run_phase1(graph, Phase1Config(pruning="mg", remove_self=True))
        paper = run_phase1(graph, Phase1Config(pruning="mg", remove_self=False))
        return std, paper

    std, paper = run_once(run_both)
    assert abs(std.modularity - paper.modularity) < 0.05
    # MG must be lossless under either convention
    for rs in (True, False):
        base = run_phase1(graph, Phase1Config(pruning="none", remove_self=rs))
        mg = run_phase1(graph, Phase1Config(pruning="mg", remove_self=rs))
        np.testing.assert_array_equal(base.communities, mg.communities)


def test_ablation_sync_policy(run_once, graph):
    """Adaptive sync takes the cheaper priced mode every iteration, so it
    never loses to either fixed policy (paper 4.3)."""

    def run_modes():
        return {
            mode: run_multigpu_phase1(
                graph, MultiGpuConfig(num_gpus=4, sync_mode=mode)
            ).comm_seconds()
            for mode in [SyncMode.DENSE, SyncMode.SPARSE, SyncMode.ADAPTIVE]
        }

    times = run_once(run_modes)
    assert times[SyncMode.ADAPTIVE] <= min(
        times[SyncMode.DENSE], times[SyncMode.SPARSE]
    )


def test_ablation_patience(run_once, graph):
    """patience=1 reproduces the bare Algorithm-1 termination; the default
    patience rides out transient BSP dips and must never end lower."""

    def run_both():
        bare = run_phase1(graph, Phase1Config(pruning="mg", patience=1))
        tolerant = run_phase1(graph, Phase1Config(pruning="mg", patience=3))
        return bare, tolerant

    bare, tolerant = run_once(run_both)
    assert tolerant.modularity >= bare.modularity - 1e-12

"""Kernel-backend bench: the vectorized-vs-jit table + the auto choice.

Beyond regenerating the ``kernels`` experiment (which itself checks every
row bit-identical against ``vectorized``), this asserts that
``kernel="auto"``, ``"jit"`` and ``"vectorized"`` produce identical
phase-1 histories, and that auto runs the compiled kernel whenever the
``cc`` provider passed its probe.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import run_experiment
from repro.core.kernels.jit import get_runtime
from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.generators.lfr import LFRParams, lfr_graph


def test_kernels_experiment(run_once, bench_scale):
    out = run_once(run_experiment, "kernels", scale=bench_scale)
    by_key = {(r["graph"], r["backend"]): r for r in out.rows}
    graphs = {g for g, _ in by_key}
    expected = {"vectorized"} | ({"jit"} if get_runtime() is not None else set())
    for g in graphs:
        assert {b for gg, b in by_key if gg == g} == expected


def test_auto_jit_vectorized_identical_histories():
    graph, _ = lfr_graph(
        LFRParams(n=1000, mu=0.25, min_degree=6, max_degree=40,
                  min_community=30, max_community=120, seed=11)
    )
    rt = get_runtime()
    backends = ["vectorized", "auto"] + (["jit"] if rt is not None else [])
    runs = {
        b: run_phase1(graph, Phase1Config(pruning="mg", kernel=b))
        for b in backends
    }
    ref = runs["vectorized"]
    for b, r in runs.items():
        np.testing.assert_array_equal(r.communities, ref.communities)
        assert r.modularity == ref.modularity
        assert [(h.num_active, h.num_moved, h.modularity) for h in r.history] == [
            (h.num_active, h.num_moved, h.modularity) for h in ref.history
        ]
    auto_backend = "jit" if rt is not None and rt.provider == "cc" else "vectorized"
    assert {h.kernel_backend for h in runs["auto"].history} == {auto_backend}

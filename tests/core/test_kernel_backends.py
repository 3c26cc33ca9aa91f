"""Cross-backend equivalence tests for the host DecideAndMove kernels.

The non-negotiable contract: every host backend (vectorized / auto / jit)
returns a bit-identical :class:`DecideResult` to the reference
``decide_moves``, for any active set, any resolution, and both
``remove_self`` conventions — the shared sequential-summation convention
makes this hold exactly, not approximately. These tests drive the
backends both directly (over several BSP sweeps, so per-graph scratch is
reused across calls) and through ``run_phase1``. The ``jit`` rows need
the compiled library, whose only reference is the NumPy path; on a host
with no working C compiler they are absent, and ``auto`` is
``vectorized`` there.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import KERNEL_NAMES, VectorizedKernel, make_kernel
from repro.core.kernels import jit as jitmod
from repro.core.kernels.jit import JitKernel, get_runtime
from repro.core.kernels.vectorized import decide_moves
from repro.core.phase1 import Phase1Config, run_phase1
from repro.core.state import CommunityState
from repro.core.weights import delta_update
from repro.graph.generators import ring_of_cliques
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.generators.rmat import rmat_graph

BACKENDS = ["vectorized", "auto"]
GAMMAS = [0.5, 1.0, 2.0]

# the compiled backend joins the equivalence matrix whenever the compiled
# library works on the host (tests/core/test_jit_kernel.py holds its
# direct tests); on a host with no C compiler the matrix is the NumPy
# backends alone, which is all such a host runs
_compiled = get_runtime()
if _compiled is not None:
    BACKENDS.append("jit")


@pytest.fixture(scope="module", params=["ring", "lfr", "rmat"])
def graph(request):
    if request.param == "ring":
        return ring_of_cliques(8, 6)
    if request.param == "lfr":
        return lfr_graph(LFRParams(n=300, seed=1))[0]
    return rmat_graph(8, edge_factor=8.0, seed=3)


def _assert_results_equal(res, ref):
    """Bit-exact DecideResult comparison (floats compared with ==)."""
    np.testing.assert_array_equal(res.active_idx, ref.active_idx)
    np.testing.assert_array_equal(res.best_comm, ref.best_comm)
    np.testing.assert_array_equal(res.best_gain, ref.best_gain)
    np.testing.assert_array_equal(res.stay_gain, ref.stay_gain)
    np.testing.assert_array_equal(res.move, ref.move)


def _assert_histories_equal(r, ref):
    np.testing.assert_array_equal(r.communities, ref.communities)
    assert r.modularity == ref.modularity
    assert len(r.history) == len(ref.history)
    for ha, hb in zip(r.history, ref.history):
        assert ha.num_moved == hb.num_moved
        assert ha.modularity == hb.modularity


class TestDirectCallEquivalence:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("remove_self", [True, False])
    def test_bit_identical_through_cache_lifecycle(
        self, graph, gamma, remove_self
    ):
        """Drive every backend through 4 BSP sweeps with shrinking active
        sets, applying moves between sweeps — so the jit kernel's
        stamp-versioned accumulator is reused across calls, not just
        used once from a cold start."""
        kernels = {name: make_kernel(name) for name in BACKENDS}
        state = CommunityState.singletons(graph, resolution=gamma)
        rng = np.random.default_rng(7)
        for it in range(4):
            if it == 0:
                idx = np.arange(graph.n, dtype=np.int64)
            else:
                idx = np.flatnonzero(rng.random(graph.n) < 0.4)
            ref = decide_moves(state, idx, remove_self=remove_self)
            for k in kernels.values():
                _assert_results_equal(k(state, idx, remove_self), ref)
            next_comm = ref.next_comm(state.comm)
            moved = next_comm != state.comm
            prev = state.comm
            state.comm = next_comm
            delta_update(state, prev, moved)
            state.refresh_community_aggregates()

    def test_empty_active_set(self, graph):
        state = CommunityState.singletons(graph)
        idx = np.empty(0, dtype=np.int64)
        ref = decide_moves(state, idx)
        for name in BACKENDS:
            _assert_results_equal(make_kernel(name)(state, idx, True), ref)


class TestRunPhase1Equivalence:
    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("remove_self", [True, False])
    def test_histories_bit_identical(self, graph, gamma, remove_self):
        cfg = dict(
            pruning="mg", resolution=gamma, remove_self=remove_self
        )
        ref = run_phase1(graph, Phase1Config(kernel="vectorized", **cfg))
        for name in BACKENDS[1:]:
            r = run_phase1(graph, Phase1Config(kernel=name, **cfg))
            _assert_histories_equal(r, ref)


class TestDispatch:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            make_kernel("quantum")
        # the deleted backends are unknown names now
        for name in ("incremental", "bincount"):
            with pytest.raises(ValueError, match="kernel"):
                make_kernel(name)

    def test_auto_records_choice(self, graph):
        """auto runs one backend for the whole run, fixed by the platform:
        jit when a compile provider probed, else vectorized."""
        r = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        expected = "jit" if _compiled is not None else "vectorized"
        assert all(h.kernel_backend == expected for h in r.history)

    def test_auto_numpy_dispatch_without_jit(self, graph, monkeypatch):
        """With the jit backend switched off, auto is the NumPy reference."""
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        r = run_phase1(graph, Phase1Config(pruning="mg", kernel="auto"))
        assert all(h.kernel_backend == "vectorized" for h in r.history)
        ref = run_phase1(graph, Phase1Config(pruning="mg", kernel="vectorized"))
        _assert_histories_equal(r, ref)

    def test_auto_resolves_by_probe(self, graph, monkeypatch):
        """make_kernel("auto") is the jit kernel exactly when the compiled
        library passed its probe, and the vectorized kernel under
        REPRO_JIT_PROVIDER=off — with bit-identical run_phase1 histories
        either way."""
        cfg = dict(pruning="mg", kernel="auto")
        if _compiled is not None:
            k = make_kernel("auto")
            assert isinstance(k, JitKernel)
            assert k.runtime.provider == "cc"
        with_probe = run_phase1(graph, Phase1Config(**cfg))
        monkeypatch.setenv("REPRO_JIT_PROVIDER", "off")
        jitmod._reset_runtime_cache()
        try:
            assert isinstance(make_kernel("auto"), VectorizedKernel)
            without = run_phase1(graph, Phase1Config(**cfg))
        finally:
            jitmod._reset_runtime_cache()
        _assert_histories_equal(with_probe, without)

    def test_backend_classes_exported(self):
        assert KERNEL_NAMES == ("auto", "vectorized", "jit")
        assert isinstance(make_kernel("vectorized"), VectorizedKernel)
        if _compiled is not None:
            assert isinstance(make_kernel("jit"), JitKernel)

"""Leiden-style refinement (Traag, Waltman & Van Eck 2019 — the paper's
reference [54] and the origin of the RM pruning strategy).

Louvain's known defect is *badly connected communities*: phase 2 can glue
vertex sets together whose induced subgraph is disconnected (or connected
only through a vertex that later moves away). Leiden inserts a
**refinement phase** between local moving and contraction:

1. within each phase-1 community, restart from singletons;
2. merge each still-singleton vertex into a refined subcommunity of its
   phase-1 community, considering only *well-connected* candidates, and
   only merges with non-negative modularity gain;
3. contract the **refined** partition, but seed the next level's local
   moving with the *phase-1* communities (so the coarse level starts from
   the aggregated view of the unrefined partition).

The refinement guarantees every community in the final partition is
internally connected (tested), while matching or exceeding Louvain's
modularity in practice.

This implementation keeps GALA's machinery: the same gain arithmetic
(resolution-aware), the same coarsening, and the MG-pruned engine for the
local-moving phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels.vectorized import compiled_runtime
from repro.core.modularity import modularity
from repro.core.phase1 import Phase1Config, run_phase1
from repro.graph.coarsen import coarsen_graph, coarsen_runtime
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_generator


def refine_partition(
    graph: CSRGraph,
    communities: np.ndarray,
    resolution: float = 1.0,
    seed: SeedLike = 0,
    randomness: float = 0.0,
) -> np.ndarray:
    """One Leiden refinement pass.

    Returns a refined assignment in which every refined community is a
    subset of one input community. With ``randomness > 0``, merge targets
    are sampled among the positive-gain candidates with probability
    proportional to ``exp(gain / randomness)`` (the theta parameter of the
    Leiden paper); with 0 the best candidate is taken deterministically.
    """
    communities = np.asarray(communities, dtype=np.int64)
    rng = as_generator(seed)
    n = graph.n
    m = graph.total_weight
    if m == 0.0:
        return np.arange(n, dtype=np.int64)
    two_m = graph.two_m
    strength = graph.strength

    refined = np.arange(n, dtype=np.int64)
    ref_strength = strength.copy()  # D_V per refined community
    ref_size = np.ones(n, dtype=np.int64)
    comm_strength = np.bincount(communities, weights=strength, minlength=n)

    # Well-connectedness of a vertex within its community C (Leiden):
    # weight from v into C \ {v} must be at least
    # gamma * d(v) * (D_V(C) - d(v)) / 2m.
    row = np.repeat(np.arange(n), np.diff(graph.indptr))
    same_comm = communities[row] == communities[graph.indices]
    d_own = np.zeros(n)
    if same_comm.any():
        np.add.at(d_own, row[same_comm], graph.weights[same_comm])
    threshold = (
        resolution * strength * (comm_strength[communities] - strength) / two_m
    )
    well_connected = d_own >= threshold - 1e-12

    order = rng.permutation(n)
    for v in order:
        if ref_size[refined[v]] != 1 or not well_connected[v]:
            # only still-singleton, well-connected vertices may merge
            continue
        cv = communities[v]
        lo, hi = graph.indptr[v], graph.indptr[v + 1]
        nbrs = graph.indices[lo:hi]
        ws = graph.weights[lo:hi]
        inside = communities[nbrs] == cv
        if not inside.any():
            continue
        # weight from v to each refined subcommunity within cv
        targets: dict[int, float] = {}
        for u, w in zip(nbrs[inside], ws[inside]):
            r = int(refined[u])
            targets[r] = targets.get(r, 0.0) + float(w)
        own = int(refined[v])
        targets.pop(own, None)
        if not targets:
            continue
        sv = strength[v]
        cands: list[tuple[int, float]] = []
        for r, d in targets.items():
            # gain of merging singleton {v} into refined community r
            gain = (d - resolution * ref_strength[r] * sv / two_m) / m
            if gain >= 0.0:
                cands.append((r, gain))
        if not cands:
            continue
        if randomness > 0.0:
            gains = np.array([g for _, g in cands])
            logits = gains / randomness
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            choice = int(rng.choice(len(cands), p=probs))
        else:
            # deterministic: best gain, ties toward the smaller target id
            best = max(g for _, g in cands)
            choice = min(
                (i for i, (r, g) in enumerate(cands) if g == best),
                key=lambda i: cands[i][0],
            )
        target, _ = cands[choice]
        ref_strength[target] += ref_strength[own]
        ref_size[target] += ref_size[own]
        ref_strength[own] = 0.0
        ref_size[own] = 0
        refined[v] = target
    return refined


@dataclass
class LeidenResult:
    """Result of the Leiden pipeline."""

    communities: np.ndarray
    modularity: float
    num_levels: int
    #: modularity after each level
    level_modularity: list[float] = field(default_factory=list)


def leiden(
    graph: CSRGraph,
    resolution: float = 1.0,
    theta: float = 1e-6,
    max_rounds: int = 20,
    seed: SeedLike = 0,
    randomness: float = 0.0,
    phase1_config: Phase1Config | None = None,
) -> LeidenResult:
    """Full Leiden: local moving (MG-pruned GALA engine) + refinement +
    contraction on the refined partition."""
    rng = as_generator(seed)
    base_cfg = phase1_config or Phase1Config(pruning="mg", kernel="auto")
    current = graph
    #: current-level seed assignment for local moving (None = singletons)
    seed_comm: np.ndarray | None = None
    #: composition of mappings from the original graph to `current`
    to_current: np.ndarray | None = None
    best_flat = np.arange(graph.n, dtype=np.int64)
    best_q = -np.inf
    level_q: list[float] = []

    # the refined partition contracts the way louvain() contracts
    runtime = compiled_runtime(base_cfg.kernel)
    for _ in range(max_rounds):
        cfg = Phase1Config(
            pruning=base_cfg.pruning,
            weight_update=base_cfg.weight_update,
            remove_self=base_cfg.remove_self,
            resolution=resolution,
            theta=theta,
            patience=base_cfg.patience,
            max_iterations=base_cfg.max_iterations,
            seed=int(rng.integers(0, 2**31 - 1)),
            kernel=base_cfg.kernel,
        )
        p1 = run_phase1(current, cfg, initial_communities=seed_comm)
        refined = refine_partition(
            current, p1.communities, resolution=resolution,
            seed=rng, randomness=randomness,
        )
        with coarsen_runtime(runtime):
            coarse, mapping = coarsen_graph(current, refined)

        # flatten the *local-moving* partition to the original vertices
        flat = p1.communities
        if to_current is not None:
            flat = flat[to_current]
        q = modularity(graph, flat, resolution=resolution)
        level_q.append(q)
        if q > best_q:
            best_q = q
            best_flat = flat

        if coarse.n == current.n or (len(level_q) > 1 and q <= level_q[-2] + theta):
            break
        # seed the coarse level with the phase-1 communities: refined
        # subcommunity r belongs to the phase-1 community of its members
        rep = np.zeros(coarse.n, dtype=np.int64)
        rep[mapping] = p1.communities  # any member's community (consistent)
        # compact the ids into [0, coarse.n) so state arrays stay n-sized
        _, seed_comm = np.unique(rep, return_inverse=True)
        seed_comm = seed_comm.astype(np.int64)
        to_current = mapping if to_current is None else mapping[to_current]
        current = coarse

    # Final step: split any disconnected community into its components —
    # never decreases modularity and makes the connectivity guarantee hold
    # on the *reported* partition, not just per refinement level.
    final = split_disconnected_communities(graph, best_flat)
    final_q = modularity(graph, final, resolution=resolution)
    return LeidenResult(
        communities=final,
        modularity=float(final_q),
        num_levels=len(level_q),
        level_modularity=level_q,
    )


def community_connectivity(graph: CSRGraph, communities: np.ndarray) -> np.ndarray:
    """For each community id, whether its induced subgraph is connected.

    Singleton communities count as connected. The Leiden guarantee tested
    in ``tests/core/test_leiden.py``.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as cc

    communities = np.asarray(communities)
    ids = np.unique(communities)
    connected = np.ones(len(ids), dtype=bool)
    row = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    intra = communities[row] == communities[graph.indices]
    for k, c in enumerate(ids):
        members = np.flatnonzero(communities == c)
        if len(members) <= 1:
            continue
        local = {v: i for i, v in enumerate(members)}
        mask = intra & (communities[row] == c)
        rr = row[mask]
        uu = graph.indices[mask]
        mat = sp.coo_matrix(
            (
                np.ones(len(rr)),
                ([local[v] for v in rr], [local[u] for u in uu]),
            ),
            shape=(len(members), len(members)),
        )
        ncomp, _ = cc(mat, directed=False)
        connected[k] = ncomp == 1
    return connected


def split_disconnected_communities(
    graph: CSRGraph, communities: np.ndarray
) -> np.ndarray:
    """Split every disconnected community into its connected components.

    This never decreases modularity: the internal weight of each part is
    unchanged (there are no edges between components of a community), while
    the null-model penalty ``sum (D_V/2m)^2`` strictly decreases whenever a
    community actually splits. Applied as Leiden's final step, it turns the
    refinement phase's per-level connectivity into a guarantee on the
    *reported* partition.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components as cc

    communities = np.asarray(communities, dtype=np.int64)
    n = graph.n
    row = np.repeat(np.arange(n), np.diff(graph.indptr))
    intra = communities[row] == communities[graph.indices]
    mat = sp.coo_matrix(
        (np.ones(int(intra.sum())), (row[intra], graph.indices[intra])),
        shape=(n, n),
    )
    # components of the graph restricted to intra-community edges: each
    # component is, by construction, a connected subset of one community
    _, labels = cc(mat, directed=False)
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)

"""Algorithm-level invariant auditors.

Three audits, all producing :class:`~repro.analysis.findings.Finding`
records:

* :func:`validate_csr` — fully vectorised CSR well-formedness check
  (monotone aligned ``indptr``, in-range sorted duplicate-free rows,
  finite non-negative weights, multiset symmetry, weighted-degree parity
  with ``2m``). Unlike :meth:`CSRGraph.validate` it reports *all*
  violations as structured findings instead of raising on the first, and
  replaces the per-vertex Python loop with row-boundary masking so
  loaders can afford it on big graphs.
* :func:`audit_weight_update` — bit-compares the incrementally maintained
  community-weight arrays (``d_comm`` / ``comm_strength`` / ``comm_size``)
  against a from-scratch recomputation. This is the tripwire for the
  stale-community-weight class of parallel-Louvain bugs.
* :func:`audit_lemma5` — checks the MG pruning bound's zero
  false-negative guarantee (paper Lemma 5 / Eq. 6): no vertex the
  strategy pruned may have a positive-gain move according to the engine's
  full-set oracle decide.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

import numpy as np

from .findings import Finding

if TYPE_CHECKING:  # annotation-only; keeps the import graph acyclic
    from repro.core.state import CommunityState
    from repro.graph.csr import CSRGraph

_MAX_DETAIL = 8


def _f(kind: str, message: str, **kw: Any) -> Finding:
    return Finding(checker="invariant", kind=kind, message=message, **kw)


# ---------------------------------------------------------------------- #
# CSR well-formedness
# ---------------------------------------------------------------------- #

def validate_csr(graph: "CSRGraph", source: Optional[str] = None) -> List[Finding]:
    """Vectorised structural audit of a :class:`CSRGraph`.

    Returns a list of findings (empty when the graph is well-formed).
    ``source`` labels where the graph came from (a file path, a generator
    name) and lands in ``Finding.kernel``.
    """
    findings: List[Finding] = []
    indptr = np.asarray(graph.indptr)
    indices = np.asarray(graph.indices)
    weights = np.asarray(graph.weights)
    self_weight = np.asarray(graph.self_weight)

    def add(kind: str, message: str, **details: Any) -> None:
        findings.append(
            _f(kind, message, kernel=source, details=details or {})
        )

    # --- indptr shape / monotonicity / alignment --------------------- #
    if indptr.ndim != 1 or indptr.shape[0] < 1:
        add("csr-malformed", "indptr must be 1-D with >= 1 entries")
        return findings  # nothing else is decidable
    for name, arr in (
        ("indices", indices), ("weights", weights), ("self_weight", self_weight)
    ):
        if arr.ndim != 1:
            add("csr-malformed", f"{name} must be 1-D, got {arr.ndim}-D")
            return findings
    if indptr[0] != 0:
        add("csr-malformed", f"indptr[0] is {int(indptr[0])}, expected 0")
        return findings  # row boundaries are shifted; nothing else aligns
    diffs = np.diff(indptr)
    if diffs.size and bool((diffs < 0).any()):
        first = int(np.flatnonzero(diffs < 0)[0])
        add(
            "csr-malformed",
            f"indptr decreases at row {first}",
            row=first,
        )
        return findings  # row boundaries unusable beyond this point
    if indptr[-1] != indices.shape[0]:
        add(
            "csr-malformed",
            f"indptr[-1]={int(indptr[-1])} does not match "
            f"len(indices)={indices.shape[0]}",
        )
        return findings
    if indices.shape[0] != weights.shape[0]:
        add(
            "csr-malformed",
            f"indices ({indices.shape[0]}) and weights "
            f"({weights.shape[0]}) must align",
        )
        return findings
    n = indptr.shape[0] - 1
    if self_weight.shape[0] != n:
        add(
            "csr-malformed",
            f"self_weight has {self_weight.shape[0]} entries for {n} vertices",
        )
        return findings

    row_ids = np.repeat(np.arange(n, dtype=np.int64), diffs)

    # --- neighbour ids ------------------------------------------------ #
    oob = (indices < 0) | (indices >= n)
    if bool(oob.any()):
        where = np.flatnonzero(oob)
        add(
            "csr-index-range",
            f"{where.shape[0]} neighbour id(s) out of range [0, {n})",
            rows=row_ids[where[:_MAX_DETAIL]].tolist(),
            values=indices[where[:_MAX_DETAIL]].tolist(),
        )
        return findings  # range errors poison the remaining vector checks
    loops = indices == row_ids
    if bool(loops.any()):
        add(
            "csr-adjacency-loop",
            f"{int(loops.sum())} self-loop(s) stored in the adjacency; "
            "loops belong in self_weight",
            rows=row_ids[loops][:_MAX_DETAIL].tolist(),
        )

    # --- weights ------------------------------------------------------ #
    bad_w = ~np.isfinite(weights) | (weights < 0)
    if bool(bad_w.any()):
        where = np.flatnonzero(bad_w)
        add(
            "csr-bad-weight",
            f"{where.shape[0]} adjacency weight(s) negative or non-finite",
            rows=row_ids[where[:_MAX_DETAIL]].tolist(),
        )
    bad_sw = ~np.isfinite(self_weight) | (self_weight < 0)
    if bool(bad_sw.any()):
        add(
            "csr-bad-weight",
            f"{int(bad_sw.sum())} self-loop weight(s) negative or non-finite",
            rows=np.flatnonzero(bad_sw)[:_MAX_DETAIL].tolist(),
        )

    # --- rows sorted, duplicate-free (vectorised) --------------------- #
    if indices.shape[0] > 1:
        # adjacent pairs within the same row: mask out pairs that
        # straddle a row boundary
        same_row = row_ids[1:] == row_ids[:-1]
        step = indices[1:] - indices[:-1]
        unsorted = same_row & (step < 0)
        if bool(unsorted.any()):
            add(
                "csr-unsorted-row",
                f"{int(unsorted.sum())} adjacency pair(s) out of order",
                rows=row_ids[1:][unsorted][:_MAX_DETAIL].tolist(),
            )
        dupes = same_row & (step == 0)
        if bool(dupes.any()):
            add(
                "csr-duplicate-neighbour",
                f"{int(dupes.sum())} duplicate neighbour entr(ies)",
                rows=row_ids[1:][dupes][:_MAX_DETAIL].tolist(),
            )

    # --- symmetry (multiset of (u,v,w) == multiset of (v,u,w)) -------- #
    order_fwd = np.lexsort((indices, row_ids))
    order_rev = np.lexsort((row_ids, indices))
    symmetric = (
        np.array_equal(row_ids[order_fwd], indices[order_rev])
        and np.array_equal(indices[order_fwd], row_ids[order_rev])
    )
    if symmetric and weights.shape[0]:
        with np.errstate(invalid="ignore"):
            symmetric = bool(
                np.allclose(
                    weights[order_fwd], weights[order_rev], equal_nan=True
                )
            )
    if not symmetric:
        add(
            "csr-asymmetric",
            "adjacency is not symmetric: some (u, v, w) lacks its (v, u, w)",
        )

    # --- weighted-degree parity with 2m ------------------------------- #
    # strength.sum() must equal 2|E| (each non-loop edge contributes its
    # weight to both endpoint rows; each loop contributes 2w once). Only
    # meaningful when the weights themselves are finite.
    if not bool(bad_w.any()) and not bool(bad_sw.any()):
        deg_sum = float(weights.sum()) + 2.0 * float(self_weight.sum())
        two_m = float(graph.two_m)
        if not np.isclose(deg_sum, two_m, rtol=1e-9, atol=1e-9):
            add(
                "csr-weight-parity",
                f"sum of weighted degrees {deg_sum!r} != 2m {two_m!r}",
                degree_sum=deg_sum,
                two_m=two_m,
            )

    return findings


# ---------------------------------------------------------------------- #
# community-weight conservation
# ---------------------------------------------------------------------- #

def audit_weight_update(
    state: "CommunityState",
    iteration: Optional[int] = None,
    kernel: str = "weight-update",
) -> List[Finding]:
    """Bit-compare maintained community-weight arrays against recompute.

    Recomputes ``d_comm`` / ``comm_strength`` / ``comm_size`` from scratch
    on a copy of ``state`` and demands bitwise equality
    (``np.array_equal``) with the incrementally maintained arrays — the
    delta updater is expected to be exact, not merely close, because the
    kernels' gain comparisons are bit-sensitive.
    """
    findings: List[Finding] = []
    fresh = state.copy()
    fresh.recompute_d_comm()
    fresh.refresh_community_aggregates()
    for field_name in ("d_comm", "comm_strength", "comm_size"):
        maintained = getattr(state, field_name)
        expected = getattr(fresh, field_name)
        if np.array_equal(maintained, expected):
            continue
        diff = np.flatnonzero(maintained != expected)
        findings.append(
            _f(
                "weight-conservation",
                f"{field_name} diverged from recompute at "
                f"{diff.shape[0]} position(s)",
                kernel=kernel,
                launch=iteration,
                details={
                    "field": field_name,
                    "positions": diff[:_MAX_DETAIL].tolist(),
                    "maintained": np.asarray(maintained)[
                        diff[:_MAX_DETAIL]
                    ].tolist(),
                    "expected": np.asarray(expected)[
                        diff[:_MAX_DETAIL]
                    ].tolist(),
                },
            )
        )
    return findings


# ---------------------------------------------------------------------- #
# MG pruning Lemma 5
# ---------------------------------------------------------------------- #

def audit_lemma5(
    active: np.ndarray,
    oracle_moved: np.ndarray,
    iteration: Optional[int] = None,
    strategy: str = "mg",
) -> List[Finding]:
    """Audit the pruning bound's zero-false-negative guarantee.

    ``active`` is the strategy's boolean active mask for the iteration;
    ``oracle_moved`` the boolean would-move mask from a full-set oracle
    decide over *all* vertices. Lemma 5 promises every vertex with a
    positive-gain move stays active — so any pruned (inactive) vertex the
    oracle moves is a false negative and a bound violation.
    """
    active = np.asarray(active, dtype=bool)
    oracle_moved = np.asarray(oracle_moved, dtype=bool)
    false_neg = oracle_moved & ~active
    if not bool(false_neg.any()):
        return []
    vertices = np.flatnonzero(false_neg)
    return [
        _f(
            "lemma5-false-negative",
            f"{vertices.shape[0]} pruned vertex(es) had a positive-gain "
            f"move the {strategy} bound should have kept active",
            kernel=f"pruning:{strategy}",
            launch=iteration,
            details={
                "false_negatives": int(vertices.shape[0]),
                "vertices": vertices[:_MAX_DETAIL].tolist(),
            },
        )
    ]

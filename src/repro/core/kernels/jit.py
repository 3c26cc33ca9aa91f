"""Compiled Louvain hot paths (the ``jit`` backend).

The NumPy backends stream every step through vectorised temporaries; this
module compiles six entry points to native code:

* ``decide``     — the per-vertex DecideAndMove loop;
* ``delta``      — the Section 3.5 delta weight update over a mover list;
* ``aggregates`` — the ``comm_strength``/``comm_size`` rebuild;
* ``coarsen``    — the phase-2 contraction: a presence-array relabel, two
  stable counting sorts and one run-summing pass that writes the
  exact-size coarse CSR (see :mod:`repro.graph.coarsen`);
* ``mg_inactive`` — MG's global-bound Eq. 6 test for every vertex;
* ``internal_weights`` — the ``D_C(C)`` pass of the final modularity.

``decide`` and ``mg_inactive`` are OpenMP parallel loops over vertices
(each vertex's outputs depend only on the BSP snapshot, and each thread
owns its scratch slice), run on :attr:`JitRuntime.threads` threads on a
graph of at least :data:`PARALLEL_MIN_ENTRIES` adjacency entries; the others
accumulate floats in a pinned order and stay sequential. The thread
count is fixed per process (:func:`cap_threads`).

:class:`JitKernel` owns its scratch and output arrays and the aggregate
refresh writes into the state's own arrays, so a steady-state iteration
allocates no per-vertex buffer for either.

Two **providers** run the loops:

* ``cc``     — a bundled C translation of the loop functions below,
  compiled once with the system C compiler into a cached shared library
  and called via :mod:`ctypes`. No dependency beyond a working ``cc``.
* ``python`` — the identical loop functions, interpreted — far too slow
  for real graphs, but it lets the bit-exactness matrix validate the
  kernel *semantics* on machines with no compiler at all (it is never
  selected automatically).

Bit-exactness contract: the loops replicate the reference backend's
arithmetic exactly — per-``(v, C)`` weights are accumulated sequentially
in adjacency order (the shared summation convention of
:func:`repro.core.kernels.vectorized._aggregate_pairs`), gains are
evaluated with the same operation order Eq. 2 is coded with in
:func:`~repro.core.kernels.vectorized._evaluate_pairs`, ties break toward
the smaller community id, and the movement guards are verbatim; the
contraction sums each super-edge's run in ``np.add.reduceat``'s pairwise
order (:func:`_pairwise_sum`). The C build disables FP contraction
(``-ffp-contract=off``), so the compiled arithmetic is IEEE-ordered and
bit-identical to ``vectorized`` and the NumPy contraction — enforced by
the cross-backend matrix tests and by a compile-probe smoke comparison
(against the interpreted loops; for ``coarsen``, ``mg_inactive`` and
``internal_weights`` against the NumPy paths themselves, and for
``decide`` also at two forced threads against ``vectorized``) before a
provider is ever trusted.

Provider selection honours ``REPRO_JIT_PROVIDER`` (``auto``/``cc``/
``python``/``off``). :func:`get_runtime` probes and memoizes;
:func:`require_runtime` raises the friendly
:class:`~repro.errors.KernelUnavailableError` instead of returning None;
:func:`probed_provider` reports the memoized choice without probing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.kernels.vectorized import DecideResult, _trivial_result
from repro.core.state import CommunityState
from repro.errors import KernelUnavailableError
from repro.utils.arrays import compact_relabel

NEG_INF = float("-inf")
INF = float("inf")


# --------------------------------------------------------------------- #
# the loop functions (the interpreted provider; the C source mirrors them
# statement for statement)
# --------------------------------------------------------------------- #
def _decide_loop(
    active_idx,
    indptr,
    indices,
    weights,
    comm,
    strength,
    comm_strength,
    comm_size,
    gamma,
    m,
    two_m,
    remove_self,
    acc_w,
    acc_stamp,
    acc_comms,
    stamp,
    best_comm,
    best_gain,
    stay_gain,
    move,
    threads=1,
):
    """DecideAndMove for ``active_idx``; writes the four output arrays.

    ``acc_w``/``acc_stamp`` form a stamp-versioned per-community
    accumulator (O(1) reset per vertex); ``acc_comms`` lists the
    communities touched by the current vertex in first-encounter order.
    The vertex at position ``i`` runs under stamp ``stamp + i + 1``, and
    the call returns ``stamp + len(active_idx)``, so the scratch stays
    valid across calls. The C loop splits the positions over ``threads``
    threads, thread ``t`` using the ``t``-th ``n``-slice of
    ``acc_w``/``acc_stamp`` and the ``t``-th slice of ``acc_comms``; this
    interpreted loop is its one-thread case. Every output is indexed by
    position, so the result does not depend on the thread count.
    """
    n_act = active_idx.shape[0]
    for i in range(n_act):
        _decide_vertex(i, active_idx, indptr, indices, weights, comm,
                       strength, comm_strength, comm_size, gamma, m, two_m,
                       remove_self, acc_w, acc_stamp, acc_comms,
                       stamp + i + 1, best_comm, best_gain, stay_gain, move)
    return stamp + n_act


def _decide_vertex(i, active_idx, indptr, indices, weights, comm, strength,
                   comm_strength, comm_size, gamma, m, two_m, remove_self,
                   acc_w, acc_stamp, acc_comms, stamp,
                   best_comm, best_gain, stay_gain, move):
    """The body of :func:`_decide_loop` for position ``i``."""
    v = active_idx[i]
    cur = comm[v]
    s_v = strength[v]
    k = 0
    for e in range(indptr[v], indptr[v + 1]):
        c = comm[indices[e]]
        w = weights[e]
        if acc_stamp[c] == stamp:
            acc_w[c] += w
        else:
            acc_stamp[c] = stamp
            acc_w[c] = w
            acc_comms[k] = c
            k += 1
    cur_total = comm_strength[cur]
    if remove_self:
        cur_total = cur_total - s_v
    sg = (0.0 - gamma * cur_total * s_v / two_m) / m
    bc = cur
    bg = NEG_INF
    found = False
    for j in range(k):
        c = acc_comms[j]
        tot = comm_strength[c]
        if remove_self and c == cur:
            tot = tot - s_v
        g = (acc_w[c] - gamma * tot * s_v / two_m) / m
        if c == cur:
            sg = g
        elif (not found) or g > bg or (g == bg and c < bc):
            found = True
            bg = g
            bc = c
    if not found:
        bc = cur
        bg = NEG_INF
    mv = found and bg > sg
    if mv and comm_size[cur] == 1 and comm_size[bc] == 1 and bc > cur:
        mv = False
    best_comm[i] = bc
    best_gain[i] = bg
    stay_gain[i] = sg
    move[i] = mv


def _mg_inactive_loop(strength, self_weight, d_comm, comm, comm_strength,
                      comm_size, gamma, two_m, remove_self, threshold, out,
                      threads=1):
    """MG's global-bound Eq. 6 test for every vertex into ``out``, with
    ``min_C D_V(C)`` over the non-empty communities found first — the
    operations and their order of
    :meth:`~repro.core.pruning.modularity_gain.ModularityGainPruning.inactive_mask`
    (``threshold`` is its ``slack * two_m``). The C loop splits the
    vertices over ``threads`` threads; each writes only its own
    ``out[v]``."""
    n = comm.shape[0]
    # an empty community's total is lifted to +inf (branch-free in C)
    min_total = INF
    for c in range(n):
        total = comm_strength[c] + (0.0 if comm_size[c] > 0 else INF)
        min_total = total if total < min_total else min_total
    if min_total == INF:
        min_total = 0.0
    for v in range(n):
        s_v = strength[v]
        free = s_v - 2.0 * self_weight[v]
        correction = s_v if remove_self else 0.0
        lhs = (2.0 * d_comm[v] - free
               + gamma * (min_total - comm_strength[comm[v]] + correction)
               * s_v / two_m)
        out[v] = (lhs >= threshold) | (free == 0.0)


def _internal_weights_loop(indptr, indices, weights, self_weight, comm,
                           internal):
    """``D_C(C)`` added into the zeroed ``internal`` in ``np.add.at``'s
    order: the intra-community entries in row order, then ``2 w_loop`` of
    every vertex in vertex order (see
    :func:`repro.core.modularity.community_internal_weights`)."""
    n = comm.shape[0]
    for u in range(n):
        cu = comm[u]
        for e in range(indptr[u], indptr[u + 1]):
            if comm[indices[e]] == cu:
                internal[cu] += weights[e]
    for v in range(n):
        internal[comm[v]] += 2.0 * self_weight[v]


def _delta_loop(movers, indptr, indices, weights, comm, prev_comm, moved, d_comm):
    """Section 3.5 delta update over the rows of ``movers``.

    Each mover's own entry is rebuilt from zero over its row; its unmoved
    neighbours get the +/- deltas. Moved and unmoved vertices receive
    contributions to disjoint ``d_comm`` entries, so fusing the two
    halves into one mover-major, adjacency-ordered pass preserves the
    reference path's per-element summation order exactly — and any split
    of an ascending mover list into consecutive calls gives the same bits.
    """
    for i in range(movers.shape[0]):
        u = movers[i]
        cu = comm[u]
        pu = prev_comm[u]
        du = 0.0
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            w = weights[e]
            cv = comm[v]
            joined = cu == cv
            if joined:
                du += w
            if not moved[v]:
                left = pu == cv
                if joined != left:
                    if joined:
                        d_comm[v] += w
                    else:
                        d_comm[v] -= w
        d_comm[u] = du


def _aggregates_loop(comm, strength, comm_strength, comm_size):
    """``comm_strength``/``comm_size`` rebuild into caller-owned buffers
    (``np.bincount`` summation order, so bit-identical to the reference)."""
    n = comm.shape[0]
    for c in range(n):
        comm_strength[c] = 0.0
        comm_size[c] = 0
    for v in range(n):
        c = comm[v]
        comm_strength[c] += strength[v]
        comm_size[c] += 1


def _pairwise_sum(a, lo, n):
    """Sum of ``a[lo:lo + n]`` in numpy's ``pairwise_sum`` order: below 8
    elements sequentially from ``-0.0``; up to 128 in 8 strided
    accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then
    the leftover tail in sequence; above 128 split at ``n/2`` rounded down
    to a multiple of 8. ``np.add.reduceat`` sums a run as
    ``run[0] + _pairwise_sum(run[1:])``."""
    if n < 8:
        res = -0.0
        for i in range(n):
            res += a[lo + i]
        return res
    if n <= 128:
        r = [a[lo + j] for j in range(8)]
        i = 8
        while i < n - (n % 8):
            for j in range(8):
                r[j] += a[lo + i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        while i < n:
            res += a[lo + i]
            i += 1
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


def _relabel_loop(comm, present, mapping):
    """Compact relabel of ids in ``[0, n)`` through a presence array, in
    ascending id order like ``np.unique``; returns ``k``, or -1 when an id
    lies outside ``[0, n)`` (the caller then relabels with ``np.unique``)."""
    n = comm.shape[0]
    for c in range(n):
        present[c] = 0
    for v in range(n):
        c = comm[v]
        if c < 0 or c >= n:
            return -1
        present[c] = 1
    k = 0
    for c in range(n):
        p = present[c]
        present[c] = k
        k += p
    for v in range(n):
        mapping[v] = present[comm[v]]
    return k


def _coarsen_sort_loop(indptr, indices, weights, fine_self, mapping, k,
                       self_weight, dst_end, src_end, last,
                       a_src, a_w, b_dst, b_w, coarse_indptr):
    """Route every adjacency entry onto super-vertices and sort the
    inter-community ones by ``(super-source, super-destination)``.

    Intra entries add ``0.5 * w`` to ``self_weight`` in CSR order, then
    the fine self-loops follow in vertex order (``np.bincount``'s order
    over the NumPy path's concatenation). The rest go through two stable
    counting sorts — by destination into ``a_*``, then by source into
    ``b_*`` — which is exactly ``np.lexsort((dst, src))``'s order.
    ``coarse_indptr`` receives the row offsets of the coalesced entries
    and ``src_end[s]`` the end of row ``s``'s sorted entries in ``b_*``.
    Returns the number of coalesced entries.
    """
    n = indptr.shape[0] - 1
    coarse_indptr[0] = 0
    for c in range(k):
        self_weight[c] = 0.0
        dst_end[c] = 0
        src_end[c] = 0
        last[c] = -1
        coarse_indptr[c + 1] = 0
    for u in range(n):
        cs = mapping[u]
        for e in range(indptr[u], indptr[u + 1]):
            cd = mapping[indices[e]]
            if cs == cd:
                self_weight[cs] += weights[e] * 0.5
            else:
                dst_end[cd] += 1
                src_end[cs] += 1
    for v in range(n):
        self_weight[mapping[v]] += fine_self[v]
    # bucket starts; each scatter advances a bucket's start to its end
    td = 0
    ts = 0
    for c in range(k):
        t = dst_end[c]
        dst_end[c] = td
        td += t
        t = src_end[c]
        src_end[c] = ts
        ts += t
    for u in range(n):
        cs = mapping[u]
        for e in range(indptr[u], indptr[u + 1]):
            cd = mapping[indices[e]]
            if cs != cd:
                p = dst_end[cd]
                dst_end[cd] = p + 1
                a_src[p] = cs
                a_w[p] = weights[e]
    # destinations arrive in ascending order per source, so a run starts
    # wherever a source sees a new destination
    i = 0
    for d in range(k):
        while i < dst_end[d]:
            s = a_src[i]
            p = src_end[s]
            src_end[s] = p + 1
            b_dst[p] = d
            b_w[p] = a_w[i]
            if last[s] != d:
                last[s] = d
                coarse_indptr[s + 1] += 1
            i += 1
    for c in range(k):
        coarse_indptr[c + 1] += coarse_indptr[c]
    return coarse_indptr[k]


def _coarsen_sum_loop(k, src_end, b_dst, b_w, out_idx, out_w):
    """Sum each ``(source, destination)`` run of the sorted entries into
    the coarse CSR, in ``np.add.reduceat``'s order."""
    r = 0
    i = 0
    for s in range(k):
        end = src_end[s]
        while i < end:
            j = i + 1
            while j < end and b_dst[j] == b_dst[i]:
                j += 1
            out_idx[r] = b_dst[i]
            out_w[r] = b_w[i] + _pairwise_sum(b_w, i + 1, j - i - 1)
            r += 1
            i = j


def _coarsen_with(relabel, sort, sum_runs) -> Callable:
    """The provider-independent ``coarsen`` entry point over one
    provider's three loops: scratch and exact-size outputs are allocated
    here, the loops only fill them.

    ``coarsen(indptr, indices, weights, self_weight, communities)``
    returns the coarse ``(indptr, indices, weights, self_weight)`` and
    the fine-to-coarse ``mapping``, byte-identical to the NumPy
    :func:`repro.graph.coarsen.coarsen_graph`.
    """

    def coarsen(indptr, indices, weights, self_weight, communities):
        n = indptr.shape[0] - 1
        k = -1
        if np.can_cast(communities.dtype, np.int64):
            mapping = np.empty(n, dtype=np.int64)
            k = relabel(np.ascontiguousarray(communities, dtype=np.int64),
                        np.empty(n, dtype=np.int64), mapping)
        if k < 0:
            mapping, k = compact_relabel(communities)
        nnz = indices.shape[0]
        coarse_self = np.empty(k)
        dst_end = np.empty(k, dtype=np.int64)
        src_end = np.empty(k, dtype=np.int64)
        last = np.empty(k, dtype=np.int64)
        coarse_indptr = np.empty(k + 1, dtype=np.int64)
        # sized for every entry; only the inter-community prefix is written
        a_src = np.empty(nnz, dtype=np.int64)
        a_w = np.empty(nnz)
        b_dst = np.empty(nnz, dtype=np.int64)
        b_w = np.empty(nnz)
        r = sort(indptr, indices, weights, self_weight, mapping, k,
                 coarse_self, dst_end, src_end, last,
                 a_src, a_w, b_dst, b_w, coarse_indptr)
        del a_src, a_w
        coarse_indices = np.empty(r, dtype=np.int64)
        coarse_weights = np.empty(r)
        sum_runs(k, src_end, b_dst, b_w, coarse_indices, coarse_weights)
        return coarse_indptr, coarse_indices, coarse_weights, coarse_self, mapping

    return coarsen


# --------------------------------------------------------------------- #
# the C translation (provider "cc")
# --------------------------------------------------------------------- #
#: mirrors the loop functions above statement for statement; compiled with
#: -ffp-contract=off so the float arithmetic is IEEE-ordered like NumPy's
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#ifdef _OPENMP
#include <omp.h>
#define THREAD_ID() ((int64_t) omp_get_thread_num())
#else
#define THREAD_ID() ((int64_t) 0)
#endif

/* vertices a decide thread takes per grab of the dynamic schedule */
#define DECIDE_CHUNK 64

int64_t repro_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

static void decide_vertex(
    int64_t i, const int64_t *active_idx,
    const int64_t *indptr, const int64_t *indices, const double *weights,
    const int64_t *comm, const double *strength,
    const double *comm_strength, const int64_t *comm_size,
    double gamma_, double m, double two_m, int64_t remove_self,
    double *acc_w, int64_t *acc_stamp, int64_t *acc_comms, int64_t stamp,
    int64_t *best_comm, double *best_gain, double *stay_gain, uint8_t *move)
{
    int64_t v = active_idx[i];
    int64_t cur = comm[v];
    double s_v = strength[v];
    int64_t k = 0;
    for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
        int64_t c = comm[indices[e]];
        double w = weights[e];
        if (acc_stamp[c] == stamp) {
            acc_w[c] += w;
        } else {
            acc_stamp[c] = stamp;
            acc_w[c] = w;
            acc_comms[k++] = c;
        }
    }
    double cur_total = comm_strength[cur];
    if (remove_self) cur_total = cur_total - s_v;
    double sg = (0.0 - gamma_ * cur_total * s_v / two_m) / m;
    int64_t bc = cur;
    double bg = -INFINITY;
    int found = 0;
    for (int64_t j = 0; j < k; j++) {
        int64_t c = acc_comms[j];
        double tot = comm_strength[c];
        if (remove_self && c == cur) tot = tot - s_v;
        double g = (acc_w[c] - gamma_ * tot * s_v / two_m) / m;
        if (c == cur) {
            sg = g;
        } else if (!found || g > bg || (g == bg && c < bc)) {
            found = 1;
            bg = g;
            bc = c;
        }
    }
    if (!found) { bc = cur; bg = -INFINITY; }
    int mv = found && bg > sg;
    if (mv && comm_size[cur] == 1 && comm_size[bc] == 1 && bc > cur)
        mv = 0;
    best_comm[i] = bc;
    best_gain[i] = bg;
    stay_gain[i] = sg;
    move[i] = (uint8_t) mv;
}

/* thread t uses acc_w/acc_stamp[t*n ...] and acc_comms[t*comms_stride ...] */
int64_t repro_decide(
    int64_t n_act, const int64_t *active_idx,
    const int64_t *indptr, const int64_t *indices, const double *weights,
    const int64_t *comm, const double *strength,
    const double *comm_strength, const int64_t *comm_size,
    double gamma_, double m, double two_m, int64_t remove_self,
    double *acc_w, int64_t *acc_stamp, int64_t *acc_comms, int64_t stamp,
    int64_t *best_comm, double *best_gain, double *stay_gain, uint8_t *move,
    int64_t threads, int64_t n, int64_t comms_stride)
{
    if (threads > 1) {
#ifdef _OPENMP
        #pragma omp parallel for schedule(dynamic, DECIDE_CHUNK) num_threads(threads)
#endif
        for (int64_t i = 0; i < n_act; i++) {
            int64_t t = THREAD_ID();
            decide_vertex(i, active_idx, indptr, indices, weights, comm,
                          strength, comm_strength, comm_size,
                          gamma_, m, two_m, remove_self,
                          acc_w + t * n, acc_stamp + t * n,
                          acc_comms + t * comms_stride, stamp + i + 1,
                          best_comm, best_gain, stay_gain, move);
        }
    } else {
        for (int64_t i = 0; i < n_act; i++)
            decide_vertex(i, active_idx, indptr, indices, weights, comm,
                          strength, comm_strength, comm_size,
                          gamma_, m, two_m, remove_self,
                          acc_w, acc_stamp, acc_comms, stamp + i + 1,
                          best_comm, best_gain, stay_gain, move);
    }
    return stamp + n_act;
}

static void mg_vertex(
    int64_t v, const double *strength, const double *self_weight,
    const double *d_comm, const int64_t *comm, const double *comm_strength,
    double gamma_, double two_m, int64_t remove_self, double threshold,
    double min_total, uint8_t *out)
{
    double s_v = strength[v];
    double free_ = s_v - 2.0 * self_weight[v];
    double correction = remove_self ? s_v : 0.0;
    double lhs = 2.0 * d_comm[v] - free_
               + gamma_ * (min_total - comm_strength[comm[v]] + correction)
               * s_v / two_m;
    out[v] = (uint8_t) ((lhs >= threshold) | (free_ == 0.0));
}

void repro_mg_inactive(
    int64_t n, const double *strength, const double *self_weight,
    const double *d_comm, const int64_t *comm, const double *comm_strength,
    const int64_t *comm_size, double gamma_, double two_m,
    int64_t remove_self, double threshold, uint8_t *out, int64_t threads)
{
    /* branch-free: an empty community's total is lifted to +inf */
    const double lift[2] = {INFINITY, 0.0};
    double min_total = INFINITY;
    for (int64_t c = 0; c < n; c++) {
        double total = comm_strength[c] + lift[comm_size[c] > 0];
        min_total = total < min_total ? total : min_total;
    }
    if (min_total == INFINITY) min_total = 0.0;
    if (threads > 1) {
#ifdef _OPENMP
        #pragma omp parallel for schedule(static) num_threads(threads)
#endif
        for (int64_t v = 0; v < n; v++)
            mg_vertex(v, strength, self_weight, d_comm, comm, comm_strength,
                      gamma_, two_m, remove_self, threshold, min_total, out);
    } else {
        for (int64_t v = 0; v < n; v++)
            mg_vertex(v, strength, self_weight, d_comm, comm, comm_strength,
                      gamma_, two_m, remove_self, threshold, min_total, out);
    }
}

void repro_internal_weights(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    const double *weights, const double *self_weight, const int64_t *comm,
    double *internal)
{
    for (int64_t u = 0; u < n; u++) {
        int64_t cu = comm[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++)
            if (comm[indices[e]] == cu) internal[cu] += weights[e];
    }
    for (int64_t v = 0; v < n; v++) internal[comm[v]] += 2.0 * self_weight[v];
}

void repro_delta(
    int64_t n_movers, const int64_t *movers,
    const int64_t *indptr, const int64_t *indices, const double *weights,
    const int64_t *comm, const int64_t *prev_comm, const uint8_t *moved,
    double *d_comm)
{
    for (int64_t i = 0; i < n_movers; i++) {
        int64_t u = movers[i];
        int64_t cu = comm[u];
        int64_t pu = prev_comm[u];
        double du = 0.0;
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t v = indices[e];
            double w = weights[e];
            int64_t cv = comm[v];
            int joined = (cu == cv);
            if (joined) du += w;
            if (!moved[v]) {
                int left = (pu == cv);
                if (joined != left) {
                    if (joined) d_comm[v] += w;
                    else d_comm[v] -= w;
                }
            }
        }
        d_comm[u] = du;
    }
}

void repro_aggregates(
    int64_t n, const int64_t *comm, const double *strength,
    double *comm_strength, int64_t *comm_size)
{
    for (int64_t c = 0; c < n; c++) {
        comm_strength[c] = 0.0;
        comm_size[c] = 0;
    }
    for (int64_t v = 0; v < n; v++) {
        int64_t c = comm[v];
        comm_strength[c] += strength[v];
        comm_size[c] += 1;
    }
}

static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

int64_t repro_relabel(
    int64_t n, const int64_t *comm, int64_t *present, int64_t *mapping)
{
    for (int64_t c = 0; c < n; c++) present[c] = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t c = comm[v];
        if (c < 0 || c >= n) return -1;
        present[c] = 1;
    }
    int64_t k = 0;
    for (int64_t c = 0; c < n; c++) {
        int64_t p = present[c];
        present[c] = k;
        k += p;
    }
    for (int64_t v = 0; v < n; v++) mapping[v] = present[comm[v]];
    return k;
}

int64_t repro_coarsen_sort(
    int64_t n, const int64_t *indptr, const int64_t *indices,
    const double *weights, const double *fine_self, const int64_t *mapping,
    int64_t k, double *self_weight, int64_t *dst_end, int64_t *src_end,
    int64_t *last, int64_t *a_src, double *a_w, int64_t *b_dst, double *b_w,
    int64_t *coarse_indptr)
{
    coarse_indptr[0] = 0;
    for (int64_t c = 0; c < k; c++) {
        self_weight[c] = 0.0;
        dst_end[c] = 0;
        src_end[c] = 0;
        last[c] = -1;
        coarse_indptr[c + 1] = 0;
    }
    for (int64_t u = 0; u < n; u++) {
        int64_t cs = mapping[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t cd = mapping[indices[e]];
            if (cs == cd) {
                self_weight[cs] += weights[e] * 0.5;
            } else {
                dst_end[cd] += 1;
                src_end[cs] += 1;
            }
        }
    }
    for (int64_t v = 0; v < n; v++) self_weight[mapping[v]] += fine_self[v];
    int64_t td = 0, ts = 0;
    for (int64_t c = 0; c < k; c++) {
        int64_t t = dst_end[c];
        dst_end[c] = td;
        td += t;
        t = src_end[c];
        src_end[c] = ts;
        ts += t;
    }
    for (int64_t u = 0; u < n; u++) {
        int64_t cs = mapping[u];
        for (int64_t e = indptr[u]; e < indptr[u + 1]; e++) {
            int64_t cd = mapping[indices[e]];
            if (cs != cd) {
                int64_t p = dst_end[cd]++;
                a_src[p] = cs;
                a_w[p] = weights[e];
            }
        }
    }
    int64_t i = 0;
    for (int64_t d = 0; d < k; d++) {
        for (; i < dst_end[d]; i++) {
            int64_t s = a_src[i];
            int64_t p = src_end[s]++;
            b_dst[p] = d;
            b_w[p] = a_w[i];
            if (last[s] != d) {
                last[s] = d;
                coarse_indptr[s + 1] += 1;
            }
        }
    }
    for (int64_t c = 0; c < k; c++) coarse_indptr[c + 1] += coarse_indptr[c];
    return coarse_indptr[k];
}

void repro_coarsen_sum(
    int64_t k, const int64_t *src_end, const int64_t *b_dst,
    const double *b_w, int64_t *out_idx, double *out_w)
{
    int64_t r = 0, i = 0;
    for (int64_t s = 0; s < k; s++) {
        int64_t end = src_end[s];
        while (i < end) {
            int64_t j = i + 1;
            while (j < end && b_dst[j] == b_dst[i]) j++;
            out_idx[r] = b_dst[i];
            out_w[r] = b_w[i] + pairwise_sum(b_w + i + 1, j - i - 1);
            r++;
            i = j;
        }
    }
}
"""

#: -O1: the loops are memory-bound and run as fast as at -O2 (measured on
#: decide, delta and coarsen), while the library compiles in about 60% of
#: the time — a cost every fresh cache pays before the first detect
_CFLAGS = ["-O1", "-fPIC", "-shared", "-ffp-contract=off"]


def _cache_dir() -> str:
    return os.environ.get(
        "REPRO_JIT_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-jit"),
    )


#: OpenMP for the threaded loops; a compiler that rejects it builds the
#: library without (every loop then runs on one thread)
_OPENMP_FLAGS = ["-fopenmp"]


def _build_library(cc: str, flags: list) -> str:
    """Compile (or reuse) the cached library built with ``flags``;
    returns its path."""
    tag = hashlib.sha256(
        (_C_SOURCE + " ".join(flags) + cc).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"reprojit_{tag}.so")
    if not os.path.exists(lib_path):
        os.makedirs(cache, exist_ok=True)
        src_path = os.path.join(cache, f"reprojit_{tag}.c")
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        # build to a temp name + atomic rename so concurrent processes
        # never load a half-written library
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".so")
        os.close(fd)
        try:
            subprocess.run(
                [cc, *flags, "-o", tmp, src_path],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):  # compile failed before the rename
                os.unlink(tmp)
    return lib_path


def _compile_c_library() -> ctypes.CDLL:
    """Compile (or reuse) the cached shared library for provider ``cc``,
    with OpenMP when the compiler (and the loader) accept it."""
    cc = os.environ.get("CC", "cc")
    try:
        lib = ctypes.CDLL(_build_library(cc, _CFLAGS + _OPENMP_FLAGS))
    except (OSError, subprocess.CalledProcessError):
        lib = ctypes.CDLL(_build_library(cc, _CFLAGS))

    ndp = np.ctypeslib.ndpointer
    i64 = dict(dtype=np.int64, ndim=1, flags="C_CONTIGUOUS")
    f64 = dict(dtype=np.float64, ndim=1, flags="C_CONTIGUOUS")
    b8 = dict(dtype=np.bool_, ndim=1, flags="C_CONTIGUOUS")
    c_i64 = ctypes.c_int64
    c_f64 = ctypes.c_double

    lib.repro_decide.restype = c_i64
    lib.repro_decide.argtypes = [
        c_i64, ndp(**i64),                       # n_act, active_idx
        ndp(**i64), ndp(**i64), ndp(**f64),      # indptr, indices, weights
        ndp(**i64), ndp(**f64),                  # comm, strength
        ndp(**f64), ndp(**i64),                  # comm_strength, comm_size
        c_f64, c_f64, c_f64, c_i64,              # gamma, m, two_m, remove_self
        ndp(**f64), ndp(**i64), ndp(**i64), c_i64,  # acc_w/stamp/comms, stamp
        ndp(**i64), ndp(**f64), ndp(**f64), ndp(**b8),  # outputs
        c_i64, c_i64, c_i64,                     # threads, n, comms_stride
    ]
    lib.repro_mg_inactive.restype = None
    lib.repro_mg_inactive.argtypes = [
        c_i64, ndp(**f64), ndp(**f64),           # n, strength, self_weight
        ndp(**f64), ndp(**i64), ndp(**f64),      # d_comm, comm, comm_strength
        ndp(**i64), c_f64, c_f64, c_i64,         # comm_size, gamma, two_m, remove_self
        c_f64, ndp(**b8), c_i64,                 # threshold, out, threads
    ]
    lib.repro_internal_weights.restype = None
    lib.repro_internal_weights.argtypes = [
        c_i64, ndp(**i64), ndp(**i64), ndp(**f64),  # n, indptr, indices, weights
        ndp(**f64), ndp(**i64), ndp(**f64),      # self_weight, comm, internal
    ]
    lib.repro_openmp.restype = c_i64
    lib.repro_openmp.argtypes = []
    lib.repro_delta.restype = None
    lib.repro_delta.argtypes = [
        c_i64, ndp(**i64),                       # n_movers, movers
        ndp(**i64), ndp(**i64), ndp(**f64),
        ndp(**i64), ndp(**i64), ndp(**b8),
        ndp(**f64),
    ]
    lib.repro_aggregates.restype = None
    lib.repro_aggregates.argtypes = [
        c_i64, ndp(**i64), ndp(**f64), ndp(**f64), ndp(**i64)
    ]
    lib.repro_relabel.restype = c_i64
    lib.repro_relabel.argtypes = [c_i64, ndp(**i64), ndp(**i64), ndp(**i64)]
    lib.repro_coarsen_sort.restype = c_i64
    lib.repro_coarsen_sort.argtypes = [
        c_i64, ndp(**i64), ndp(**i64), ndp(**f64),  # n, indptr, indices, weights
        ndp(**f64), ndp(**i64), c_i64,           # fine_self, mapping, k
        ndp(**f64), ndp(**i64), ndp(**i64), ndp(**i64),  # self_weight, dst/src_end, last
        ndp(**i64), ndp(**f64), ndp(**i64), ndp(**f64),  # a_src, a_w, b_dst, b_w
        ndp(**i64),                              # coarse_indptr
    ]
    lib.repro_coarsen_sum.restype = None
    lib.repro_coarsen_sum.argtypes = [
        c_i64, ndp(**i64), ndp(**i64), ndp(**f64), ndp(**i64), ndp(**f64)
    ]
    return lib


# --------------------------------------------------------------------- #
# runtimes
# --------------------------------------------------------------------- #
@dataclass
class JitRuntime:
    """One compiled (or interpreted) implementation of the loops.

    ``decide``/``delta``/``aggregates``/``mg_inactive``/``internal_weights``
    share the loop functions' NumPy signatures regardless of provider, and
    ``coarsen`` is the phase-2 contraction built by :func:`_coarsen_with`;
    ``compile_s`` is the one-off cost the probe measured: building the
    provider (a compile, or the load of a cached library) plus the smoke
    comparison, so it is never 0.0 once probed. The first kernel on this
    runtime to report a trace takes it (``compile_charged``), so a
    process charges it to one iteration trace and manifest. ``openmp``
    says whether the library was built with OpenMP; ``threads`` is how
    many threads ``decide`` and ``mg_inactive`` may use in this process
    (see :func:`cap_threads`; always 1 without OpenMP).
    """

    provider: str
    compile_s: float
    decide: Callable
    delta: Callable
    aggregates: Callable
    coarsen: Callable
    mg_inactive: Callable
    internal_weights: Callable
    openmp: bool = False
    threads: int = 1
    compile_charged: bool = False


def _python_runtime() -> JitRuntime:
    return JitRuntime(
        provider="python",
        compile_s=0.0,
        decide=_decide_loop,
        delta=_delta_loop,
        aggregates=_aggregates_loop,
        coarsen=_coarsen_with(_relabel_loop, _coarsen_sort_loop,
                              _coarsen_sum_loop),
        mg_inactive=_mg_inactive_loop,
        internal_weights=_internal_weights_loop,
    )


def _cc_runtime() -> JitRuntime:
    lib = _compile_c_library()

    def decide(active_idx, indptr, indices, weights, comm, strength,
               comm_strength, comm_size, gamma, m, two_m, remove_self,
               acc_w, acc_stamp, acc_comms, stamp,
               best_comm, best_gain, stay_gain, move, threads=1):
        n = len(indptr) - 1
        if len(acc_w) < threads * n or len(acc_stamp) < threads * n:
            raise ValueError(f"decide scratch holds fewer than {threads} "
                             f"slices of {n}")
        return lib.repro_decide(
            len(active_idx), active_idx, indptr, indices, weights,
            comm, strength, comm_strength, comm_size,
            gamma, m, two_m, remove_self,
            acc_w, acc_stamp, acc_comms, stamp,
            best_comm, best_gain, stay_gain, move,
            threads, n, len(acc_comms) // threads,
        )

    def delta(movers, indptr, indices, weights, comm, prev_comm, moved,
              d_comm):
        lib.repro_delta(
            len(movers), movers, indptr, indices, weights, comm, prev_comm,
            moved, d_comm,
        )

    def aggregates(comm, strength, comm_strength, comm_size):
        lib.repro_aggregates(len(comm), comm, strength, comm_strength,
                             comm_size)

    def relabel(comm, present, mapping):
        return lib.repro_relabel(len(comm), comm, present, mapping)

    def sort(indptr, *rest):
        return lib.repro_coarsen_sort(len(indptr) - 1, indptr, *rest)

    def mg_inactive(strength, self_weight, d_comm, comm, comm_strength,
                    comm_size, gamma, two_m, remove_self, threshold, out,
                    threads=1):
        lib.repro_mg_inactive(
            len(comm), strength, self_weight, d_comm, comm, comm_strength,
            comm_size, gamma, two_m, remove_self, threshold, out, threads,
        )

    def internal_weights(indptr, indices, weights, self_weight, comm,
                         internal):
        lib.repro_internal_weights(len(comm), indptr, indices, weights,
                                   self_weight, comm, internal)

    return JitRuntime(
        provider="cc", compile_s=0.0, decide=decide, delta=delta,
        aggregates=aggregates,
        coarsen=_coarsen_with(relabel, sort, lib.repro_coarsen_sum),
        mg_inactive=mg_inactive, internal_weights=internal_weights,
        openmp=bool(lib.repro_openmp()),
    )


# --------------------------------------------------------------------- #
# compile probe
# --------------------------------------------------------------------- #
def _smoke_fixture():
    """A 4-vertex weighted fixture exercising every decide branch: an own
    -community pair, a tie, a singleton pair, and an isolated vertex."""
    indptr = np.array([0, 2, 4, 6, 6], dtype=np.int64)
    indices = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
    weights = np.array([1.0, 2.0, 1.0, 3.0, 2.0, 3.0])
    comm = np.array([0, 1, 1, 3], dtype=np.int64)
    strength = np.array([3.0, 4.0, 5.0, 0.0])
    comm_strength = np.array([3.0, 9.0, 0.0, 0.0])
    comm_size = np.array([1, 2, 0, 1], dtype=np.int64)
    return indptr, indices, weights, comm, strength, comm_strength, comm_size


def _coarsen_fixture():
    """A 30-vertex graph whose contraction has parallel runs of 130, 9 and
    1 entries (mixed-magnitude weights, so the summation order shows),
    intra-community edges, a fine self-loop and an isolated vertex; with
    non-compact ids inside ``[0, n)`` (the presence-array relabel) and
    the same partition shifted outside it (the ``np.unique`` relabel)."""
    from repro.graph.builder import from_edge_array

    a, b = np.arange(0, 10), np.arange(10, 23)
    c, d = np.arange(23, 26), np.arange(26, 29)
    src = [np.repeat(a, len(b)), np.repeat(c, len(d)), [0, 23, 9, 5]]
    dst = [np.tile(b, len(a)), np.tile(d, len(c)), [1, 24, 23, 5]]
    src, dst = np.concatenate(src), np.concatenate(dst)
    # fixed mixed-magnitude weights: a left-to-right sum differs from the
    # pairwise one on every run of 9 and of 130 entries
    i = np.arange(len(src))
    w = (1.0 + (i * 0.6180339887498949) % 1.0) * 10.0 ** ((i * 11) % 17 - 8)
    graph = from_edge_array(30, src, dst, w, name="coarsen-probe")
    comm = np.repeat(np.array([3, 17, 21, 29, 0], dtype=np.int64),
                     [10, 13, 3, 3, 1])
    return graph, (comm, comm * 1000 - 5)


def _threads_fixture():
    """A 4,096-vertex state for the threaded and per-vertex entries:
    8-cliques joined by chords, self-loops on every 97th vertex,
    mixed-magnitude weights, and a partition that moves every fifth
    vertex into the next clique's community: 64 dynamic-schedule chunks
    per decide, so both threads of a two-thread call normally take
    vertices (measured: half each on an idle machine), and vertices on
    both sides of MG's threshold."""
    from repro.graph.builder import from_edge_array

    n = 4096
    v = np.arange(n)
    a, b = np.triu_indices(8, 1)
    base = (v[::8, None] + np.zeros(len(a), dtype=np.int64)).ravel()
    src = np.concatenate([base + np.tile(a, n // 8), v, v[::97]])
    dst = np.concatenate([base + np.tile(b, n // 8), (v * 37 + 11) % n,
                          v[::97]])
    i = np.arange(len(src))
    w = (1.0 + (i * 0.6180339887498949) % 1.0) * 10.0 ** ((i * 7) % 9 - 4)
    graph = from_edge_array(n, src, dst, w, name="threads-probe")
    group = v // 8
    comm = np.where(v % 5 == 0, (group + 1) % (n // 8), group) * 8 + 3
    return CommunityState.from_assignment(graph, comm, resolution=1.5)


def _smoke_compare(rt: JitRuntime) -> None:
    """Run the candidate runtime against the interpreted reference on the
    smoke fixtures, and its contraction also against the NumPy
    :func:`~repro.graph.coarsen.coarsen_graph`; raises on any bit
    difference (a provider producing different floats must never be
    selected)."""
    ref = _python_runtime()
    indptr, indices, weights, comm, strength, cs, csize = _smoke_fixture()
    n = len(comm)
    active = np.arange(n, dtype=np.int64)
    outs = {}
    for name, r in (("ref", ref), ("cand", rt)):
        acc_w = np.zeros(n)
        acc_stamp = np.zeros(n, dtype=np.int64)
        acc_comms = np.zeros(n, dtype=np.int64)
        bc = np.zeros(n, dtype=np.int64)
        bg = np.zeros(n)
        sg = np.zeros(n)
        mv = np.zeros(n, dtype=np.bool_)
        for remove_self in (1, 0):
            r.decide(active, indptr, indices, weights, comm, strength,
                     cs, csize, 1.0, 3.0, 6.0, remove_self,
                     acc_w, acc_stamp, acc_comms, 0, bc, bg, sg, mv)
        # two movers that each join a neighbour and leave the unmoved
        # vertex 2's community; the candidate gets them in two calls, so
        # a provider that gets the chunk boundary wrong (re-zeroing or
        # re-visiting earlier movers) differs from the one-call reference
        d_comm = np.array([5.0, 6.0, 7.0, 8.0])
        movers = np.array([0, 1], dtype=np.int64)
        moved = np.array([True, True, False, False])
        comm_after = np.array([1, 1, 0, 3], dtype=np.int64)
        prev = np.array([0, 0, 0, 3], dtype=np.int64)
        for sub in ((movers,) if r is ref else (movers[:1], movers[1:])):
            r.delta(sub, indptr, indices, weights, comm_after, prev, moved,
                    d_comm)
        agg_s = np.zeros(n)
        agg_n = np.zeros(n, dtype=np.int64)
        r.aggregates(comm, strength, agg_s, agg_n)
        outs[name] = (bc.copy(), bg.copy(), sg.copy(), mv.copy(),
                      d_comm.copy(), agg_s.copy(),
                      agg_n.copy())
    pairs = list(zip(outs["ref"], outs["cand"]))
    # the contraction is checked against the NumPy path itself, so neither
    # a provider summing runs in another order nor a numpy whose
    # ``reduceat`` order differs from the loops' is ever selected
    from repro.graph.coarsen import coarsen_graph

    graph, assignments = _coarsen_fixture()
    for comm in assignments:
        coarse, mapping = coarsen_graph(graph, comm)
        want = (coarse.indptr, coarse.indices, coarse.weights,
                coarse.self_weight, mapping)
        for r in (ref, rt):
            got = r.coarsen(graph.indptr, graph.indices, graph.weights,
                            graph.self_weight, comm)
            pairs.extend(zip(want, got))
    # the threaded decide and the per-vertex entries against the NumPy
    # paths they replace, on a state big enough that both threads of a
    # two-thread decide normally take vertices
    from repro.core.kernels.vectorized import decide_moves
    from repro.core.modularity import community_internal_weights
    from repro.core.pruning.modularity_gain import ModularityGainPruning

    state = _threads_fixture()
    g = state.graph
    threads = _probe_threads()
    want = decide_moves(state, np.arange(g.n, dtype=np.int64))
    got = JitKernel(runtime=rt)._run(state, np.arange(g.n, dtype=np.int64),
                                     True, threads)
    pairs.extend((getattr(want, f), getattr(got, f))
                 for f in ("best_comm", "best_gain", "stay_gain", "move"))
    mg = ModularityGainPruning()
    for remove_self in (True, False):
        out = np.empty(g.n, dtype=np.bool_)
        rt.mg_inactive(g.strength, g.self_weight, state.d_comm, state.comm,
                       state.comm_strength, state.comm_size,
                       state.resolution, g.two_m, int(remove_self),
                       mg.slack * g.two_m, out, threads)
        pairs.append((mg.inactive_mask(state, remove_self), out))
    for h, comm in ((g, state.comm), (graph, assignments[0])):
        got = np.zeros(int(comm.max()) + 1)
        rt.internal_weights(h.indptr, h.indices, h.weights, h.self_weight,
                            comm, got)
        pairs.append((community_internal_weights(h, comm), got))
    for a, b in pairs:
        if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            raise RuntimeError(
                f"jit provider {rt.provider!r} failed the bit-exactness "
                f"smoke probe"
            )


_PROVIDERS = {
    "cc": _cc_runtime,
    "python": _python_runtime,
}
_cache: dict = {}


# --------------------------------------------------------------------- #
# threads
# --------------------------------------------------------------------- #
#: adjacency entries a graph needs before its threaded loops run on more
#: than one thread. Smaller graphs (whole detects of tens of ms, like a
#: serve pool's) stay serial, where threads cost the processes sharing
#: the cores more than they save; see docs/algorithm.md, "Threads"
PARALLEL_MIN_ENTRIES = 1 << 17

#: this process's cap on compiled-loop threads (None: no cap)
_thread_cap: Optional[int] = None


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _runtime_threads(rt: JitRuntime) -> int:
    if not rt.openmp:
        return 1
    cpus = available_cpus()
    return cpus if _thread_cap is None else min(cpus, _thread_cap)


def _probe_threads() -> int:
    """The thread count the probe checks ``decide``/``mg_inactive`` at:
    two, unless this process is capped at one (a forked child must never
    enter a parallel region)."""
    return 1 if _thread_cap == 1 else 2


def cap_threads(n: int) -> None:
    """Cap this process's compiled-loop threads at ``n`` (at least 1); a
    cap only ever comes down.

    The thread count belongs to the process, not to a config: a
    ``local`` run uses every CPU the process may run on; multiprocess
    rank workers and spawned serve pool workers cap at 1 (the workers
    are the parallelism). Every forked child is
    capped at 1 automatically, because libgomp is not fork-safe: a
    parallel region in a child forked from a process that already ran
    one hangs.
    """
    global _thread_cap
    n = max(1, int(n))
    _thread_cap = n if _thread_cap is None else min(_thread_cap, n)
    for rt in _cache.values():
        if rt is not None:
            rt.threads = _runtime_threads(rt)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: cap_threads(1))


def loop_threads(rt: JitRuntime, entries: int) -> int:
    """Threads a threaded loop over a graph of ``entries`` adjacency
    entries runs with: ``rt.threads`` from :data:`PARALLEL_MIN_ENTRIES`
    up, else 1."""
    return rt.threads if entries >= PARALLEL_MIN_ENTRIES else 1


def _reset_runtime_cache() -> None:
    """Forget probed runtimes (test hook — providers re-probe on next use)."""
    _cache.clear()


def _probe(provider: str) -> Optional[JitRuntime]:
    """Build + smoke-check one provider; None when it cannot run here."""
    if provider in _cache:
        return _cache[provider]
    rt: Optional[JitRuntime] = None
    t0 = time.perf_counter()
    try:
        rt = _PROVIDERS[provider]()
        _smoke_compare(rt)
    except Exception:
        rt = None
    if rt is not None:
        rt.compile_s = time.perf_counter() - t0
        rt.threads = _runtime_threads(rt)
    _cache[provider] = rt
    return rt


def _requested_provider(provider: Optional[str]) -> str:
    """The provider name a request resolves to (``"auto"`` is ``"cc"``)."""
    if provider is None:
        provider = os.environ.get("REPRO_JIT_PROVIDER", "auto") or "auto"
    provider = provider.lower()
    return "cc" if provider == "auto" else provider


def get_runtime(provider: Optional[str] = None) -> Optional[JitRuntime]:
    """The memoized jit runtime, or None when no provider works.

    ``provider`` defaults to ``REPRO_JIT_PROVIDER`` (then ``"auto"``).
    ``"auto"`` means the compiled ``cc`` provider, never the interpreted
    one; ``"off"``/``"none"`` disables the backend. Every selected
    runtime has passed the warm-up compile probe — a full bit-exactness
    smoke comparison against the interpreted reference — which is what
    licenses ``kernel="auto"`` to route through it.
    """
    provider = _requested_provider(provider)
    if provider in ("off", "none"):
        return None
    if provider not in _PROVIDERS:
        raise ValueError(
            f"unknown jit provider {provider!r}; expected one of "
            f"{sorted(_PROVIDERS)} or 'auto'/'off'"
        )
    return _probe(provider)


def probed_provider() -> Optional[str]:
    """The provider :func:`get_runtime` resolves to, read from the probe
    cache only — never compiles. None when the backend is off, its probe
    failed, or nothing in this process has probed it yet."""
    rt = _cache.get(_requested_provider(None))
    return rt.provider if rt is not None else None


def probed_threads() -> Optional[int]:
    """The thread count of the runtime :func:`probed_provider` reports,
    from the probe cache only; None where that reports None."""
    rt = _cache.get(_requested_provider(None))
    return rt.threads if rt is not None else None


def require_runtime(provider: Optional[str] = None) -> JitRuntime:
    """Like :func:`get_runtime` but raises the friendly setup error."""
    rt = get_runtime(provider)
    if rt is None:
        raise KernelUnavailableError(
            "the 'jit' kernel backend has no working compile provider on "
            "this host: no system C compiler was found (or its probe "
            "failed, or REPRO_JIT_PROVIDER disables it). Make `cc` (or "
            "$CC) available, optionally pinning the provider with "
            "REPRO_JIT_PROVIDER=cc. The 'auto' and 'vectorized' backends "
            "run everywhere and produce bit-identical results."
        )
    return rt


# --------------------------------------------------------------------- #
# the kernel backend
# --------------------------------------------------------------------- #
class JitKernel:
    """Compiled DecideAndMove behind the host kernel-backend protocol.

    The kernel owns its scratch (the stamp-versioned per-community
    accumulator, one slice per thread) and the DecideResult output arrays.
    The scratch is sized when a call first sees a graph (the graph object,
    not just its ``n``: a graph of the same size may have a larger maximum
    degree) and again when the thread count grows; the outputs grow to the
    largest active set seen (a rank's decide chunk stays O(chunk)). Later
    calls on the same graph allocate nothing. The returned
    :class:`DecideResult` views those arrays and is valid until the next
    call — the engine consumes it immediately; callers that keep results
    across calls must copy. A call runs on ``runtime.threads`` threads
    when the graph has at least :data:`PARALLEL_MIN_ENTRIES` adjacency
    entries, else on one; ``last_threads`` records which.
    """

    name = "jit"

    def __init__(
        self,
        provider: Optional[str] = None,
        runtime: Optional[JitRuntime] = None,
    ):
        self.runtime = runtime if runtime is not None else require_runtime(provider)
        #: backend that ran on the last call (recorded in ``IterationTrace``)
        self.last_backend: Optional[str] = None
        #: threads the last call ran on (``IterationTrace.kernel_threads``)
        self.last_threads: Optional[int] = None
        self._graph = None
        self._slices = 0
        self._stamp = 0
        self._size_outputs(0)

    def take_compile_s(self) -> float:
        """The runtime's probe seconds on the first call for that runtime
        in this process, else 0.0: every level and every later run share
        the one compile, so it is charged to one iteration trace."""
        rt = self.runtime
        if rt.compile_charged:
            return 0.0
        rt.compile_charged = True
        return rt.compile_s

    def _size_scratch(self, graph, slices: int) -> None:
        n = graph.n
        max_deg = int(graph.degrees.max()) if n else 0
        self._acc_w = np.empty(slices * n, dtype=np.float64)
        self._acc_stamp = np.zeros(slices * n, dtype=np.int64)
        self._acc_comms = np.empty(slices * max(max_deg, 1), dtype=np.int64)
        self._stamp = 0
        self._graph = graph
        self._slices = slices

    def _size_outputs(self, size: int) -> None:
        self._best_comm = np.empty(size, dtype=np.int64)
        self._best_gain = np.empty(size, dtype=np.float64)
        self._stay_gain = np.empty(size, dtype=np.float64)
        self._move = np.empty(size, dtype=np.bool_)

    def __call__(
        self,
        state: CommunityState,
        active_idx: np.ndarray,
        remove_self: bool = True,
    ) -> DecideResult:
        threads = loop_threads(self.runtime, len(state.graph.indices))
        return self._run(state, np.asarray(active_idx, dtype=np.int64),
                         remove_self, threads)

    def _run(self, state, active_idx, remove_self, threads) -> DecideResult:
        """Decide ``active_idx`` on ``threads`` threads, whatever the
        graph's size (the probe forces two)."""
        g = state.graph
        self.last_backend = self.name
        self.last_threads = 1
        n_act = len(active_idx)
        if g.total_weight == 0.0 or n_act == 0:
            return _trivial_result(state, active_idx, np.zeros(n_act))
        if self._graph is not g or self._slices < threads:
            self._size_scratch(g, threads)
        if len(self._move) < n_act:
            self._size_outputs(n_act)

        best_comm = self._best_comm[:n_act]
        best_gain = self._best_gain[:n_act]
        stay_gain = self._stay_gain[:n_act]
        move = self._move[:n_act]

        self._stamp = self.runtime.decide(
            np.ascontiguousarray(active_idx),
            g.indptr, g.indices, g.weights,
            state.comm, g.strength,
            np.ascontiguousarray(state.comm_strength, dtype=np.float64),
            np.ascontiguousarray(state.comm_size, dtype=np.int64),
            float(state.resolution), float(g.total_weight), float(g.two_m),
            1 if remove_self else 0,
            self._acc_w, self._acc_stamp, self._acc_comms, self._stamp,
            best_comm, best_gain, stay_gain, move, threads,
        )
        self.last_threads = threads
        return DecideResult(
            active_idx=active_idx,
            best_comm=best_comm,
            best_gain=best_gain,
            stay_gain=stay_gain,
            move=move,
        )

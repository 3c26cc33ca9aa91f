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

The loops are a bundled C source, compiled once with the system C
compiler (``$CC``, else ``cc``) into a cached shared library and called
via :mod:`ctypes` — the one **provider**, ``cc``. No dependency beyond a
working compiler; without one the backend is unavailable and ``auto``
resolves to ``vectorized``.

Bit-exactness contract: the loops replicate the reference backend's
arithmetic exactly — per-``(v, C)`` weights are accumulated sequentially
in adjacency order (the shared summation convention of
:func:`repro.core.kernels.vectorized._aggregate_pairs`), gains are
evaluated with the same operation order Eq. 2 is coded with in
:func:`~repro.core.kernels.vectorized._evaluate_pairs`, ties break toward
the smaller community id, and the movement guards are verbatim; the
contraction sums each super-edge's run in ``np.add.reduceat``'s pairwise
order. The C build disables FP contraction (``-ffp-contract=off``), so
the compiled arithmetic is IEEE-ordered and bit-identical to the NumPy
paths — enforced by the cross-backend matrix tests and by a compile-probe
smoke comparison of every entry against its NumPy twin (``decide``
against :func:`~repro.core.kernels.vectorized.decide_moves`, also at two
forced threads; ``delta`` against :func:`~repro.core.weights.delta_update`;
``aggregates`` against the ``np.bincount`` refresh; ``coarsen`` against
:func:`~repro.graph.coarsen.coarsen_graph`; ``mg_inactive`` against
``ModularityGainPruning.inactive_mask``; ``internal_weights`` against
:func:`~repro.core.modularity.community_internal_weights`) before the
library is ever trusted.

``REPRO_JIT_PROVIDER`` is ``auto`` (the default) to use the library when
it probes, ``cc`` to require it (a failed probe is an error), ``off`` (or
``none``) to disable the backend. :func:`get_runtime` probes and
memoizes; :func:`require_runtime` raises the friendly
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

# --------------------------------------------------------------------- #
# the C source (provider "cc")
# --------------------------------------------------------------------- #
#: compiled with -ffp-contract=off so the float arithmetic is IEEE-ordered
#: like NumPy's; each entry's comment names the NumPy path it reproduces
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

/* DecideAndMove for the vertex at position i of active_idx, writing the
 * four outputs at position i (vectorized.decide_moves, bit for bit).
 * acc_w/acc_stamp form a stamp-versioned per-community accumulator (O(1)
 * reset per vertex: an entry is live iff its stamp equals this vertex's
 * stamp); acc_comms lists the communities the vertex touches in
 * first-encounter order, which is the order the candidates are scanned
 * in, with ties broken toward the smaller community id. */
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
/* The stamp rule: the vertex at position i runs under stamp stamp + i + 1,
 * whichever thread takes it, and the call returns stamp + n_act, so one
 * scratch stays valid across calls (the caller passes the returned stamp
 * back in). Every output is indexed by position, so the result does not
 * depend on the thread count. */
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

/* MG's global-bound Eq. 6 test for every vertex into out, with the
 * minimum total over the non-empty communities found first: the operations
 * and their order of ModularityGainPruning.inactive_mask, whose threshold
 * (slack * two_m) the caller passes. Each thread writes only its own
 * out[v]. */
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

/* D_C(C) added into the zeroed internal in np.add.at's order: the
 * intra-community entries in row order, then 2 w_loop of every vertex in
 * vertex order (modularity.community_internal_weights). */
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

/* Section 3.5 delta update over the rows of movers (weights.delta_update).
 * Each mover's own entry is rebuilt from zero over its row; its unmoved
 * neighbours get the +/- deltas. Moved and unmoved vertices receive
 * contributions to disjoint d_comm entries, so fusing the two NumPy
 * halves into one mover-major, adjacency-ordered pass keeps the reference
 * path's per-element summation order, and any split of an ascending
 * mover list into consecutive calls gives the same bits. */
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

/* comm_strength/comm_size rebuilt into caller-owned buffers in
 * np.bincount's summation order (vertex order). */
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

/* Sum of a[0:n] in numpy's pairwise_sum order: below 8 elements
 * sequentially from -0.0; up to 128 in 8 strided accumulators combined as
 * ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover tail in sequence;
 * above 128 split at n/2 rounded down to a multiple of 8. np.add.reduceat
 * sums a run as run[0] + pairwise_sum(run + 1, len - 1). */
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

/* Compact relabel of ids in [0, n) through a presence array, in ascending
 * id order like np.unique; returns k, or -1 when an id lies outside
 * [0, n) (the caller then relabels with np.unique). */
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

/* Route every adjacency entry onto super-vertices and sort the
 * inter-community ones by (super-source, super-destination). Intra
 * entries add 0.5 * w to self_weight in CSR order, then the fine
 * self-loops follow in vertex order (np.bincount's order over the NumPy
 * path's concatenation). The rest go through two stable counting sorts,
 * by destination into a_*, then by source into b_*, which is exactly
 * np.lexsort((dst, src))'s order. coarse_indptr receives the row offsets
 * of the coalesced entries and src_end[s] the end of row s's sorted
 * entries in b_*; returns the number of coalesced entries. */
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
    /* bucket starts; each scatter advances a bucket's start to its end */
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
    /* destinations arrive in ascending order per source, so a run starts
     * wherever a source sees a new destination */
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

/* Sum each (source, destination) run of the sorted entries into the coarse
 * CSR in np.add.reduceat's order. */
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
    """The compiled library's entry points behind NumPy-array signatures.

    ``decide``/``delta``/``aggregates``/``mg_inactive``/``internal_weights``
    wrap the C entries of the same names, and ``coarsen`` is the phase-2
    contraction over the relabel, sort and run-sum entries;
    ``provider`` is always ``"cc"``. ``compile_s`` is the one-off cost
    the probe measured: building the library (a compile, or the load of a
    cached one) plus the smoke comparison, so it is never 0.0 once probed.
    The first kernel on this runtime to report a trace takes it
    (``compile_charged``), so a process charges it to one iteration trace
    and manifest. ``openmp`` says whether the library was built with
    OpenMP; ``threads`` is how many threads ``decide`` and ``mg_inactive``
    may use in this process (see :func:`cap_threads`; always 1 without
    OpenMP).
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

    def coarsen(indptr, indices, weights, self_weight, communities):
        """The coarse ``(indptr, indices, weights, self_weight)`` and the
        fine-to-coarse ``mapping``, byte-identical to the NumPy
        :func:`repro.graph.coarsen.coarsen_graph`: scratch and exact-size
        outputs are allocated here, the C entries only fill them."""
        n = indptr.shape[0] - 1
        k = -1
        if np.can_cast(communities.dtype, np.int64):
            mapping = np.empty(n, dtype=np.int64)
            k = lib.repro_relabel(
                n, np.ascontiguousarray(communities, dtype=np.int64),
                np.empty(n, dtype=np.int64), mapping,
            )
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
        r = lib.repro_coarsen_sort(n, indptr, indices, weights, self_weight,
                                   mapping, k, coarse_self, dst_end, src_end,
                                   last, a_src, a_w, b_dst, b_w, coarse_indptr)
        del a_src, a_w
        coarse_indices = np.empty(r, dtype=np.int64)
        coarse_weights = np.empty(r)
        lib.repro_coarsen_sum(k, src_end, b_dst, b_w, coarse_indices,
                              coarse_weights)
        return coarse_indptr, coarse_indices, coarse_weights, coarse_self, mapping

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
        aggregates=aggregates, coarsen=coarsen,
        mg_inactive=mg_inactive, internal_weights=internal_weights,
        openmp=bool(lib.repro_openmp()),
    )


# --------------------------------------------------------------------- #
# compile probe
# --------------------------------------------------------------------- #
def _smoke_fixture():
    """A 4-vertex weighted state: a triangle split into a singleton and a
    pair, plus an isolated vertex."""
    from repro.graph.builder import from_edge_array

    graph = from_edge_array(4, [0, 0, 1], [1, 2, 2], [1.0, 2.0, 3.0],
                            name="smoke-probe")
    return CommunityState.from_assignment(graph, np.array([0, 1, 1, 3]))


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
    """Run every entry of the candidate runtime against its NumPy twin on
    the smoke fixtures; raises on any bit difference (a library producing
    different floats must never be selected)."""
    from repro.core.kernels.vectorized import decide_moves
    from repro.core.modularity import community_internal_weights
    from repro.core.pruning.modularity_gain import ModularityGainPruning
    from repro.core.weights import delta_update
    from repro.graph.coarsen import coarsen_graph

    def decisions(res):
        return [getattr(res, f).copy()
                for f in ("best_comm", "best_gain", "stay_gain", "move")]

    pairs = []
    # decide, twice through one kernel's scratch (the stamps carry over),
    # under both gain conventions
    state = _smoke_fixture()
    g = state.graph
    active = np.arange(g.n, dtype=np.int64)
    kernel = JitKernel(runtime=rt)
    for remove_self in (True, False):
        pairs.extend(zip(decisions(decide_moves(state, active, remove_self)),
                         decisions(kernel._run(state, active, remove_self, 1))))
    # two movers that each join a neighbour and leave the unmoved vertex
    # 2's community; the candidate gets them in two calls, so a library
    # that gets the chunk boundary wrong (re-zeroing or re-visiting
    # earlier movers) differs from the one-shot NumPy update
    prev = np.array([0, 0, 0, 3], dtype=np.int64)
    moved = np.array([True, True, False, False])
    state.comm = np.array([1, 1, 0, 3], dtype=np.int64)
    state.d_comm = np.array([5.0, 6.0, 7.0, 8.0])
    got = state.d_comm.copy()
    for sub in (np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)):
        rt.delta(sub, g.indptr, g.indices, g.weights, state.comm, prev, moved,
                 got)
    delta_update(state, prev, moved)
    pairs.append((state.d_comm, got))
    # the contraction, with runs whose summation order shows
    graph, assignments = _coarsen_fixture()
    for comm in assignments:
        coarse, mapping = coarsen_graph(graph, comm)
        want = (coarse.indptr, coarse.indices, coarse.weights,
                coarse.self_weight, mapping)
        got = rt.coarsen(graph.indptr, graph.indices, graph.weights,
                         graph.self_weight, comm)
        pairs.extend(zip(want, got))
    # the threaded decide and the per-vertex entries, on a state big
    # enough that both threads of a two-thread decide normally take
    # vertices
    state = _threads_fixture()
    g = state.graph
    threads = _probe_threads()
    active = np.arange(g.n, dtype=np.int64)
    pairs.extend(zip(decisions(decide_moves(state, active)),
                     decisions(kernel._run(state, active, True, threads))))
    agg_s = np.empty(g.n)
    agg_n = np.empty(g.n, dtype=np.int64)
    rt.aggregates(state.comm, g.strength, agg_s, agg_n)
    state.refresh_community_aggregates()
    pairs += [(state.comm_strength, agg_s), (state.comm_size, agg_n)]
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


#: the probed runtime under ``"cc"`` (None when its probe failed)
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
    """Forget the probed runtime (test hook — the next use re-probes)."""
    _cache.clear()


def _probe() -> Optional[JitRuntime]:
    """Build + smoke-check the ``cc`` library; None when it cannot run
    here."""
    if "cc" in _cache:
        return _cache["cc"]
    rt: Optional[JitRuntime] = None
    t0 = time.perf_counter()
    try:
        rt = _cc_runtime()
        _smoke_compare(rt)
    except Exception:
        rt = None
    if rt is not None:
        rt.compile_s = time.perf_counter() - t0
        rt.threads = _runtime_threads(rt)
    _cache["cc"] = rt
    return rt


def _requested_provider() -> str:
    """``REPRO_JIT_PROVIDER`` lower-cased (``"auto"`` when unset)."""
    return (os.environ.get("REPRO_JIT_PROVIDER") or "auto").lower()


def get_runtime() -> Optional[JitRuntime]:
    """The memoized jit runtime, or None when the backend is off or, under
    ``auto``, the ``cc`` library cannot run here.

    ``REPRO_JIT_PROVIDER`` is ``auto`` (the default) to probe the library,
    ``cc`` to require it — a failed probe then raises
    :class:`~repro.errors.KernelUnavailableError` instead of falling back
    — or ``off``/``none`` to disable the backend; any other value raises
    ValueError. The runtime returned has passed the warm-up compile
    probe — every entry compared byte for byte with its NumPy twin —
    which is what licenses ``kernel="auto"`` to route through it.
    """
    provider = _requested_provider()
    if provider in ("off", "none"):
        return None
    if provider not in ("auto", "cc"):
        raise ValueError(
            f"unknown jit provider {provider!r} in REPRO_JIT_PROVIDER; "
            "expected one of 'auto', 'cc' or 'off'"
        )
    rt = _probe()
    if rt is None and provider == "cc":
        raise KernelUnavailableError(
            "REPRO_JIT_PROVIDER=cc requires the compiled provider, but its "
            "build or bit-exactness probe failed on this host (check `cc` "
            "or $CC). Set REPRO_JIT_PROVIDER=auto to fall back to the "
            "NumPy path."
        )
    return rt


def _probed_runtime() -> Optional[JitRuntime]:
    """The probe cache's runtime, unless the backend is off."""
    if _requested_provider() in ("off", "none"):
        return None
    return _cache.get("cc")


def probed_provider() -> Optional[str]:
    """The provider :func:`get_runtime` resolves to, read from the probe
    cache only — never compiles. None when the backend is off, its probe
    failed, or nothing in this process has probed it yet."""
    rt = _probed_runtime()
    return rt.provider if rt is not None else None


def probed_threads() -> Optional[int]:
    """The thread count of the runtime :func:`probed_provider` reports,
    from the probe cache only; None where that reports None."""
    rt = _probed_runtime()
    return rt.threads if rt is not None else None


def require_runtime() -> JitRuntime:
    """Like :func:`get_runtime` but raises the friendly setup error."""
    rt = get_runtime()
    if rt is None:
        raise KernelUnavailableError(
            "the 'jit' kernel backend has no working compile provider on "
            "this host: no system C compiler was found (or its probe "
            "failed, or REPRO_JIT_PROVIDER disables it). Make `cc` (or "
            "$CC) available, and REPRO_JIT_PROVIDER unset or 'cc'. The 'auto' and 'vectorized' backends "
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

    def __init__(self, runtime: Optional[JitRuntime] = None):
        self.runtime = runtime if runtime is not None else require_runtime()
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

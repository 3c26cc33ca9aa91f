"""Compiled DecideAndMove + delta-update hot path (the ``jit`` backend).

The NumPy backends stream every step through vectorised temporaries; this
module compiles the per-vertex decide loop and the Section 3.5 delta
weight update to native code, writing straight into arena-owned buffers —
the steady-state iteration then performs zero heap allocations (see
:mod:`repro.core.arena`).

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
the smaller community id, and the movement guards are verbatim. The C
build disables FP contraction (``-ffp-contract=off``), so the compiled
arithmetic is IEEE-ordered and bit-identical to ``vectorized`` — enforced
by the cross-backend matrix tests and by a compile-probe smoke comparison
before a provider is ever trusted.

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

from repro.core.arena import BufferArena
from repro.core.kernels.vectorized import DecideResult, _trivial_result
from repro.core.state import CommunityState
from repro.errors import KernelUnavailableError

NEG_INF = float("-inf")


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
):
    """DecideAndMove for ``active_idx``; writes the four output arrays.

    ``acc_w``/``acc_stamp`` form a stamp-versioned per-community
    accumulator (O(1) reset per vertex); ``acc_comms`` lists the
    communities touched by the current vertex in first-encounter order.
    Returns the advanced stamp so the scratch stays valid across calls.
    """
    for i in range(active_idx.shape[0]):
        v = active_idx[i]
        cur = comm[v]
        s_v = strength[v]
        stamp += 1
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
    return stamp


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


# --------------------------------------------------------------------- #
# the C translation (provider "cc")
# --------------------------------------------------------------------- #
#: mirrors the loop functions above statement for statement; compiled with
#: -ffp-contract=off so the float arithmetic is IEEE-ordered like NumPy's
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

int64_t repro_decide(
    int64_t n_act, const int64_t *active_idx,
    const int64_t *indptr, const int64_t *indices, const double *weights,
    const int64_t *comm, const double *strength,
    const double *comm_strength, const int64_t *comm_size,
    double gamma_, double m, double two_m, int64_t remove_self,
    double *acc_w, int64_t *acc_stamp, int64_t *acc_comms, int64_t stamp,
    int64_t *best_comm, double *best_gain, double *stay_gain, uint8_t *move)
{
    for (int64_t i = 0; i < n_act; i++) {
        int64_t v = active_idx[i];
        int64_t cur = comm[v];
        double s_v = strength[v];
        stamp += 1;
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
    return stamp;
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
"""

_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]


def _cache_dir() -> str:
    return os.environ.get(
        "REPRO_JIT_CACHE",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-jit"),
    )


def _compile_c_library() -> ctypes.CDLL:
    """Compile (or reuse) the cached shared library for provider ``cc``."""
    cc = os.environ.get("CC", "cc")
    tag = hashlib.sha256(
        (_C_SOURCE + " ".join(_CFLAGS) + cc).encode()
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
                [cc, *_CFLAGS, "-o", tmp, src_path],
                check=True,
                capture_output=True,
            )
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):  # compile failed before the rename
                os.unlink(tmp)
    lib = ctypes.CDLL(lib_path)

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
    ]
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
    return lib


# --------------------------------------------------------------------- #
# runtimes
# --------------------------------------------------------------------- #
@dataclass
class JitRuntime:
    """One compiled (or interpreted) implementation of the three loops.

    ``decide``/``delta``/``aggregates`` share the loop functions' NumPy
    signatures regardless of provider; ``compile_s`` is the one-off
    compile/warm-up cost the probe measured (0.0 for cache hits and the
    interpreted provider) — surfaced in traces and manifests.
    """

    provider: str
    compile_s: float
    decide: Callable
    delta: Callable
    aggregates: Callable


def _python_runtime() -> JitRuntime:
    return JitRuntime(
        provider="python",
        compile_s=0.0,
        decide=_decide_loop,
        delta=_delta_loop,
        aggregates=_aggregates_loop,
    )


def _cc_runtime() -> JitRuntime:
    lib = _compile_c_library()

    def decide(active_idx, indptr, indices, weights, comm, strength,
               comm_strength, comm_size, gamma, m, two_m, remove_self,
               acc_w, acc_stamp, acc_comms, stamp,
               best_comm, best_gain, stay_gain, move):
        return lib.repro_decide(
            len(active_idx), active_idx, indptr, indices, weights,
            comm, strength, comm_strength, comm_size,
            gamma, m, two_m, remove_self,
            acc_w, acc_stamp, acc_comms, stamp,
            best_comm, best_gain, stay_gain, move,
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

    return JitRuntime(
        provider="cc", compile_s=0.0, decide=decide, delta=delta,
        aggregates=aggregates,
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


def _smoke_compare(rt: JitRuntime) -> None:
    """Run the candidate runtime against the interpreted reference on the
    smoke fixture; raises on any bit difference (a provider producing
    different floats must never be selected)."""
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
    for a, b in zip(outs["ref"], outs["cand"]):
        if not np.array_equal(a, b):
            raise RuntimeError(
                f"jit provider {rt.provider!r} failed the bit-exactness "
                f"smoke probe"
            )


_PROVIDERS = {
    "cc": _cc_runtime,
    "python": _python_runtime,
}
_cache: dict = {}


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


def require_runtime(provider: Optional[str] = None) -> JitRuntime:
    """Like :func:`get_runtime` but raises the friendly setup error."""
    rt = get_runtime(provider)
    if rt is None:
        raise KernelUnavailableError(
            "the 'jit' kernel backend has no working compile provider on "
            "this host: no system C compiler was found (or its probe "
            "failed, or REPRO_JIT_PROVIDER disables it). Make `cc` (or "
            "$CC) available, optionally pinning the provider with "
            "REPRO_JIT_PROVIDER=cc. kernel='auto'/'vectorized' run "
            "everywhere and produce bit-identical results."
        )
    return rt


# --------------------------------------------------------------------- #
# the kernel backend
# --------------------------------------------------------------------- #
class JitKernel:
    """Compiled DecideAndMove behind the host kernel-backend protocol.

    Scratch (the stamp-versioned per-community accumulator) and the
    DecideResult output arrays live in the bound :class:`BufferArena`, so
    steady-state calls allocate nothing. The returned
    :class:`DecideResult` views those buffers and is valid until the next
    call — the engine consumes it immediately; callers that keep results
    across calls must copy.
    """

    name = "jit"

    def __init__(
        self,
        provider: Optional[str] = None,
        runtime: Optional[JitRuntime] = None,
        arena: Optional[BufferArena] = None,
    ):
        self.runtime = runtime if runtime is not None else require_runtime(provider)
        self.arena = arena if arena is not None else BufferArena("jit")
        #: backend that ran on the last call (recorded in ``IterationTrace``)
        self.last_backend: Optional[str] = None
        self.compile_s = self.runtime.compile_s
        self._n = -1
        self._stamp = 0

    # backend-protocol plumbing (duck-typed; plain callables skip it)
    def bind_arena(self, arena: BufferArena) -> None:
        self.arena = arena
        self._n = -1

    def reset(self, state: CommunityState) -> None:
        self._n = -1

    def _prepare_scratch(self, graph) -> None:
        n = graph.n
        a = self.arena
        self._acc_w = a.request(("jit", "acc_w"), n, np.float64)
        self._acc_stamp = a.zeros(("jit", "acc_stamp"), n, np.int64)
        max_deg = int(graph.degrees.max()) if n else 0
        self._acc_comms = a.request(("jit", "acc_comms"), max(max_deg, 1),
                                    np.int64)
        self._stamp = 0
        self._n = n

    def __call__(
        self,
        state: CommunityState,
        active_idx: np.ndarray,
        remove_self: bool = True,
    ) -> DecideResult:
        g = state.graph
        active_idx = np.asarray(active_idx, dtype=np.int64)
        self.last_backend = self.name
        n_act = len(active_idx)
        if g.total_weight == 0.0 or n_act == 0:
            return _trivial_result(state, active_idx, np.zeros(n_act))
        if self._n != g.n:
            self._prepare_scratch(g)

        a = self.arena
        best_comm = a.request(("jit", "best_comm"), n_act, np.int64)
        best_gain = a.request(("jit", "best_gain"), n_act, np.float64)
        stay_gain = a.request(("jit", "stay_gain"), n_act, np.float64)
        move = a.request(("jit", "move"), n_act, np.bool_)

        self._stamp = self.runtime.decide(
            np.ascontiguousarray(active_idx),
            g.indptr, g.indices, g.weights,
            state.comm, g.strength,
            np.ascontiguousarray(state.comm_strength, dtype=np.float64),
            np.ascontiguousarray(state.comm_size, dtype=np.int64),
            float(state.resolution), float(g.total_weight), float(g.two_m),
            1 if remove_self else 0,
            self._acc_w, self._acc_stamp, self._acc_comms, self._stamp,
            best_comm, best_gain, stay_gain, move,
        )
        return DecideResult(
            active_idx=active_idx,
            best_comm=best_comm,
            best_gain=best_gain,
            stay_gain=stay_gain,
            move=move,
        )

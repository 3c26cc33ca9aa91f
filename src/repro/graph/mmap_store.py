"""Out-of-core CSR storage: ``np.memmap``-backed graphs on disk.

The paper's graphs reach 1.8 B edges; anything past laptop scale cannot
hold its adjacency in one process heap, let alone one copy per worker.
This module stores the four CSR payload arrays as raw little-endian
files in a directory ("mmap store") and exposes them through
:class:`MmapCSRGraph`, a :class:`~repro.graph.csr.CSRGraph` whose arrays
are read-only ``np.memmap`` views:

* every consumer of the CSRGraph interface (kernels, engine, coarsening)
  works unchanged — the arrays index and slice like any ndarray, the OS
  pages adjacency in on demand and can evict it under pressure;
* the multiprocess runtime maps the same store read-only in every worker
  (``open_mmap`` per rank), so the graph payload crosses process
  boundaries zero times — the property the out-of-core format exists for;
* ``fingerprint`` hashes the files **chunk-wise** to the exact digest
  :func:`~repro.graph.fingerprint.compute_csr_sha256` would produce, and
  caches it into ``meta.json`` so reopening a store never re-reads it;
* ``validate()`` is re-implemented chunk-wise (the base implementation
  materialises O(E) index/sort scratch), including a streaming symmetry
  check.

Store layout (``save_mmap`` / :class:`MmapCSRWriter` write it,
``open_mmap`` reads it)::

    <dir>/meta.json          n, nnz, name, dtypes, cached digest/total
    <dir>/indptr.bin         int64[n + 1], little-endian
    <dir>/indices.bin        int64[nnz]
    <dir>/weights.bin        float64[nnz]
    <dir>/self_weight.bin    float64[n]

O(n) working memory is considered in budget throughout (the multiprocess
runtime shares O(n) assignment arrays anyway); O(E) is never
materialised by anything in this module.
"""

from __future__ import annotations

import json
import mmap as _mmap_mod
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from repro.errors import GraphFormatError, GraphValidationError
from repro.graph.csr import CSRGraph

PathLike = Union[str, os.PathLike]

#: default adjacency entries per processing chunk (~16 MiB of (id, weight)
#: pairs) — large enough to amortise NumPy call overhead, small enough that
#: per-chunk scratch stays tens of MB
DEFAULT_CHUNK_EDGES = 1 << 20

META_NAME = "meta.json"
ARRAY_FILES = {
    "indptr": ("indptr.bin", "<i8"),
    "indices": ("indices.bin", "<i8"),
    "weights": ("weights.bin", "<f8"),
    "self_weight": ("self_weight.bin", "<f8"),
}
FORMAT_NAME = "gala-csr"
FORMAT_VERSION = 1


def is_mmap_store(path: PathLike) -> bool:
    """Whether ``path`` looks like a graph store directory."""
    return os.path.isdir(path) and os.path.isfile(
        os.path.join(os.fspath(path), META_NAME)
    )


# --------------------------------------------------------------------- #
# streaming helpers
# --------------------------------------------------------------------- #
def _splitmix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (vectorised)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _finite_non_negative(w: np.ndarray) -> bool:
    """Whether every weight in ``w`` is finite and >= 0 (NaN fails)."""
    return bool(np.all((w >= 0) & (w < np.inf)))


def _edge_hash(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """64-bit orientation-insensitive mix of each directed edge's endpoints.

    Hashes ``(min, max)``, so the two stored directions of one undirected
    edge hash identically and cancel under XOR: the XOR-fold over all
    adjacency entries is zero iff every ``(u, v)`` record appears an even
    number of times — which, for duplicate-free sorted rows, holds iff the
    adjacency is *structurally* symmetric (up to a 2^-64-ish
    accidental-cancellation chance, fine for a validator). Weights are
    deliberately excluded: the builder sums duplicate input records in a
    per-direction order, so ``w(u, v)`` and ``w(v, u)`` may differ in the
    last ulp on legitimately-built graphs (the in-RAM validator likewise
    compares them with ``np.allclose``) — the streaming weight check uses
    the tolerant signed signature below instead.
    """
    with np.errstate(over="ignore"):
        lo = np.minimum(u, v).astype(np.uint64)
        hi = np.maximum(u, v).astype(np.uint64)
        return (
            _splitmix(lo + np.uint64(0x9E3779B97F4A7C15))
            ^ _splitmix(hi + np.uint64(0xC2B2AE3D27D4EB4F))
        )


def iter_row_blocks(
    indptr: np.ndarray, chunk_edges: int
) -> Iterator[tuple[int, int]]:
    """Yield ``(v0, v1)`` row ranges whose adjacency spans ≤ ``chunk_edges``
    entries each (a single row larger than the budget gets its own block —
    blocks always advance)."""
    n = len(indptr) - 1
    v0 = 0
    while v0 < n:
        target = int(indptr[v0]) + chunk_edges
        v1 = int(np.searchsorted(indptr, target, side="right")) - 1
        v1 = min(max(v1, v0 + 1), n)
        yield v0, v1
        v0 = v1


# --------------------------------------------------------------------- #
# the memmap-backed graph
# --------------------------------------------------------------------- #
@dataclass
class MmapCSRGraph(CSRGraph):
    """A :class:`CSRGraph` whose payload arrays are on-disk memmaps.

    Everything inherited works unchanged and with O(n) heap: ``strength``
    (segmented ``reduceat`` streams the weights file), ``degrees``
    (``np.diff`` over the indptr map), ``total_weight`` (NumPy's pairwise
    sum reads the map incrementally — bit-identical to the in-RAM sum of
    the same bytes). Only the O(E)-scratch members are overridden:
    ``validate`` runs chunk-wise and ``fingerprint`` hashes the files
    chunk-wise (and caches the digest into ``meta.json``).

    ``row_ids`` still materialises O(E) — chunked consumers (the
    multiprocess workers, the delta updater) never call it, but nothing
    prevents an explicit caller from paying for it.
    """

    path: str = ""
    chunk_edges: int = DEFAULT_CHUNK_EDGES

    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Chunk-wise sha256 over the payload files — the exact digest
        :func:`~repro.graph.fingerprint.compute_csr_sha256` produces for
        the same arrays, lazily computed once and cached in ``meta.json``
        so reopening the store never re-hashes it."""
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            step = max(self.chunk_edges, 1)
            for arr in (self.indptr, self.indices, self.weights, self.self_weight):
                for lo in range(0, len(arr), step):
                    h.update(np.ascontiguousarray(arr[lo:lo + step]).tobytes())
            object.__setattr__(self, "_fingerprint", h.hexdigest())
            self._update_meta(sha256=self._fingerprint)
        return self._fingerprint

    def _update_meta(self, **fields) -> None:
        """Best-effort write-back of cached derived values into meta.json
        (a read-only store directory just skips the cache)."""
        meta_path = os.path.join(self.path, META_NAME)
        try:
            with open(meta_path) as fh:
                meta = json.load(fh)
            meta.update(fields)
            tmp = meta_path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(meta, fh, indent=2)
            os.replace(tmp, meta_path)
        except OSError:
            pass

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Chunk-wise structural audit; raises GraphValidationError.

        Checks the same invariants as the in-RAM validator — indptr
        shape/monotonicity, index range, finite non-negative weights, sorted
        duplicate-free rows, no loops in the adjacency — in O(n) heap.
        Symmetry, which the in-RAM path checks with an O(E) double
        lexsort, is checked in two streaming accumulators: an XOR fold of
        an orientation-insensitive endpoint hash (see :func:`_edge_hash`
        — given duplicate-free rows, a zero fold means every directed
        record has its structural mirror), and a signed weight signature
        ``Σ ±w·g(u, v)`` (``+`` for ``u < v``, ``g`` a per-edge
        pseudorandom factor in ``[1, 2)``) whose mirrored terms cancel —
        compared against zero with the same relative tolerance the in-RAM
        validator's ``np.allclose`` weight check uses.
        """
        indptr = self.indptr
        if indptr.ndim != 1 or len(indptr) < 1:
            raise GraphValidationError("indptr must be 1-D with >= 1 entries")
        if indptr[0] != 0:
            raise GraphValidationError("indptr[0] must be 0")
        if indptr[-1] != len(self.indices):
            raise GraphValidationError("indptr[-1] must equal len(indices)")
        if len(self.indices) != len(self.weights):
            raise GraphValidationError("indices and weights must align")
        if len(self.self_weight) != self.n:
            raise GraphValidationError("self_weight must have one entry per vertex")
        step = max(self.chunk_edges, 1)
        for lo in range(0, len(indptr) - 1, step):
            hi = min(lo + step, len(indptr) - 1)
            if np.any(indptr[lo:hi + 1][1:] < indptr[lo:hi + 1][:-1]):
                raise GraphValidationError("indptr must be non-decreasing")
        for lo in range(0, self.n, step):
            hi = min(lo + step, self.n)
            if not _finite_non_negative(self.self_weight[lo:hi]):
                raise GraphValidationError("edge weight must be finite and >= 0")

        acc = np.uint64(0)
        wsig = 0.0
        wmag = 0.0
        for v0, v1 in iter_row_blocks(indptr, step):
            p0, p1 = int(indptr[v0]), int(indptr[v1])
            ids = np.asarray(self.indices[p0:p1])
            w = np.asarray(self.weights[p0:p1])
            if len(ids) == 0:
                continue
            if ids.min() < 0 or ids.max() >= self.n:
                raise GraphValidationError("neighbour id out of range")
            if not _finite_non_negative(w):
                raise GraphValidationError("edge weight must be finite and >= 0")
            deg = np.diff(indptr[v0:v1 + 1]).astype(np.int64)
            rows = np.repeat(np.arange(v0, v1, dtype=np.int64), deg)
            if np.any(ids == rows):
                raise GraphValidationError(
                    "self-loop found in adjacency; loops belong in self_weight"
                )
            if len(ids) > 1:
                same_row = rows[1:] == rows[:-1]
                d = np.diff(ids)
                if np.any(same_row & (d < 0)):
                    raise GraphValidationError("adjacency row not sorted")
                if np.any(same_row & (d == 0)):
                    raise GraphValidationError("adjacency row has duplicate neighbours")
            h = _edge_hash(rows, ids)
            acc ^= np.bitwise_xor.reduce(h)
            g = 1.0 + h.astype(np.float64) / 2.0**64
            term = w * g
            wsig += float(np.where(rows < ids, term, -term).sum())
            wmag += float(np.abs(term).sum())
        if acc != np.uint64(0):
            raise GraphValidationError("adjacency is not symmetric")
        # allclose-equivalent tolerance over the summed signature
        if abs(wsig) > 1e-8 + 1e-5 * wmag:
            raise GraphValidationError(
                "adjacency weights are not symmetric"
            )

    # ------------------------------------------------------------------ #
    def release_pages(self) -> None:
        """Drop this process's resident file-backed pages (``MADV_DONTNEED``).

        The data stays in the OS page cache; the next access minor-faults
        it back. Chunked consumers call this after each pass so peak RSS
        tracks the chunk size, not the file size. Best-effort no-op where
        madvise is unavailable.
        """
        for arr in (self.indices, self.weights):
            mm = getattr(arr, "_mmap", None)
            if mm is None:
                continue
            try:
                mm.madvise(_mmap_mod.MADV_DONTNEED)
            except (AttributeError, OSError, ValueError):
                return

    @property
    def resident_nbytes(self) -> int:
        """Heap bytes this graph pins per process: only ``self_weight``-
        scale O(n) metadata counts — the payload is file-backed and
        evictable. The serving registry budgets with this."""
        return int(self.indptr.nbytes + self.self_weight.nbytes)

    @property
    def store_nbytes(self) -> int:
        """On-disk bytes of the payload files."""
        return int(
            self.indptr.nbytes
            + self.indices.nbytes
            + self.weights.nbytes
            + self.self_weight.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MmapCSRGraph(name={self.name!r}, n={self.n}, "
            f"nnz={self.num_directed_edges}, path={self.path!r})"
        )


# --------------------------------------------------------------------- #
# writer (streaming builds) and save/open
# --------------------------------------------------------------------- #
class MmapCSRWriter:
    """Incremental writer for a store directory.

    The chunked builders (the external-sort converter, the disk
    generators) stream final CSR rows through :meth:`append_rows` in
    ascending vertex order; ``indptr`` and ``self_weight`` (both O(n))
    accumulate in RAM and hit disk at :meth:`finalize`. Nothing O(E) is
    ever resident.
    """

    def __init__(self, path: PathLike, n: int, name: str = "graph"):
        if n < 0:
            raise GraphFormatError("n must be >= 0")
        self.path = os.fspath(path)
        self.n = n
        self.name = name
        os.makedirs(self.path, exist_ok=True)
        self._counts = np.zeros(n, dtype=np.int64)
        self._self_weight = np.zeros(n, dtype=np.float64)
        self._next_row = 0
        self._nnz = 0
        self._idx_fh = open(os.path.join(self.path, "indices.bin"), "wb")
        self._w_fh = open(os.path.join(self.path, "weights.bin"), "wb")
        self._finalized = False

    def append_rows(
        self, counts: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        """Append the adjacency of the next ``len(counts)`` rows.

        ``indices``/``weights`` hold those rows' entries concatenated;
        each row must already be sorted by neighbour id and coalesced.
        """
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        if total != len(indices) or total != len(weights):
            raise GraphFormatError("row counts do not match entry arrays")
        if self._next_row + len(counts) > self.n:
            raise GraphFormatError("more rows appended than the declared n")
        self._counts[self._next_row:self._next_row + len(counts)] = counts
        self._next_row += len(counts)
        self._nnz += total
        self._idx_fh.write(np.ascontiguousarray(indices, dtype="<i8").tobytes())
        self._w_fh.write(np.ascontiguousarray(weights, dtype="<f8").tobytes())

    def add_self_weight(self, vertices: np.ndarray, weights: np.ndarray) -> None:
        """Accumulate self-loop weight (callable any time before finalize)."""
        np.add.at(self._self_weight, np.asarray(vertices, dtype=np.int64),
                  np.asarray(weights, dtype=np.float64))

    def finalize(
        self, validate: bool = True, chunk_edges: int = DEFAULT_CHUNK_EDGES
    ) -> "MmapCSRGraph":
        """Write indptr/self_weight/meta and open the finished store."""
        if self._finalized:
            raise GraphFormatError("writer already finalized")
        if self._next_row != self.n:
            raise GraphFormatError(
                f"only {self._next_row} of {self.n} rows were appended"
            )
        self._finalized = True
        self._idx_fh.close()
        self._w_fh.close()
        indptr = np.zeros(self.n + 1, dtype="<i8")
        np.cumsum(self._counts, out=indptr[1:])
        indptr.tofile(os.path.join(self.path, "indptr.bin"))
        self._self_weight.astype("<f8").tofile(
            os.path.join(self.path, "self_weight.bin")
        )
        meta = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "n": self.n,
            "nnz": self._nnz,
        }
        with open(os.path.join(self.path, META_NAME), "w") as fh:
            json.dump(meta, fh, indent=2)
        return open_mmap(self.path, validate=validate, chunk_edges=chunk_edges)

    def abort(self) -> None:
        """Close handles without finalizing (error-path cleanup)."""
        if not self._finalized:
            self._finalized = True
            self._idx_fh.close()
            self._w_fh.close()

    def __enter__(self) -> "MmapCSRWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()


def save_mmap(
    graph: CSRGraph,
    path: PathLike,
    name: str | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> MmapCSRGraph:
    """Write ``graph`` into a store directory and reopen it memmapped.

    Chunk-wise copy, so the source may itself be memmapped (store-to-store
    copy never materialises O(E)). A digest already cached on the source
    is carried into ``meta.json``, making the copy's ``fingerprint`` free.
    """
    path = os.fspath(path)
    os.makedirs(path, exist_ok=True)
    step = max(chunk_edges, 1)
    for attr, (fname, dtype) in ARRAY_FILES.items():
        arr = getattr(graph, attr)
        with open(os.path.join(path, fname), "wb") as fh:
            for lo in range(0, len(arr), step):
                fh.write(
                    np.ascontiguousarray(arr[lo:lo + step], dtype=dtype).tobytes()
                )
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": name or graph.name,
        "n": int(graph.n),
        "nnz": int(graph.num_directed_edges),
    }
    if graph._fingerprint is not None:
        meta["sha256"] = graph._fingerprint
    if graph._total_weight is not None:
        meta["total_weight"] = float(graph._total_weight)
    with open(os.path.join(path, META_NAME), "w") as fh:
        json.dump(meta, fh, indent=2)
    # the source was (or is being) validated by its own loader; the copy
    # is byte-identical, so re-validating here would be pure double work
    return open_mmap(path, validate=False, chunk_edges=chunk_edges)


def open_mmap(
    path: PathLike,
    validate: bool = True,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    name: str | None = None,
) -> MmapCSRGraph:
    """Open a store directory as a read-only :class:`MmapCSRGraph`.

    ``validate=True`` (the default, matching the fail-fast policy of the
    other loaders) runs the chunk-wise structural audit; workers re-opening
    a store their parent already validated pass ``False``.
    """
    path = os.fspath(path)
    meta_path = os.path.join(path, META_NAME)
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"cannot read graph store {path!r}: {exc}") from exc
    if meta.get("format") != FORMAT_NAME:
        raise GraphFormatError(
            f"{path!r} is not a {FORMAT_NAME} store (format={meta.get('format')!r})"
        )
    n = int(meta["n"])
    nnz = int(meta["nnz"])
    arrays = {}
    shapes = {
        "indptr": n + 1,
        "indices": nnz,
        "weights": nnz,
        "self_weight": n,
    }
    for attr, (fname, dtype) in ARRAY_FILES.items():
        fpath = os.path.join(path, fname)
        want = shapes[attr]
        try:
            size = os.path.getsize(fpath)
        except OSError as exc:
            raise GraphFormatError(f"store {path!r} is missing {fname}") from exc
        if size != want * 8:
            raise GraphFormatError(
                f"store {path!r}: {fname} holds {size} bytes, expected {want * 8}"
            )
        arrays[attr] = (
            np.memmap(fpath, dtype=dtype, mode="r", shape=(want,))
            if want
            else np.empty(0, dtype=dtype)
        )
    graph = MmapCSRGraph(
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        weights=arrays["weights"],
        self_weight=arrays["self_weight"],
        name=name or str(meta.get("name", os.path.basename(path))),
        path=path,
        chunk_edges=chunk_edges,
    )
    if "sha256" in meta:
        object.__setattr__(graph, "_fingerprint", str(meta["sha256"]))
    if "total_weight" in meta:
        object.__setattr__(graph, "_total_weight", float(meta["total_weight"]))
    if validate:
        try:
            graph.validate()
        except GraphValidationError as exc:
            raise GraphValidationError(f"{path}: {exc}") from exc
    return graph


def split_by_edges(
    vertices: np.ndarray,
    degrees: np.ndarray,
    chunk_edges: int,
    release: Optional[Callable[[], None]] = None,
) -> Iterator[np.ndarray]:
    """Split a sorted vertex array into consecutive slices of ≤
    ``chunk_edges`` summed degree (single oversized vertices get their own
    slice). Calls ``release`` after each yielded slice is consumed —
    that's where chunked decide/update loops drop their resident pages.
    """
    if len(vertices) == 0:
        return
    cum = np.cumsum(degrees, dtype=np.int64)
    lo = 0
    while lo < len(vertices):
        base = cum[lo - 1] if lo else 0
        hi = int(np.searchsorted(cum, base + chunk_edges, side="right"))
        hi = max(hi, lo + 1)
        yield vertices[lo:hi]
        if release is not None:
            release()
        lo = hi

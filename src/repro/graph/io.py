"""Graph I/O: edge-list text files and a fast NPZ binary format.

The paper's artifact ships ``prepare_graph.sh`` scripts that download SNAP /
LAW edge lists; our stand-ins are generated, but the loaders are provided so
a user with the real datasets can feed them straight in.
"""

from __future__ import annotations

import io
import os
from typing import Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import validate_graph
from repro.graph.csr import CSRGraph

PathLike = Union[str, os.PathLike]


def load_edge_list(
    path: PathLike,
    comments: str = "#",
    weighted: bool = False,
    name: str | None = None,
    chunk_edges: int | None = None,
) -> CSRGraph:
    """Load a whitespace-separated edge-list file (SNAP style).

    Lines starting with ``comments`` are skipped. Vertex ids may be sparse;
    they are compacted to ``[0, n)`` preserving numeric order. With
    ``weighted=True`` a third column is read as the edge weight.

    The file is parsed in bounded batches and the CSR is assembled through
    the chunked builder (:mod:`repro.graph.external`), so peak memory
    tracks the final graph size plus one chunk — never a whole-file text
    buffer or a symmetrise-time edge-array copy. The output arrays are
    bit-identical to the historical whole-file path.
    """
    from repro.graph.external import build_from_edge_chunks, iter_edge_list_chunks
    from repro.graph.mmap_store import DEFAULT_CHUNK_EDGES

    step = chunk_edges or DEFAULT_CHUNK_EDGES
    spool: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    ids: np.ndarray | None = None
    for src, dst, w in iter_edge_list_chunks(
        path, comments=comments, weighted=weighted, chunk_lines=step
    ):
        spool.append((src, dst, w))
        chunk_ids = np.union1d(src, dst)
        ids = chunk_ids if ids is None else np.union1d(ids, chunk_ids)
    if ids is None:
        raise GraphFormatError(f"edge list {path!r} contains no edges")
    id_map = ids

    def chunks():
        for src, dst, w in spool:
            yield (
                np.searchsorted(id_map, src),
                np.searchsorted(id_map, dst),
                w,
            )

    gname = name or os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return build_from_edge_chunks(
        chunks,
        len(ids),
        name=gname,
        source=os.fspath(path),
        chunk_edges=step,
        on_edges_done=spool.clear,
        validate=True,
    )


def save_edge_list(graph: CSRGraph, path: PathLike, header: bool = True) -> None:
    """Write each undirected edge once as ``u v w`` lines."""
    buf = io.StringIO()
    if header:
        buf.write(f"# {graph.name}: n={graph.n} edges={graph.num_edges}\n")
    for u, v, w in graph.iter_edges():
        buf.write(f"{u} {v} {w:.10g}\n")
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Save in the library's binary format (compressed ``.npz``)."""
    np.savez_compressed(
        path,
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
        self_weight=graph.self_weight,
        name=np.array(graph.name),
    )


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph saved with :func:`save_npz`."""
    try:
        with np.load(path, allow_pickle=False) as data:
            graph = CSRGraph(
                indptr=data["indptr"],
                indices=data["indices"],
                weights=data["weights"],
                self_weight=data["self_weight"],
                name=str(data["name"]),
            )
    except (KeyError, OSError, ValueError) as exc:
        raise GraphFormatError(f"cannot load npz graph {path!r}: {exc}") from exc
    # NPZ bypasses the edge-list builder entirely, so this is the only
    # gate between an on-disk payload and the kernels — audit everything.
    return validate_graph(graph, source=os.fspath(path))


def load_graph(
    path: PathLike,
    weighted: bool = False,
    mmap: bool = False,
    name: str | None = None,
) -> CSRGraph:
    """Load a graph from any supported on-disk form (the CLI entry point).

    Dispatch by shape of ``path``:

    * a **graph store directory** (``meta.json`` + ``.bin`` payloads) opens
      as an out-of-core :class:`~repro.graph.mmap_store.MmapCSRGraph` —
      the adjacency stays on disk and is paged in on demand;
    * a ``.npz`` file loads via :func:`load_npz` (zip members cannot be
      memory-mapped, so this is always an in-RAM graph);
    * anything else parses as an edge-list text file. With ``mmap=True``
      the text file is streamed into a sibling ``<path>.store/`` directory
      (cached across runs, rebuilt when the source file changes) and
      opened memmapped instead of built in RAM.
    """
    from repro.graph.mmap_store import is_mmap_store, open_mmap

    fspath = os.fspath(path)
    if is_mmap_store(fspath):
        return open_mmap(fspath, name=name)
    if os.path.isdir(fspath):
        raise GraphFormatError(
            f"{fspath!r} is a directory but not a graph store (no meta.json)"
        )
    if fspath.endswith(".npz"):
        return load_npz(fspath)
    if mmap:
        return _edge_list_store(fspath, weighted=weighted, name=name)
    return load_edge_list(fspath, weighted=weighted, name=name)


def _edge_list_store(path: str, weighted: bool, name: str | None) -> CSRGraph:
    """Open (or build) the cached store for an edge-list text file.

    The store remembers the source file's size and mtime in its
    ``meta.json``; a stale or missing store triggers a streaming rebuild
    via :func:`~repro.graph.external.edge_list_to_mmap`.
    """
    import json
    import shutil

    from repro.graph.external import edge_list_to_mmap
    from repro.graph.mmap_store import META_NAME, is_mmap_store, open_mmap

    store = path + ".store"
    st = os.stat(path)
    stamp = {"size": st.st_size, "mtime_ns": st.st_mtime_ns}
    if is_mmap_store(store):
        try:
            with open(os.path.join(store, META_NAME)) as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            meta = {}
        if meta.get("source") == stamp:
            # already validated at build time; trust the cached store
            return open_mmap(store, validate=False, name=name)
        shutil.rmtree(store, ignore_errors=True)
    graph = edge_list_to_mmap(path, store, weighted=weighted, name=name)
    graph._update_meta(source=stamp)
    return graph


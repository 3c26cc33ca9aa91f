"""A first-class view of the Louvain hierarchy.

:class:`Dendrogram` wraps a :class:`~repro.core.louvain.LouvainResult`
into the tree structure users actually want to query: cut it at any level,
walk a community's subtree, and list each super-community's children.

The node id convention: ``(level, community_id)`` where level -1 denotes
the leaves (original vertices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.louvain import LouvainResult
from repro.graph.csr import CSRGraph


@dataclass
class Dendrogram:
    """Hierarchy of community merges across Louvain rounds."""

    #: assignments[l][v] = community (on the ORIGINAL vertices) after round l
    assignments: list[np.ndarray]
    n: int

    @classmethod
    def from_result(cls, result: LouvainResult) -> "Dendrogram":
        n = len(result.communities)
        assignments = [
            result.communities_at_level(level)
            for level in range(result.num_levels)
        ]
        return cls(assignments=assignments, n=n)

    @property
    def num_levels(self) -> int:
        return len(self.assignments)

    def cut(self, level: int) -> np.ndarray:
        """Community per original vertex after round ``level`` (compacted
        ids). ``level = -1`` gives singletons; the last level is the final
        partition."""
        if level == -1:
            return np.arange(self.n, dtype=np.int64)
        if not (0 <= level < self.num_levels):
            raise IndexError(f"level {level} outside [-1, {self.num_levels})")
        _, compact = np.unique(self.assignments[level], return_inverse=True)
        return compact.astype(np.int64)

    def num_communities(self, level: int) -> int:
        return int(self.cut(level).max()) + 1 if self.n else 0

    def children(self, level: int, community: int) -> list[int]:
        """Sub-communities (at ``level - 1``) merged into ``community`` at
        ``level``. At level 0 the children are original vertex ids."""
        cur = self.cut(level)
        members = np.flatnonzero(cur == community)
        if len(members) == 0:
            raise KeyError(f"community {community} empty at level {level}")
        if level == 0:
            return members.tolist()
        prev = self.cut(level - 1)
        return sorted(set(prev[members].tolist()))

    def members(self, level: int, community: int) -> np.ndarray:
        """Original vertices of ``community`` at ``level``."""
        return np.flatnonzero(self.cut(level) == community)

    def is_refinement_chain(self) -> bool:
        """Whether every level is a coarsening of the previous one (a core
        Louvain invariant; exposed for auditing custom hierarchies)."""
        for level in range(1, self.num_levels):
            prev = self.cut(level - 1)
            cur = self.cut(level)
            # each prev community must map into exactly one cur community
            pair_ids = prev.astype(np.int64) * (cur.max() + 1) + cur
            if len(np.unique(pair_ids)) != len(np.unique(prev)):
                return False
        return True


def dendrogram_from_graph(graph: CSRGraph, **gala_kwargs) -> Dendrogram:
    """Convenience: run GALA and wrap the hierarchy."""
    from repro.core.gala import GalaConfig, gala

    result = gala(graph, GalaConfig(**gala_kwargs))
    return Dendrogram.from_result(result)

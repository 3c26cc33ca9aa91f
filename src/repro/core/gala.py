"""GALA — the top-level public API of this reproduction.

``gala(graph)`` runs the paper's full system with its defaults: modularity
gain-based pruning (MG), delta community-weight updates, Grappolo's
convergence heuristics, and multi-round hierarchy construction. Feature
flags expose every ablation the paper evaluates (Figure 6: baseline vs
+MG vs +MG+MM), and ``backend="gpusim"`` routes DecideAndMove through the
simulated GPU with workload-aware kernel dispatch (Section 4) so the memory
-management experiments can measure simulated cycles.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.core.engine import AlgorithmConfig, check_config_fields
from repro.core.kernels.vectorized import KERNEL_NAMES
from repro.core.louvain import LouvainResult, louvain
from repro.core.phase1 import Phase1Config, Phase1Result, run_phase1
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:
    from repro.multiprocess import MultiprocessConfig

#: the DecideAndMove backends :attr:`GalaConfig.backend` names: the host
#: kernels of :func:`~repro.core.kernels.make_kernel`, then the simulated GPU
BACKENDS = (*KERNEL_NAMES, "gpusim")


@dataclass
class GalaConfig:
    """Feature flags of the GALA pipeline.

    The defaults are the paper's full system. Turning ``pruning`` to
    ``"none"`` and ``weight_update`` to ``"recompute"`` yields the Figure 6
    baseline; adding MG alone is the middle bar.

    Test oracles are not fields: the simulator's scalar engine is chosen
    per kernel (``engine=``) or by ``REPRO_GPUSIM_ENGINE``, and a run is
    sanitized inside an ``analysis.sanitized(...)`` block or under
    ``REPRO_SANITIZE``.
    """

    #: pruning strategy (``mg`` = paper default; see repro.core.pruning)
    pruning: str = "mg"
    #: community-weight update scheme (``delta`` = paper Section 3.5)
    weight_update: str = "delta"
    #: DecideAndMove backend, one of :data:`BACKENDS`: ``"auto"`` (the
    #: default — the compiled ``jit`` loop when a compile provider passed
    #: its warm-up probe, else ``vectorized``), ``"vectorized"`` (pure
    #: NumPy), ``"jit"`` (the compiled loop; raises
    #: :class:`~repro.errors.KernelUnavailableError` when none compiles
    #: here) or ``"gpusim"`` (simulated GPU with workload-aware kernel
    #: dispatch). All are bit-identical; see
    #: :func:`repro.core.kernels.make_kernel`. A host backend also runs the
    #: delta weight update and the aggregate refresh; ``runtime=
    #: "multiprocess"`` resolves it once and runs it in every rank worker.
    backend: str = "auto"
    #: phase-1 runtime: ``"local"`` (single process, the default) or
    #: ``"multiprocess"`` (one worker process per rank over shared memory;
    #: see :mod:`repro.multiprocess.runtime`). Multiprocess applies to the
    #: first round only — coarsened levels are tiny and run locally. Both
    #: run ``backend`` (the ranks in their decide, the parent in the chunked
    #: weight update), which must be a host backend there. Every runtime
    #: is bit-identical for every rank count.
    runtime: str = "local"
    #: rank count for the ``"multiprocess"`` runtime
    ranks: int = 2
    #: gain convention (True = Grappolo/standard; see DESIGN.md)
    remove_self: bool = True
    #: resolution gamma (1.0 = classic modularity; >1 favours smaller
    #: communities, <1 larger ones)
    resolution: float = 1.0
    #: phase-1 modularity threshold (paper: 1e-6)
    theta: float = 1e-6
    #: consecutive below-theta iterations tolerated (see Phase1Config)
    patience: int = 3
    #: stop multi-round refinement below this per-round improvement
    round_theta: float = 1e-6
    max_iterations: int = 500
    max_rounds: int = 20
    seed: int = 0
    #: only run phase 1 of the first round (the paper's measurement target:
    #: "the first phase in the initial round dominates the overall
    #: computation")
    phase1_only: bool = False

    #: fields that select *how* a run executes, not *what* it computes.
    #: Every backend/runtime combination is bit-identical (the
    #: cross-backend exactness matrix pins this), so two configs
    #: differing only here produce the same assignment — the result cache
    #: must treat them as the same key.
    EXECUTION_FIELDS = frozenset({"backend", "runtime", "ranks"})

    #: fields that select *what* a run computes — exactly the fields
    #: serialized by :meth:`cache_key`. Every dataclass field must be
    #: listed here, in :data:`EXECUTION_FIELDS`, or be ``seed`` (keyed
    #: separately by the result cache); the ``config-classification``
    #: lint rule and a runtime guard in :meth:`cache_key` both enforce
    #: the classification, so a new field cannot silently leak into (or
    #: stay out of) cache keys without a deliberate decision.
    SEMANTIC_FIELDS = frozenset(
        {
            "pruning",
            "weight_update",
            "remove_self",
            "resolution",
            "theta",
            "patience",
            "round_theta",
            "max_iterations",
            "max_rounds",
            "phase1_only",
        }
    )

    def __post_init__(self) -> None:
        # Every field is checked here, not when the run starts, so a bad
        # value fails the same way whether or not a cached result for the
        # semantic config exists (the server turns it into a 400), and a
        # run that would fail midway or compute nonsense never starts.
        # Semantic fields go through the same resolvers the run uses.
        check_config_fields(
            self,
            bools=("remove_self", "phase1_only"),
            counts=("ranks", "max_iterations", "max_rounds"),
        )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{list(BACKENDS)}"
            )
        if self.runtime not in ("local", "multiprocess"):
            raise ValueError(
                f"unknown runtime {self.runtime!r}; expected 'local' or "
                f"'multiprocess'"
            )
        if self.runtime == "multiprocess" and self.backend == "gpusim":
            raise ValueError(
                "runtime='multiprocess' needs a host backend (auto, "
                "vectorized or jit); its rank workers do not run the "
                "simulated GPU"
            )

    def cache_key(self) -> str:
        """Canonical serialization of the *semantic* configuration.

        The key is a JSON object with sorted field names and every
        default expanded, covering exactly the fields that can change the
        detection result: two ``GalaConfig`` instances produce the same
        key iff a deterministic run must produce the same assignment on
        the same graph and seed. ``seed`` is excluded — the serving
        layer's result cache keys on ``(fingerprint, cache_key, seed)``
        so a seed sweep reads as one config — and so are the
        execution-only fields (:data:`EXECUTION_FIELDS`), which select a
        backend but not an answer.

        Round-trips through :meth:`from_cache_key`.
        """
        unclassified = {
            f.name
            for f in dataclasses.fields(self)
            if f.name not in self.SEMANTIC_FIELDS
            and f.name not in self.EXECUTION_FIELDS
            and f.name != "seed"
        }
        if unclassified:
            raise TypeError(
                "GalaConfig fields missing a cache-key classification "
                f"(add to SEMANTIC_FIELDS or EXECUTION_FIELDS): "
                f"{sorted(unclassified)}"
            )
        fields = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name not in self.EXECUTION_FIELDS and f.name != "seed"
        }
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_cache_key(cls, key: str) -> "GalaConfig":
        """Rebuild a config from :meth:`cache_key` output.

        Execution-only fields and ``seed`` come back at their defaults
        (the key deliberately does not carry them); everything semantic
        round-trips exactly: ``GalaConfig.from_cache_key(c.cache_key())
        .cache_key() == c.cache_key()`` for any ``c``.
        """
        fields = json.loads(key)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - known
        if unknown:
            raise ValueError(f"cache key carries unknown fields: {sorted(unknown)}")
        return cls(**fields)

    def phase1_config(self) -> Phase1Config:
        kernel: Union[str, object] = self.backend
        if self.backend == "gpusim":
            from repro.core.kernels.dispatch import make_gpusim_kernel

            kernel = make_gpusim_kernel()
        return Phase1Config(kernel=kernel, **self._algorithm_fields())

    def multiprocess_config(self) -> "MultiprocessConfig":
        """The rank-runtime config of ``runtime="multiprocess"`` (its
        round 0 runs on ``ranks`` worker processes, each running the
        host ``backend`` this config names)."""
        from repro.multiprocess import MultiprocessConfig

        return MultiprocessConfig(
            kernel=self.backend, num_ranks=self.ranks, **self._algorithm_fields()
        )

    def _algorithm_fields(self) -> dict:
        """The shared :class:`~repro.core.engine.AlgorithmConfig` fields
        this config carries (all but the measurement-only ``oracle``)."""
        own = {f.name for f in dataclasses.fields(self)}
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(AlgorithmConfig)
            if f.name in own
        }


def gala(
    graph: CSRGraph,
    config: GalaConfig | None = None,
) -> Union[LouvainResult, Phase1Result]:
    """Detect communities in ``graph`` with GALA.

    Returns a :class:`~repro.core.louvain.LouvainResult` (or a
    :class:`~repro.core.phase1.Phase1Result` when ``config.phase1_only``).

    Example
    -------
    >>> from repro.graph.generators import ring_of_cliques
    >>> from repro.core import gala
    >>> result = gala(ring_of_cliques(8, 6))
    >>> result.num_communities
    8
    """
    cfg = config or GalaConfig()
    from repro import analysis

    # Sanitizer activation: an already active session (a caller's
    # ``analysis.sanitized(...)`` block) is reused so its log accumulates
    # across runs; otherwise REPRO_SANITIZE may turn one on.
    san = analysis.current()
    mode = analysis.resolve_sanitize(None)
    if mode is not None and san is None:
        with analysis.sanitized(mode) as own:
            return _run_gala(graph, cfg, own)
    return _run_gala(graph, cfg, san)


def _multiprocess_runner(cfg: GalaConfig):
    """Phase-1 runner routing round 0 through the multiprocess runtime.

    Only the first round sees the original (large) graph; coarsened levels
    are orders of magnitude smaller, where worker startup would dominate,
    so they stay on the local path. Both paths are bit-identical.
    """
    from repro.multiprocess import run_multiprocess_phase1

    mp_cfg = cfg.multiprocess_config()

    def runner(graph: CSRGraph, p1cfg: Phase1Config, round_idx: int):
        if round_idx == 0:
            return run_multiprocess_phase1(graph, mp_cfg)
        return run_phase1(graph, p1cfg)

    return runner


def _run_gala(
    graph: CSRGraph, cfg: GalaConfig, san
) -> Union[LouvainResult, Phase1Result]:
    p1cfg = cfg.phase1_config()
    runner = _multiprocess_runner(cfg) if cfg.runtime == "multiprocess" else None
    if cfg.phase1_only:
        result = runner(graph, p1cfg, 0) if runner else run_phase1(graph, p1cfg)
    else:
        # through the module global, which tracing harnesses may swap
        result = louvain(
            graph,
            phase1_config=p1cfg,
            round_theta=cfg.round_theta,
            max_rounds=cfg.max_rounds,
            phase1_runner=runner,
        )

    # Every GALA result carries a run manifest: config, seed, graph
    # fingerprint, environment, per-level breakdown — plus the metrics
    # summary when an observability session is active and the sanitizer
    # report when the run was sanitized. `repro report` renders and
    # diffs these.
    from repro import obs

    sess = obs.current()
    result.manifest = obs.build_manifest(
        result,
        graph,
        config=cfg,
        metrics=sess.summary() if sess is not None else None,
        runtime="gala",
        sanitizer=san.report() if san is not None else None,
    )
    return result

"""The unified BSP phase-1 engine (paper Algorithm 1, written once).

The paper's optimisation loop — decide → apply/sync → weight-update →
prune → converge — is the same whether DecideAndMove runs on one host
kernel, on partitioned simulated GPUs (collective or halo-exchange sync),
or on rank processes. This module is that loop, written exactly once and parameterized
by an :class:`Executor`:

* :meth:`Executor.decide` proposes the next assignment for the active set
  from the current BSP snapshot (every runtime's kernels are row-local, so
  the proposal depends only on the shared snapshot — the property that
  makes all executors bit-identical);
* :meth:`Executor.apply_and_sync` commits the move step: replica/halo
  synchronisation, community-weight updating, aggregate refresh;
* :meth:`Executor.collect` attaches the runtime's cost/comm accounting
  (kernel choice, simulated cycles, sync bytes) to the shared
  :class:`IterationTrace` record.

The engine owns everything the three pre-unification runtimes each
hand-rolled: active-set management and pruning, the limit-cycle-proof
convergence rule (:class:`ConvergenceTracker`), per-iteration tracing, the
per-phase wall clock (:class:`PhaseClock`), and the oracle/FNR instrumentation
(:class:`OracleProbe`) — which therefore works identically on the local,
multi-GPU, and multiprocess runtimes.
"""

from __future__ import annotations

import math
import numbers
import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Iterator, Optional, TypeVar, Union

import numpy as np

from repro import analysis
from repro.core.pruning.base import IterationContext, PruningStrategy, make_strategy
from repro.core.state import CommunityState
from repro.core.weights import make_weight_updater
from repro.obs import _session as obs
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.utils.rng import SeedLike, as_generator


# --------------------------------------------------------------------- #
# convergence
# --------------------------------------------------------------------- #
class ConvergenceTracker:
    """The engine's single convergence rule (Grappolo-derived, footnote 1).

    An iteration only counts as progress if it sets a new best modularity
    by at least ``theta`` — otherwise a limit cycle (Q bouncing between two
    values) would reset a naive last-iteration streak forever. The tracker
    rides out up to ``patience`` consecutive non-improving iterations and
    snapshots the best state seen, so a final oscillating sweep never costs
    modularity. ``patience=1`` reproduces the bare Algorithm 1 termination.
    """

    def __init__(
        self,
        theta: float,
        patience: int,
        initial_q: float,
        snapshot: Any = None,
    ):
        self.check(theta, patience)
        self.theta = theta
        self.patience = patience
        #: best modularity seen so far (seeded with the initial state's, so
        #: a run where every sweep loses ground returns the initial state,
        #: never a degraded one)
        self.best_q = initial_q
        #: snapshot associated with ``best_q``
        self.best = snapshot
        #: consecutive iterations without a >= theta improvement
        self.bad_streak = 0

    @staticmethod
    def check(theta: float, patience: int) -> None:
        """Reject silently-broken configurations up front: patience < 1
        stops after every iteration regardless of progress, and a negative
        (or NaN) theta counts every iteration as progress, so a limit cycle
        never converges and runs to max_iterations."""
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if not theta >= 0:
            raise ValueError(f"theta must be >= 0, got {theta}")

    def update(self, next_q: float, snapshot: Callable[[], Any]) -> bool:
        """Observe one iteration's modularity; returns whether it counted
        as progress. ``snapshot`` is called only on a strict new best."""
        improved = next_q >= self.best_q + self.theta
        if next_q > self.best_q:
            self.best_q = next_q
            self.best = snapshot()
        self.bad_streak = 0 if improved else self.bad_streak + 1
        return improved

    @property
    def converged(self) -> bool:
        return self.bad_streak >= self.patience

    def select(self, final_q: float, final: Any) -> tuple[float, Any]:
        """Pick the returned (q, state): the best snapshot when it strictly
        beats the final sweep, else the final state (ties keep the final
        state — the bit-identity guarantee covers limit cycles too)."""
        if self.best is not None and self.best_q > final_q:
            return self.best_q, self.best
        return final_q, final


# --------------------------------------------------------------------- #
# per-phase wall clock
# --------------------------------------------------------------------- #
class PhaseClock:
    """One run's wall-clock seconds per phase (paper Figure 8).

    Each phase interval is measured once, by one ``perf_counter`` pair:
    its duration adds to ``seconds[bucket]`` and the same start/end are
    recorded on ``tracer`` as the span ``span`` (a no-op on the null
    tracer), so the Figure-8 buckets are exactly the sum of the matching
    trace spans. Buckets appear in first-measured order.
    """

    def __init__(self, tracer: Union[Tracer, NullTracer]):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def measure(self, bucket: str, span: str, **args: Any) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.seconds[bucket] = self.seconds.get(bucket, 0.0) + (end - start)
            self.tracer.record(span, start, end, args or None)


# --------------------------------------------------------------------- #
# the unified per-iteration record
# --------------------------------------------------------------------- #
@dataclass
class IterationTrace:
    """Everything observed in one BSP iteration, on any runtime.

    One schema carries what the local, multi-GPU, and multiprocess runtimes
    each used to record separately: movement and modularity (all runtimes),
    kernel/backend accounting (local), synchronisation plans and simulated
    cycles (multi-GPU), and halo-exchange volume (halo sync, multiprocess). Fields a
    runtime does not produce stay at their defaults, so consumers
    (``bench/reporting.py``, ``metrics/fnr_fpr.py``) handle every runtime's
    history uniformly.
    """

    iteration: int
    num_active: int
    num_moved: int
    modularity: float
    delta_q: float
    #: whether the active set was an actual prediction (False in iteration 0,
    #: where every strategy starts with all vertices active)
    predicted: bool
    #: adjacency entries streamed by DecideAndMove this iteration
    active_edges: int = 0
    #: adjacency entries of the vertices that moved (the delta weight
    #: update's workload; Figure 8's P2 stage)
    moved_edges: int = 0
    #: oracle fields (populated only when the engine runs with oracle=True)
    oracle_moved: Optional[int] = None
    false_negatives: Optional[int] = None
    false_positives: Optional[int] = None
    #: aggregation path the kernel ran this iteration (None for plain
    #: callables that don't report one)
    kernel_backend: Optional[str] = None
    #: threads the compiled decide ran on (1 on graphs below
    #: :data:`~repro.core.kernels.jit.PARALLEL_MIN_ENTRIES` entries; the
    #: largest rank's count on the multiprocess runtime; None for NumPy
    #: kernels)
    kernel_threads: Optional[int] = None
    #: one-off jit compile/warm-up seconds charged to this iteration
    #: (nonzero only on the first iteration in the process that used a
    #: compiled backend)
    kernel_compile_s: float = 0.0
    # number of inactive vertices, set by the engine
    num_inactive: int = 0
    #: dense/sparse synchronisation decision (multi-GPU runtime)
    sync_plan: Optional[Any] = None
    #: synchronisation payload bytes this iteration (multi-GPU: the chosen
    #: sync volume; halo exchange: its bytes, all ranks summed)
    comm_bytes: int = 0
    #: point-to-point messages this iteration (halo exchange)
    comm_messages: int = 0
    #: simulated device cycles charged this iteration (gpusim-backed
    #: runtimes; 0.0 where no simulated device is involved)
    sim_cycles: float = 0.0

    @property
    def inactive_rate(self) -> float:
        """Fraction of vertices pruned this iteration (paper Figure 7)."""
        total = self.num_active + self.num_inactive
        return self.num_inactive / total if total else 0.0

    @property
    def unmoved_rate(self) -> float:
        """Fraction of processed-or-not vertices that did not move."""
        total = self.num_active + self.num_inactive
        return 1.0 - self.num_moved / total if total else 1.0


# --------------------------------------------------------------------- #
# executor protocol
# --------------------------------------------------------------------- #
class Executor(ABC):
    """One runtime's implementation of the per-iteration BSP stages.

    An executor owns its :class:`CommunityState` (mutated in place as the
    engine drives it) plus whatever runtime resources it needs (kernel
    caches, simulated devices, rank views). The engine guarantees the call
    order ``decide → apply_and_sync → collect`` once per iteration.
    """

    #: the shared BSP state; set in the constructor
    state: CommunityState
    #: the compiled :class:`~repro.core.kernels.jit.JitRuntime` the
    #: executor runs its kernels through, if any; the pruning strategy
    #: gets it on every :class:`IterationContext`
    runtime: Optional[Any] = None

    def setup(self, clock: PhaseClock) -> None:
        """Called once before iteration 0 with the run's phase clock, on
        which the executor times the phases inside :meth:`apply_and_sync`."""
        self.clock = clock

    @abstractmethod
    def decide(self, active_idx: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Propose the next assignment for the active set.

        ``active_idx`` is the sorted active vertex ids, ``active`` the same
        set as a boolean mask. Returns a full-length community array where
        non-active entries keep their current community. Must not mutate
        the state — the engine commits via :meth:`apply_and_sync`.
        """

    @abstractmethod
    def apply_and_sync(self, next_comm: np.ndarray, moved: np.ndarray) -> float:
        """Commit the BSP move step and return the new modularity.

        Responsible for replica/halo synchronisation, the community-weight
        update, and the aggregate refresh; on return ``self.state`` must be
        the consistent snapshot of the next iteration.
        """

    def collect(self, trace: IterationTrace) -> None:
        """Attach this runtime's cost/comm accounting to the trace."""

    def profilers(self) -> dict:
        """Named :class:`~repro.gpusim.profiler.SimProfiler` instances this
        runtime charges, for the observability layer to bridge into its
        metrics registry at the end of a run. Runtimes without simulated
        devices return the default empty dict."""
        return {}


# --------------------------------------------------------------------- #
# oracle instrumentation
# --------------------------------------------------------------------- #
class OracleProbe:
    """Engine-level FNR/FPR instrumentation (paper Table 1).

    Ground truth is what the *unpruned* engine would do on the same BSP
    snapshot. Every executor's decide step is row-local, so one full-set
    decide serves both purposes: the active-set proposal is its exact
    restriction (tested invariant) — oracle mode costs one decide over the
    full vertex set per iteration, not two. Works identically on the
    local, multi-GPU, and multiprocess executors. Compute charges in oracle
    mode reflect the full-set decide (measurement-only, as in the paper);
    communication covers the committed moves only, because the rank
    executors take their movers from the ``moved`` mask the engine passes
    to :meth:`Executor.apply_and_sync`.
    """

    def __init__(self, n: int):
        self.all_idx = np.arange(n, dtype=np.int64)
        self.all_active = np.ones(n, dtype=bool)
        self._oracle_next: Optional[np.ndarray] = None

    def decide(self, executor: Executor, active: np.ndarray) -> np.ndarray:
        """Full-set decide; returns the active-set restriction."""
        comm = executor.state.comm
        self._oracle_next = executor.decide(self.all_idx, self.all_active)
        next_comm = comm.copy()
        next_comm[active] = self._oracle_next[active]
        return next_comm

    def moved(self, comm: np.ndarray) -> np.ndarray:
        """Vertices the last full-set decide would move away from ``comm``
        (the unpruned engine's movers: the ground truth of Table 1)."""
        return self._oracle_next != comm

    def annotate(self, trace: IterationTrace, comm: np.ndarray, active: np.ndarray) -> None:
        """Fill the trace's oracle fields from the last full-set decide."""
        oracle_moved = self.moved(comm)
        trace.oracle_moved = int(oracle_moved.sum())
        trace.false_negatives = int(np.sum(oracle_moved & ~active))
        trace.false_positives = int(np.sum(~oracle_moved & active))


# --------------------------------------------------------------------- #
# algorithm configuration / result
# --------------------------------------------------------------------- #
def check_config_fields(
    config, bools: tuple[str, ...], counts: tuple[str, ...]
) -> None:
    """Reject a config whose run would fail midway or compute nonsense,
    at construction. The algorithmic fields go through the resolvers the
    run uses; each of ``bools`` must be a bool and each of ``counts`` an
    integer >= 1."""
    make_strategy(config.pruning)
    make_weight_updater(config.weight_update)
    ConvergenceTracker.check(config.theta, config.patience)
    resolution = config.resolution
    if (
        not isinstance(resolution, numbers.Real)
        or isinstance(resolution, bool)
        or not math.isfinite(resolution)
    ):
        raise ValueError(f"resolution must be a finite number, got {resolution!r}")
    for name in bools:
        if not isinstance(getattr(config, name), bool):
            raise ValueError(
                f"{name} must be true or false, got {getattr(config, name)!r}"
            )
    for name in counts:
        value = getattr(config, name)
        if (
            not isinstance(value, numbers.Integral)
            or isinstance(value, bool)
            or value < 1
        ):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class AlgorithmConfig:
    """The algorithmic fields every phase-1 runtime shares.

    :class:`~repro.core.phase1.Phase1Config` and the rank runtimes'
    configs (multiprocess, multi-GPU) inherit these and add
    only their execution knobs; a runtime may override a default (the
    rank runtimes default to ``pruning="mg"``).

    Attributes
    ----------
    pruning:
        Strategy name (``none``/``sm``/``rm``/``pm``/``mg``/``mg+rm``) or a
        :class:`PruningStrategy` instance.
    weight_update:
        ``"delta"`` (GALA, Section 3.5) or ``"recompute"`` (naive baseline).
    remove_self:
        Gain convention; see :func:`repro.core.kernels.vectorized.decide_moves`.
    resolution:
        Resolution parameter gamma of the generalised modularity (1.0 =
        classic Newman; the knob the paper's intro cites for the
        resolution-limit problem).
    theta:
        Modularity-improvement termination threshold (paper: ``1e-6``).
    patience:
        Number of consecutive below-``theta`` iterations tolerated before
        stopping; see :class:`ConvergenceTracker` for the limit-cycle-proof
        rule. ``patience=1`` reproduces the bare Algorithm 1 termination.
    max_iterations:
        Hard iteration cap (safety net; BSP Louvain with the Grappolo
        guards converges far earlier in practice).
    oracle:
        Record ground-truth moved sets for FNR/FPR measurement (one
        full-set DecideAndMove per iteration serves as both the oracle and
        the active-set decision — measurement only; see
        :class:`OracleProbe`).
    seed:
        Seed for strategy randomness (PM).
    """

    pruning: Union[str, PruningStrategy, None] = "none"
    weight_update: str = "delta"
    remove_self: bool = True
    resolution: float = 1.0
    theta: float = 1e-6
    patience: int = 3
    max_iterations: int = 500
    oracle: bool = False
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        check_config_fields(
            self, bools=("remove_self", "oracle"), counts=("max_iterations",)
        )

    def engine_config(self) -> "AlgorithmConfig":
        """A copy of this config for :func:`run_engine` (callers may
        mutate it)."""
        return replace(self)


R = TypeVar("R", bound="EngineResult")


@dataclass
class EngineResult:
    """Result of one engine-driven phase-1 optimisation.

    This is the runtime-independent core; runtime wrappers re-expose it
    with their own extras (devices, rank views, halo stats).
    """

    communities: np.ndarray
    modularity: float
    num_iterations: int
    history: list[IterationTrace]
    #: wall-clock seconds per phase (``decide_and_move``, ``weight_update``,
    #: ``aggregate`` and ``pruning``, on every runtime)
    timers: dict[str, float]
    state: CommunityState
    #: total DecideAndMove vertex-processings (sum of active counts); the
    #: work measure pruning reduces
    processed_vertices: int = 0
    #: total adjacency entries touched by DecideAndMove
    processed_edges: int = 0
    #: attached :class:`~repro.obs.manifest.RunManifest` (set by the
    #: top-level entry points — ``gala()``, the CLI — not per engine run)
    manifest: Optional[Any] = None

    @classmethod
    def from_engine(cls: type[R], result: "EngineResult", **extras: Any) -> R:
        """``result`` as a runtime's result type ``cls``, with ``extras``
        filling the fields the runtime adds."""
        core = {f.name: getattr(result, f.name) for f in fields(EngineResult)}
        return cls(**core, **extras)


# --------------------------------------------------------------------- #
# the loop
# --------------------------------------------------------------------- #
def run_engine(
    executor: Executor, config: AlgorithmConfig | None = None
) -> EngineResult:
    """Drive ``executor`` through the BSP phase-1 loop to convergence; of
    ``config`` it reads the loop knobs (pruning, convergence, oracle, seed)."""
    cfg = config or AlgorithmConfig()
    strategy = make_strategy(cfg.pruning)
    rng = as_generator(cfg.seed)
    # Observability is strictly opt-in: without an active session ``tr``
    # is the shared no-op tracer and every span below is one branch.
    sess = obs.current()
    tr = sess.tracer if sess is not None else NULL_TRACER
    clock = PhaseClock(tr)
    executor.setup(clock)

    state = executor.state
    graph = state.graph
    degrees = graph.degrees
    strategy.reset(state)
    active = strategy.initial_active(state)

    q = state.modularity()
    tracker = ConvergenceTracker(
        theta=cfg.theta, patience=cfg.patience, initial_q=q, snapshot=state.copy()
    )
    # Sanitizer hooks (repro.analysis). The CSR audit runs once per engine
    # run — phase 2 re-enters the engine per level, so every coarsened
    # graph is audited. Under --sanitize=strict with a strategy that
    # *claims* zero false negatives, the oracle probe re-derives the
    # unpruned ground truth each iteration for the Lemma 5 audit. Either
    # use costs one full-set decide per iteration, shared when both are
    # on; the committed moves are its exact restriction, so results stay
    # bit-identical to a run without the probe.
    san = analysis.current()
    if san is not None:
        san.audit_graph(graph, source=f"engine:{type(executor).__name__}")
    lemma5_audit = (
        san is not None
        and san.config.strict
        and getattr(strategy, "zero_false_negatives", False)
    )
    probe = OracleProbe(graph.n) if cfg.oracle or lemma5_audit else None
    history: list[IterationTrace] = []
    processed_vertices = 0
    processed_edges = 0

    runtime_name = type(executor).__name__
    with tr.span("engine/run", runtime=runtime_name, n=graph.n):
        for it in range(cfg.max_iterations):
            with tr.span("engine/iteration", iteration=it) as iter_span:
                active_idx = np.flatnonzero(active)
                active_edges = int(degrees[active_idx].sum())
                processed_vertices += len(active_idx)
                processed_edges += active_edges

                with clock.measure(
                    "decide_and_move",
                    "engine/decide",
                    active=len(active_idx),
                    edges=active_edges,
                ):
                    if probe is not None:
                        next_comm = probe.decide(executor, active)
                    else:
                        next_comm = executor.decide(active_idx, active)
                moved = next_comm != state.comm

                trace = IterationTrace(
                    iteration=it,
                    num_active=len(active_idx),
                    num_inactive=graph.n - len(active_idx),
                    num_moved=int(moved.sum()),
                    modularity=0.0,  # filled below
                    delta_q=0.0,
                    predicted=it > 0,
                    active_edges=active_edges,
                    moved_edges=int(degrees[moved].sum()),
                )
                if cfg.oracle:
                    probe.annotate(trace, state.comm, active)
                if lemma5_audit:
                    san.audit_pruning(
                        active,
                        probe.moved(state.comm),
                        iteration=it,
                        strategy=strategy.name,
                    )

                prev_comm = state.comm
                with tr.span("engine/apply_sync", moved=trace.num_moved):
                    next_q = executor.apply_and_sync(next_comm, moved)
                if san is not None:
                    san.audit_weights(state, iteration=it)

                trace.modularity = next_q
                trace.delta_q = next_q - q
                # collect() is cheap bookkeeping — not worth a span of its own
                executor.collect(trace)
                history.append(trace)
                if sess is not None:
                    sess.record_iteration(trace, runtime=runtime_name)

                tracker.update(next_q, state.copy)

                with clock.measure("pruning", "engine/prune"):
                    ctx = IterationContext(
                        state=state,
                        prev_comm=prev_comm,
                        moved=moved,
                        active=active,
                        iteration=it,
                        rng=rng,
                        remove_self=cfg.remove_self,
                        runtime=executor.runtime,
                    )
                    active = strategy.next_active(ctx)

                q = next_q
                iter_span.tag(moved=trace.num_moved, q=next_q)
                converged = tracker.converged or trace.num_moved == 0
            if converged:
                break

    q, state = tracker.select(q, state)
    result = EngineResult(
        communities=state.comm.copy(),
        modularity=float(q),
        num_iterations=len(history),
        history=history,
        timers=clock.seconds,
        state=state,
        processed_vertices=processed_vertices,
        processed_edges=processed_edges,
    )
    if sess is not None:
        sess.record_engine_result(result, executor)
    return result

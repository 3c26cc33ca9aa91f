"""The detect workloads: one ``gala()`` call is one operation.

* ``lfr-local`` — four graphs of the LJ stand-in's LFR construction at
  n=32,000 (mu=0.25; input 0 of seed 102 is ``load_dataset("LJ", 2)``),
  default config, local runtime;
* ``rmat-store-mp2`` — three ``rmat_to_disk(15, edge_factor=16)`` stores
  opened with ``open_mmap``, ``runtime="multiprocess", ranks=2``;
* ``gpusim-lj`` — five LJ stand-ins at n=4,000 on ``backend="gpusim"``.

A run's inputs all come from ``--seed``; input ``i > 0`` uses a seed
derived from ``(seed, i)``. Where one input's cost varies with the seed
(convergence tails, degree structure), a run cycles over several inputs
and ``detect_s`` is the mean over inputs of each input's median detect
time, so the run-to-run spread stays inside the metric's bound.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import defaultdict

import numpy as np

from repro.core.gala import GalaConfig, gala
from repro.core.phase1 import LocalExecutor
from repro.graph.generators.disk import rmat_to_disk
from repro.graph.generators.lfr import LFRParams, lfr_graph
from repro.graph.mmap_store import open_mmap

from common import (
    Deadline,
    load_pins,
    median,
    peak_rss_mb,
    pin_mismatches,
    result_counts,
    result_digest,
    warm_jit,
)
from seams import traced_gala

#: named kernel backends reported as ``kernels.backend_iters.<name>``
BACKENDS = ("jit", "vectorized", "bincount", "incremental", "gpusim")

#: the gpusim profiler's cycle buckets and event counters
CYCLE_BUCKETS = ("decide_load", "decide_alu", "hashtable", "warp_primitives", "bank_conflicts")
SIM_COUNTERS = ("shared_probes", "global_probes", "warp_primitive_ops")


def input_seed(seed: int, index: int) -> int:
    """Seed of a run's input ``index``; input 0 uses ``seed`` itself."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def lj_standin(n: int, seed: int):
    """The LJ stand-in's LFR construction at ``n`` vertices."""
    params = LFRParams(
        n=n,
        mu=0.25,
        min_degree=5,
        max_degree=min(90, n // 4),
        min_community=max(10, min(20, n // 20)),
        max_community=min(400, n // 2),
        seed=seed,
    )
    graph, _truth = lfr_graph(params)
    graph.name = "LJ"
    return graph


class DetectWorkload:
    name = ""
    config = GalaConfig()
    #: graphs per run, detected round-robin
    inputs = 1
    #: whether rank workers count toward peak RSS
    has_children = False

    def build(self, seed: int, tmp: str, layers: dict):
        raise NotImplementedError

    def cross_check(self, graph, ref, traced: bool) -> list:
        """Extra correctness checks against another runtime or backend."""
        return []

    def cleanup(self) -> None:
        pass


class LfrLocal(DetectWorkload):
    name = "lfr-local"
    inputs = 4

    def build(self, seed, tmp, layers):
        return lj_standin(32_000, seed)


class RmatStoreMp2(DetectWorkload):
    name = "rmat-store-mp2"
    config = GalaConfig(runtime="multiprocess", ranks=2)
    inputs = 3
    has_children = True

    def __init__(self):
        self.paths = []

    def build(self, seed, tmp, layers):
        path = tempfile.mkdtemp(prefix="store-", dir=tmp)
        self.paths.append(path)
        t0 = time.perf_counter()
        rmat_to_disk(15, path, edge_factor=16, seed=seed)
        t1 = time.perf_counter()
        graph = open_mmap(path)
        t2 = time.perf_counter()
        layers["mmap_store.write_s"].append(t1 - t0)
        layers["mmap_store.open_s"].append(t2 - t1)
        return graph

    def cross_check(self, graph, ref, traced):
        # the local runtime must give the identical assignment; it costs
        # one more detect, so only the traced run pays for it
        if not traced:
            return []
        local = gala(graph, GalaConfig())
        if result_digest(graph, local)["sha256"] != result_digest(graph, ref)["sha256"]:
            return ["multiprocess assignment differs from the local runtime"]
        return []

    def cleanup(self):
        for path in self.paths:
            shutil.rmtree(path, ignore_errors=True)
        self.paths = []


class GpusimLj(DetectWorkload):
    name = "gpusim-lj"
    config = GalaConfig(backend="gpusim")
    inputs = 5

    def build(self, seed, tmp, layers):
        return lj_standin(4_000, seed)

    def cross_check(self, graph, ref, traced):
        vectorized = gala(graph, GalaConfig())
        if result_digest(graph, vectorized)["sha256"] != result_digest(graph, ref)["sha256"]:
            return ["gpusim assignment differs from the vectorized backend"]
        return []


class Reference:
    """The first detect of one input; later detects must match it."""

    def __init__(self, graph, result, pins):
        digest = result_digest(graph, result)
        self.sha256 = digest["sha256"]
        self.modularity = digest["modularity"]
        self.counts = result_counts(result)
        self.result = result
        self.errors = []
        if abs(digest["modularity_check"] - self.modularity) > 1e-9:
            self.errors.append("reported Q differs from modularity() of the assignment")
        observed = {**self.counts, "sha256": self.sha256, "modularity": self.modularity}
        bad = pin_mismatches(pins, observed)
        if bad:
            self.errors.append(f"pinned values differ: {bad}")

    def check(self, graph, result) -> list:
        errors = []
        if result_digest(graph, result)["sha256"] != self.sha256:
            errors.append("assignment differs between runs of the same input")
        if float(result.modularity) != self.modularity:
            errors.append("modularity differs between runs of the same input")
        if result_counts(result) != self.counts:
            errors.append("deterministic counts drifted between runs")
        return errors

    def describe(self) -> dict:
        return {"sha256": self.sha256, "modularity": self.modularity, **self.counts}


def run(wl: DetectWorkload, seed: int, seconds: float, trace: bool, tmp: str, jit_root: str) -> dict:
    setup_layers = defaultdict(list)
    graphs = []
    try:
        t0 = time.perf_counter()
        graphs = [wl.build(input_seed(seed, k), tmp, setup_layers) for k in range(wl.inputs)]
        jit = warm_jit(os.path.join(jit_root, "setup"))
        setup_s = time.perf_counter() - t0
        # first-call costs (jit load, probes, page faults) stay out of
        # detect_s
        gala(graphs[0], wl.config)

        pinned = load_pins(wl.name, seed) or []
        pins = [pinned[k] if k < len(pinned) else None for k in range(len(graphs))]
        refs = [None] * len(graphs)
        times = [[] for _ in graphs]
        traced_wall = 0.0
        cycles = []
        attempted = failed = 0
        errors = []
        window = Deadline(seconds)
        op = 0
        # every input is detected at least once, the traced run traces
        # at least one full cycle over the inputs
        while op < len(graphs) or window.open():
            k = op % len(graphs)
            graph = graphs[k]
            t0 = time.perf_counter()
            result = gala(graph, wl.config)
            dt = time.perf_counter() - t0
            times[k].append(dt)
            if refs[k] is None:
                refs[k] = Reference(graph, result, pins[k])
                op_errors = list(refs[k].errors)
            else:
                op_errors = refs[k].check(graph, result)
            if trace:
                traced = traced_gala(graph, wl.config)
                op_errors += refs[k].check(graph, traced.result)
                if k == 0:
                    cycles.append([])
                cycles[-1].append(traced)
                traced_wall += traced.wall_s
            attempted += 1
            failed += int(bool(op_errors))
            errors += op_errors
            op += 1
            del result

        checks = []
        for graph, ref in zip(graphs, refs):
            checks += wl.cross_check(graph, ref.result, trace)
        detail = {
            "inputs": [ref.describe() for ref in refs],
            "jit": jit,
            "samples": {"detect": sum(len(t) for t in times), "per_input": [len(t) for t in times]},
        }
        if trace:
            complete = [c for c in cycles if len(c) == len(graphs)]
            per_cycle = [[_one_traced(wl, r) for r in c] for c in complete]
            counts = [[{key: m[key] for key in LAYER_COUNTS} for m in c] for c in per_cycle]
            if any(c != counts[0] for c in counts):
                checks.append("layer counts drifted between traced runs")
            for k, input_counts in enumerate(counts[0]):
                bad = pin_mismatches(pins[k], input_counts)
                if bad:
                    checks.append(f"pinned layer counts of input {k} differ: {bad}")
            walls = [sum(r.wall_s for r in c) for c in complete]
            mid = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
            metrics = _combine(per_cycle[mid])
            untraced_wall = sum(t for ts in times for t in ts)
            metrics["obs.trace_overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
            for key in ("mmap_store.write_s", "mmap_store.open_s"):
                metrics[key] = sum(setup_layers[key])
            checks += accounting_errors(metrics)
            for info, input_counts in zip(detail["inputs"], counts[0]):
                info.update(input_counts)
            detail["samples"]["traced_cycles"] = len(complete)
        else:
            all_times = [t for ts in times for t in ts]
            metrics = {
                "detect_s": sum(median(ts) for ts in times) / len(times),
                "request_p50_ms": median(all_times) * 1000.0,
                "request_rps": len(all_times) / sum(all_times),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(wl.has_children),
            }
        # the cross-checks and count checks are one more operation
        attempted += 1
        failed += int(bool(checks))
        return {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "errors": errors + checks,
            "detail": detail,
        }
    finally:
        graphs = []
        wl.cleanup()


#: the layer self-time keys that, with the two remainders, add up to the
#: traced wall time
SELF_TIMES = (
    "kernels.decide_s",
    "weights.apply_sync_s",
    "pruning.next_active_s",
    "multiprocess.startup_s",
    "multiprocess.decide_s",
    "multiprocess.apply_sync_s",
    "multiprocess.close_s",
    "coarsen.coarsen_s",
    "engine.other_s",
    "gala.other_s",
)


#: per-layer counts that every run of the same code must reproduce
LAYER_COUNTS = (
    "kernels.decide_calls",
    "kernels.active_vertices",
    "kernels.active_edges",
    *(f"kernels.backend_iters.{name}" for name in BACKENDS + ("other",)),
    "weights.moved_edges",
    "engine.iterations",
    "coarsen.coarse_edges",
    "louvain.levels",
    "multiprocess.halo_bytes",
    "multiprocess.comm_messages",
    "multiprocess.rank_halo_bytes.0",
    "multiprocess.rank_halo_bytes.1",
    "gpusim.sim_cycles",
    *(f"gpusim.cycles.{bucket}" for bucket in CYCLE_BUCKETS),
    *(f"gpusim.{counter}" for counter in SIM_COUNTERS),
)


def _one_traced(wl: DetectWorkload, run) -> dict:
    """Additive layer quantities of one traced detect (``_`` keys are
    the numerators and denominators of ratios)."""
    sec = run.clock.seconds
    calls = run.clock.calls
    result = run.result
    local_traces = [
        t
        for ex, lvl in zip(run.executors, result.levels)
        if isinstance(ex, LocalExecutor)
        for t in lvl.phase1.history
    ]
    all_traces = [t for lvl in result.levels for t in lvl.phase1.history]
    m = {
        "_moved": sum(t.num_moved for t in all_traces),
        "_active": sum(t.num_active for t in all_traces),
        "_inactive": sum(t.num_inactive for t in all_traces),
        "_slots": sum(t.num_active + t.num_inactive for t in all_traces),
        "kernels.decide_s": sec["kernels.decide"],
        "kernels.decide_calls": calls["kernels.decide"],
        "kernels.active_vertices": sum(t.num_active for t in local_traces),
        "kernels.active_edges": sum(t.active_edges for t in local_traces),
        "pruning.next_active_s": sec["pruning.next_active"],
        "weights.apply_sync_s": sec["weights.apply_sync"],
        "weights.moved_edges": sum(t.moved_edges for t in local_traces),
        "engine.iterations": len(all_traces),
        "coarsen.coarsen_s": sec["coarsen.coarsen"],
        "coarsen.coarse_edges": sum(run.coarse_edges),
        "louvain.levels": len(result.levels),
    }
    backends = {name: 0 for name in BACKENDS + ("other",)}
    for t in local_traces:
        name = t.kernel_backend or ("gpusim" if wl.config.backend == "gpusim" else "other")
        backends[name if name in backends else "other"] += 1
    for name, count in backends.items():
        m[f"kernels.backend_iters.{name}"] = count

    for stage in ("startup", "decide", "apply_sync", "close"):
        m[f"multiprocess.{stage}_s"] = sec[f"multiprocess.{stage}"]
    ranks = [ex for ex in run.executors if not isinstance(ex, LocalExecutor)]
    m["multiprocess.halo_bytes"] = sum(ex.stats.bytes_sent for ex in ranks)
    m["multiprocess.comm_messages"] = sum(ex.stats.messages for ex in ranks)
    for k in range(2):
        m[f"multiprocess.rank_halo_bytes.{k}"] = sum(
            ex.rank_bytes[k] for ex in ranks if k < len(ex.rank_bytes)
        )

    # one simulated device serves every round; count each profiler once
    profilers = {
        id(p): p for ex in run.executors for p in ex.profilers().values()
    }.values()
    m["gpusim.decide_s"] = sec["kernels.decide"] if wl.config.backend == "gpusim" else 0.0
    m["gpusim.sim_cycles"] = sum(p.total_cycles for p in profilers)
    for bucket in CYCLE_BUCKETS:
        m[f"gpusim.cycles.{bucket}"] = sum(p.cycles.get(bucket, 0.0) for p in profilers)
    for counter in SIM_COUNTERS:
        m[f"gpusim.{counter}"] = sum(p.counters.get(counter, 0) for p in profilers)

    in_engine = sum(
        m[k]
        for k in SELF_TIMES
        if k.startswith(("kernels.", "weights.", "pruning.", "multiprocess."))
    )
    m["engine.other_s"] = sec["engine.round"] - in_engine
    m["gala.other_s"] = run.wall_s - sec["engine.round"] - sec["coarsen.coarsen"]
    m["obs.traced_detect_s"] = run.wall_s
    return m


def _combine(traced: list) -> dict:
    """Per-layer metrics of one traced cycle over the run's inputs:
    times and counts add up, ratios are taken of the sums."""
    m = defaultdict(float)
    for one in traced:
        for key, value in one.items():
            m[key] += value
    m["kernels.edges_per_s"] = (
        m["kernels.active_edges"] / m["kernels.decide_s"] if m["kernels.decide_s"] else 0.0
    )
    m["pruning.useful_ratio"] = m.pop("_moved") / m["_active"]
    m["pruning.pruned_ratio"] = m.pop("_inactive") / m.pop("_slots")
    del m["_active"]
    return dict(m)


def accounting_errors(metrics: dict) -> list:
    """The self times and remainders must add up to the traced wall, and
    a remainder may not be negative: that would mean two timed spans
    overlap, so some time is counted twice."""
    errors = [
        f"{key} is negative ({metrics[key]:.6f}s): timed spans overlap"
        for key in ("engine.other_s", "gala.other_s")
        if metrics[key] < 0
    ]
    total = sum(metrics[k] for k in SELF_TIMES)
    wall = metrics["obs.traced_detect_s"]
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        errors.append(f"layer times add up to {total:.6f}s, traced wall is {wall:.6f}s")
    return errors


WORKLOADS = {wl.name: wl for wl in (LfrLocal(), RmatStoreMp2(), GpusimLj())}

"""Render and diff run manifests (the ``repro report`` subcommand).

One manifest renders as a per-level breakdown (the hierarchy's shape and
cost) plus a per-phase breakdown (where wall-clock and simulated cycles
went). Two manifests additionally render a diff table — cycles, bytes,
iterations, Q — the before/after comparison every perf PR needs to make.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List

from repro.obs.manifest import RunManifest


def _level_rows(manifest: RunManifest) -> List[Dict[str, Any]]:
    rows = []
    for lvl in manifest.levels:
        timers = lvl.get("timers", {})
        rows.append(
            {
                "level": lvl["level"],
                "n": lvl["n"],
                "edges": lvl["num_edges"],
                "iters": lvl["iterations"],
                "moved": lvl["moved"],
                "Q": round(lvl["modularity"], 5),
                "sim_cycles": lvl["sim_cycles"],
                "comm_bytes": lvl["comm_bytes"],
                "decide_s": round(timers.get("decide_and_move", 0.0), 4),
            }
        )
    return rows


def _phase_rows(manifest: RunManifest) -> List[Dict[str, Any]]:
    """Aggregate wall-clock phases across levels, with shares."""
    totals: Dict[str, float] = {}
    for lvl in manifest.levels:
        for name, seconds in lvl.get("timers", {}).items():
            totals[name] = totals.get(name, 0.0) + seconds
    grand = sum(totals.values()) or 1.0
    return [
        {
            "phase": name,
            "seconds": round(seconds, 4),
            "share": f"{100.0 * seconds / grand:.1f}%",
        }
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
    ]


def _cycle_rows(manifest: RunManifest) -> List[Dict[str, Any]]:
    """Simulated-cycle buckets from the metrics snapshot, with shares."""
    gauges = manifest.metrics.get("gauges", {})
    buckets = {
        name.removeprefix("gpusim/cycles/"): value
        for name, value in gauges.items()
        if name.startswith("gpusim/cycles/")
    }
    grand = sum(buckets.values()) or 1.0
    return [
        {
            "bucket": name,
            "cycles": value,
            "share": f"{100.0 * value / grand:.1f}%",
        }
        for name, value in sorted(buckets.items(), key=lambda kv: -kv[1])
    ]


def _serve_lines(manifest: RunManifest) -> List[str]:
    """The serving-session section (manifests written by ``repro serve``)."""
    r = manifest.result
    histograms = manifest.metrics.get("histograms", {})

    def pct(name: str, q: str) -> float:
        return float(histograms.get(name, {}).get(q, 0.0))

    hits = int(r.get("cache_hits") or 0)
    misses = int(r.get("cache_misses") or 0)
    lines = [
        f"requests={r.get('requests', 0)} shed={r.get('shed', 0)} "
        f"timeouts={r.get('timeouts', 0)} errors={r.get('errors', 0)} "
        f"uptime={float(r.get('uptime_s') or 0.0):.1f}s "
        f"drain={'clean' if r.get('drained_clean') else 'forced'}",
        f"cache: hits={hits} misses={misses} "
        f"hit_rate={float(r.get('cache_hit_rate') or 0.0):.2f}",
        f"latency: p50={float(r.get('latency_p50_ms') or 0.0):.2f}ms "
        f"p99={float(r.get('latency_p99_ms') or 0.0):.2f}ms "
        f"(hit p50={pct('serve/hit_latency_ms', 'p50'):.2f}ms, "
        f"miss p50={pct('serve/miss_latency_ms', 'p50'):.2f}ms)",
    ]
    gauges = manifest.metrics.get("gauges", {})
    if "serve/registry/graphs" in gauges:
        lines.append(
            f"registry: graphs={int(gauges['serve/registry/graphs'])} "
            f"bytes={int(gauges.get('serve/registry/bytes', 0))} "
            f"evictions={int(gauges.get('serve/registry/evictions', 0))}"
        )
    live = r.get("live")
    if live and live.get("requests"):
        lines.append(
            f"live: requests={live['requests']} "
            f"p50={float(live.get('p50_ms') or 0.0):.2f}ms "
            f"p95={float(live.get('p95_ms') or 0.0):.2f}ms "
            f"p99={float(live.get('p99_ms') or 0.0):.2f}ms "
            f"(bucket histogram — matches /metrics exactly)"
        )
    slo = r.get("slo")
    if slo:
        policy = slo.get("policy") or {}
        targets = " ".join(
            f"{k}={v}" for k, v in policy.items() if v is not None
        )
        lines.append(
            f"slo: {'healthy' if slo.get('healthy') else 'VIOLATING'} "
            f"violations={slo.get('violations', 0)} ({targets})"
        )
    if r.get("traces_written"):
        lines.append(f"traces: {r['traces_written']} request trace(s) written")
    return lines


def render_manifest(manifest: RunManifest) -> str:
    """Human-readable report of one run."""
    from repro.bench.reporting import format_table

    g = manifest.graph
    lines = [
        f"run: {manifest.command or '(unknown command)'}",
        f"  runtime={manifest.runtime} seed={manifest.seed} "
        f"created={time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(manifest.created_unix))}",
    ]
    if g:  # serving sessions have no single graph
        lines.append(
            f"  graph: {g.get('name')} n={g.get('n')} edges={g.get('num_edges')} "
            f"sha256={g.get('sha256')}"
        )
    lines += [
        f"  env: " + " ".join(f"{k}={v}" for k, v in manifest.environment.items()),
        "",
    ]
    if "requests" in manifest.result:  # a serving session, not one run
        lines += _serve_lines(manifest)
        return "\n".join(lines)
    modularity = manifest.result.get("modularity")
    headline = (
        f"modularity={modularity:.5f} " if modularity is not None
        else "modularity=n/a "
    )
    if manifest.result.get("partial"):
        headline += f"(partial; interrupted by {manifest.result.get('signal')}) "
    headline += (
        f"levels={manifest.result.get('num_levels')} "
        f"iterations={manifest.result.get('iterations')} "
        f"communities={manifest.result.get('num_communities')}"
    )
    lines.append(headline)
    backends: Dict[str, int] = {}
    compile_s = 0.0
    for lvl in manifest.levels:
        for name, count in (lvl.get("kernel_backends") or {}).items():
            backends[name] = backends.get(name, 0) + count
        compile_s += lvl.get("kernel_compile_s") or 0.0
    if backends:
        line = "kernel: " + " ".join(
            f"{k}x{v}" for k, v in sorted(backends.items())
        )
        env = manifest.environment
        if "jit_provider" in env:
            line += f" jit_provider={env['jit_provider']}"
            if env.get("jit_threads") is not None:
                line += f" jit_threads={env['jit_threads']}"
            if env.get("REPRO_JIT_PROVIDER") is not None:
                line += f" REPRO_JIT_PROVIDER={env['REPRO_JIT_PROVIDER']}"
        if compile_s:
            line += f" (compile {compile_s:.3f}s)"
        lines.append(line)
    if manifest.levels:
        lines += ["", format_table(_level_rows(manifest), title="per-level breakdown")]
    phase = _phase_rows(manifest)
    if phase:
        lines += ["", format_table(phase, title="per-phase wall clock")]
    cycles = _cycle_rows(manifest)
    if cycles:
        lines += ["", format_table(cycles, title="simulated cycle buckets")]
    san = manifest.sanitizer
    if san:
        counts = san.get("by_checker") or {}
        breakdown = (
            " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            if counts
            else "clean"
        )
        lines += [
            "",
            f"sanitizer: mode={san.get('mode')} "
            f"findings={san.get('total', 0)} ({breakdown})",
        ]
    static = manifest.staticcheck
    if static:
        by_rule = static.get("by_rule") or {}
        breakdown = (
            " ".join(f"{k}={v}" for k, v in sorted(by_rule.items()))
            if by_rule
            else "clean"
        )
        lines += [
            "",
            f"staticcheck: findings={static.get('total', 0)} "
            f"waived={static.get('waived', 0)} ({breakdown})",
        ]
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# diffing
# --------------------------------------------------------------------- #
def _headline(manifest: RunManifest) -> Dict[str, float]:
    wall = sum(
        seconds
        for lvl in manifest.levels
        for seconds in lvl.get("timers", {}).values()
    )
    r = manifest.result
    return {
        "modularity": float(r.get("modularity") or 0.0),
        "iterations": float(r.get("iterations") or 0),
        "levels": float(r.get("num_levels") or 0),
        "sim_cycles": float(r.get("sim_cycles") or 0.0),
        "comm_bytes": float(r.get("comm_bytes") or 0),
        "wall_seconds": wall,
    }


def diff_manifests(a: RunManifest, b: RunManifest) -> List[Dict[str, Any]]:
    """Metric-by-metric comparison rows (``b`` relative to ``a``)."""
    ha, hb = _headline(a), _headline(b)
    rows = []
    for key in ha:
        va, vb = ha[key], hb[key]
        rows.append(
            {
                "metric": key,
                "a": round(va, 6),
                "b": round(vb, 6),
                "delta": round(vb - va, 6),
                "b/a": round(vb / va, 4) if va else float("inf") if vb else 1.0,
            }
        )
    # per-phase wall-clock deltas, where either run spent time
    ta = {r["phase"]: r["seconds"] for r in _phase_rows(a)}
    tb = {r["phase"]: r["seconds"] for r in _phase_rows(b)}
    for phase in sorted(set(ta) | set(tb)):
        va, vb = ta.get(phase, 0.0), tb.get(phase, 0.0)
        rows.append(
            {
                "metric": f"time/{phase}",
                "a": va,
                "b": vb,
                "delta": round(vb - va, 6),
                "b/a": round(vb / va, 4) if va else float("inf") if vb else 1.0,
            }
        )
    return rows


def render_diff(a: RunManifest, b: RunManifest) -> str:
    from repro.bench.reporting import format_table

    ga, gb = a.graph.get("sha256"), b.graph.get("sha256")
    lines = []
    if ga != gb:
        lines.append(
            f"WARNING: graphs differ (a: {a.graph.get('name')}/{ga}, "
            f"b: {b.graph.get('name')}/{gb}) — cost comparison is apples-to-oranges"
        )
    lines.append(
        format_table(
            diff_manifests(a, b),
            title=f"diff: a={a.command or 'run-a'}  vs  b={b.command or 'run-b'}",
        )
    )
    return "\n".join(lines)

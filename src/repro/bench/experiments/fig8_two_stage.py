"""Figure 8: two-stage pruning profiling — where does phase-1 time go?

Three configurations on the shared data-path cost model (the same per-edge
charges as Figures 5/6, so all runtime figures live on one axis):

* **B**  — baseline: no pruning, naive weight recomputation (the update
  rescans every adjacency entry, same complexity as DecideAndMove);
* **P1** — MG pruning of DecideAndMove, still naive recomputation;
* **P2** — MG pruning plus delta weight updating (full GALA): the update
  only streams the moved vertices' rows.

Paper claims: in B, DecideAndMove dominates (65.5%); after P1 the weight
update becomes the bottleneck (45.7% of runtime); P2 accelerates the
weight update (paper: 7.3x) and shifts the bottleneck back to
DecideAndMove. The module also reports the engine's measured wall-clock
totals for reference.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.bench.workloads import bench_scale
from repro.core.phase1 import Phase1Config, Phase1Result, run_phase1
from repro.graph.generators import load_dataset

#: shared data-path constants (see repro.baselines.designs derivations)
DECIDE_CYCLES_PER_EDGE = 520.0
UPDATE_CYCLES_PER_EDGE = 450.0
OTHER_CYCLES_PER_VERTEX = 40.0  # aggregates, modularity, filter op

CONFIGS = {
    "B": Phase1Config(pruning="none", weight_update="recompute"),
    "P1": Phase1Config(pruning="mg", weight_update="recompute"),
    "P2": Phase1Config(pruning="mg", weight_update="delta"),
}


def breakdown_cycles(result: Phase1Result, graph, config: Phase1Config) -> dict:
    """Charge the recorded per-iteration workload to the three buckets."""
    decide = update = other = 0.0
    all_edges = graph.num_directed_edges
    for rec in result.history:
        decide += rec.active_edges * DECIDE_CYCLES_PER_EDGE
        if config.weight_update == "recompute":
            update += all_edges * UPDATE_CYCLES_PER_EDGE
        else:
            update += rec.moved_edges * UPDATE_CYCLES_PER_EDGE
        other += graph.n * OTHER_CYCLES_PER_VERTEX
    return {"decide": decide, "update": update, "other": other}


def run(scale: float | None = None, graphs: list[str] | None = None) -> ExperimentOutput:
    scale = scale if scale is not None else bench_scale()
    graphs = graphs or ["LJ", "OR"]
    rows = []
    notes = []
    for abbr in graphs:
        g = load_dataset(abbr, scale)
        updates = {}
        for label, cfg in CONFIGS.items():
            result = run_phase1(g, cfg)
            buckets = breakdown_cycles(result, g, cfg)
            grand = sum(buckets.values())
            updates[label] = buckets["update"]
            rows.append(
                {
                    "graph": abbr,
                    "config": label,
                    "total (Mcyc)": round(grand / 1e6, 1),
                    "DecideAndMove%": round(100 * buckets["decide"] / grand, 1),
                    "weight update%": round(100 * buckets["update"] / grand, 1),
                    "other%": round(100 * buckets["other"] / grand, 1),
                    "wall (ms)": round(
                        1e3 * sum(result.timers.values()), 1
                    ),
                }
            )
        if updates["P2"] > 0:
            notes.append(
                f"{abbr}: weight-update speedup P1->P2 = "
                f"{updates['P1'] / updates['P2']:.1f}x (paper: 7.3x)"
            )
    notes.append(
        "paper: DecideAndMove 65.5% in B; weight update 45.7% in P1; "
        "P2 shifts the bottleneck back to DecideAndMove"
    )
    return ExperimentOutput(
        experiment="fig8",
        title="Phase-1 breakdown: B vs P1 vs P2 (shared cost model)",
        rows=rows,
        notes=notes,
    )

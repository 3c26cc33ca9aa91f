"""Experiment registry and runner.

Each experiment module registers a ``run(scale) -> ExperimentOutput``
function here under its paper id. ``python -m repro.bench [id ...]`` runs
and prints them.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.bench.reporting import format_series, format_table
from repro.errors import ExperimentError


@dataclass
class ExperimentOutput:
    """What one experiment produces.

    ``rows`` render as the main table; ``series`` as one-line sparklines
    (iteration-indexed figures); ``notes`` carry the paper-vs-measured
    commentary recorded into EXPERIMENTS.md.
    """

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    series_percent: bool = True
    notes: list[str] = field(default_factory=list)
    columns: Optional[list[str]] = None

    def render(self) -> str:
        parts = [f"== {self.experiment}: {self.title} =="]
        if self.rows:
            parts.append(format_table(self.rows, columns=self.columns))
        for name, values in self.series.items():
            parts.append(format_series(name, values, as_percent=self.series_percent))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


#: experiment id -> (module name, title)
_SPECS: dict[str, tuple[str, str]] = {
    "table2": ("table2_datasets", "Graph statistics (stand-ins for Table 2)"),
    "fig1": ("fig1_unmoved", "Unmoved/pruned proportion per iteration (Figure 1b)"),
    "table1": ("tab1_fnr_fpr", "FNR/FPR of pruning strategies (Table 1)"),
    "fig4": ("fig4_hashtable_rates", "Shared-memory maintenance/access rates (Figure 4)"),
    "fig5": ("fig5_sota", "Comparison with the state of the art (Figure 5)"),
    "fig6": ("fig6_optimizations", "Impact of optimizations (Figure 6)"),
    "fig7": ("fig7_pruning", "Pruned proportion per strategy (Figure 7)"),
    "table3": ("tab3_modularity", "Modularity comparisons (Table 3)"),
    "table4": ("tab4_nmi", "NMI on LFR ground truth (Table 4)"),
    "fig8": ("fig8_two_stage", "Two-stage pruning profiling (Figure 8)"),
    "fig9": ("fig9_kernels", "Memory-management kernels (Figure 9)"),
    "fig10": ("fig10_scaling", "Multi-GPU scalability (Figure 10)"),
    "stress": ("stress_scaling", "Throughput across graph sizes (Section 5.6 analogue)"),
    "kernels": ("kernel_backends", "DecideAndMove host backends (vectorized vs jit)"),
}

EXPERIMENTS = list(_SPECS)


def list_experiments() -> list[tuple[str, str]]:
    """(id, title) for every registered experiment."""
    return [(eid, title) for eid, (_, title) in _SPECS.items()]


def run_experiment(
    experiment_id: str, scale: float | None = None
) -> ExperimentOutput:
    """Run one experiment by id (e.g. ``"table1"``, ``"fig9"``)."""
    if experiment_id not in _SPECS:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {EXPERIMENTS}"
        )
    module_name, _ = _SPECS[experiment_id]
    module = importlib.import_module(f"repro.bench.experiments.{module_name}")
    run: Callable = module.run
    return run(scale=scale)

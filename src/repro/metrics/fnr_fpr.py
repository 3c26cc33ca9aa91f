"""FNR / FPR aggregation over oracle-instrumented engine runs.

Paper Table 1 definitions:

* **FNR** — "proportion of misclassified vertices that will be moved":
  of the vertices the unpruned algorithm would move this iteration, the
  fraction the strategy predicted inactive.
* **FPR** — "proportion of misclassified vertices that will remain
  unmoved": of the vertices that would stay put, the fraction the strategy
  still processed.

Both are averaged over the *predicted* iterations (iteration 0, where
every strategy processes everything by construction, is excluded).

All helpers consume the unified :class:`~repro.core.engine.IterationTrace`
history, so they accept results from any engine-driven runtime — local
(:func:`repro.core.phase1.run_phase1`), multi-GPU, or multiprocess — run
with ``oracle=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import EngineResult, IterationTrace


@dataclass(frozen=True)
class PruningRates:
    """Aggregated misprediction rates of one strategy on one graph."""

    strategy: str
    graph: str
    fnr: float
    fpr: float
    iterations: int
    total_false_negatives: int
    total_false_positives: int

    def as_row(self) -> dict:
        return {
            "graph": self.graph,
            "strategy": self.strategy,
            "FNR": f"{100 * self.fnr:.2f}%",
            "FPR": f"{100 * self.fpr:.2f}%",
        }


def _predicted(history: list[IterationTrace]) -> list[IterationTrace]:
    recs = [h for h in history if h.predicted]
    for h in recs:
        if h.oracle_moved is None:
            raise ValueError(
                "history lacks oracle fields; run phase 1 with oracle=True"
            )
    return recs


def pruning_rates(
    result: EngineResult, strategy: str = "", graph: str = ""
) -> PruningRates:
    """Aggregate FNR/FPR from an oracle-instrumented run.

    Following the paper ("the average FNR and FPR ... over all
    iterations"), per-iteration rates are averaged with equal weight;
    iterations with an empty denominator (nothing would move / nothing
    would stay) are skipped for that rate.
    """
    recs = _predicted(result.history)
    fnrs, fprs = [], []
    tot_fn = tot_fp = 0
    for h in recs:
        n = h.num_active + h.num_inactive
        moved = h.oracle_moved or 0
        unmoved = n - moved
        tot_fn += h.false_negatives or 0
        tot_fp += h.false_positives or 0
        if moved > 0:
            fnrs.append((h.false_negatives or 0) / moved)
        if unmoved > 0:
            fprs.append((h.false_positives or 0) / unmoved)
    return PruningRates(
        strategy=strategy,
        graph=graph,
        fnr=float(np.mean(fnrs)) if fnrs else 0.0,
        fpr=float(np.mean(fprs)) if fprs else 0.0,
        iterations=len(recs),
        total_false_negatives=tot_fn,
        total_false_positives=tot_fp,
    )


def average_inactive_rate(result: EngineResult, skip_first: bool = True) -> float:
    """Mean fraction of pruned vertices per iteration (Figures 1b / 7)."""
    recs = [h for h in result.history if h.predicted or not skip_first]
    if not recs:
        return 0.0
    return float(np.mean([h.inactive_rate for h in recs]))


def inactive_rate_series(result: EngineResult) -> np.ndarray:
    """Per-iteration inactive rate, for the iteration-by-iteration plots."""
    return np.array([h.inactive_rate for h in result.history])


def unmoved_rate_series(result: EngineResult) -> np.ndarray:
    """Per-iteration fraction of vertices that did not move (Figure 1b)."""
    return np.array([h.unmoved_rate for h in result.history])

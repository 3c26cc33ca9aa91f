"""True process-parallel phase-1 runtime (one worker process per rank).

See :mod:`repro.multiprocess.runtime` for the execution model. Public
surface:

* :class:`MultiprocessConfig` / :class:`MultiprocessExecutor` /
  :func:`run_multiprocess_phase1` — the runtime, behind the same
  ``Executor`` protocol as every other runtime;
* :class:`MultiprocessResult` — engine result + rank views + real
  halo-exchange accounting (:class:`~repro.distributed.halo.HaloStats`).
"""

from repro.multiprocess.runtime import (
    MultiprocessConfig,
    MultiprocessExecutor,
    MultiprocessResult,
    run_multiprocess_phase1,
)

__all__ = [
    "MultiprocessConfig",
    "MultiprocessExecutor",
    "MultiprocessResult",
    "run_multiprocess_phase1",
]

"""DecideAndMove kernel backends.

* :mod:`vectorized` — pure NumPy segmented-reduction backend; the
  reference for correctness, and home of :func:`make_kernel`, which
  resolves the host backend names in :data:`KERNEL_NAMES`.
* :mod:`jit` — the same per-vertex loop compiled with the system C
  compiler; ``kernel="auto"`` uses it whenever the compiled library
  passed its probe against the NumPy paths.
* :mod:`shuffle` — warp-level shuffle-based kernel (paper Algorithm 2) on
  the simulated GPU; charges register/warp-primitive costs.
* :mod:`hash` — block-level hash-based kernel (paper Algorithm 3) on the
  simulated GPU; charges shared/global hashtable probe costs.
* :mod:`dispatch` — GALA's workload-aware dispatcher: degree < 32 vertices
  to the shuffle kernel, larger to the hash kernel.

Every backend implements the same contract: given a
:class:`~repro.core.state.CommunityState` and an active vertex set, return
a :class:`~repro.core.kernels.vectorized.DecideResult` with identical
community decisions. The host backends (``vectorized``/``jit``) are held
to the stricter bit-exactness contract documented in
:mod:`repro.core.kernels.jit`.
"""

from repro.core.kernels.vectorized import (
    KERNEL_NAMES,
    DecideResult,
    VectorizedKernel,
    decide_moves,
    make_kernel,
)

__all__ = [
    "KERNEL_NAMES",
    "DecideResult",
    "VectorizedKernel",
    "decide_moves",
    "make_kernel",
]

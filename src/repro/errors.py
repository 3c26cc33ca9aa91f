"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the library with a single ``except`` clause
while still being able to distinguish graph-construction problems from
simulator misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """Raised when an on-disk graph file cannot be parsed."""


class GraphValidationError(ReproError):
    """Raised when a graph violates a structural invariant.

    Examples: non-symmetric adjacency for an undirected graph, negative
    edge weights, out-of-range vertex ids, or a non-monotone ``indptr``.
    When the violation was detected by the :mod:`repro.analysis` CSR
    audit, ``findings`` carries the structured finding records.
    """

    def __init__(self, message: str, findings: list | None = None):
        super().__init__(message)
        #: structured CSR-audit findings behind this error (may be empty)
        self.findings = list(findings or [])


class GeneratorParameterError(ReproError):
    """Raised when a synthetic-graph generator is given infeasible parameters.

    The LFR generator in particular has feasibility constraints linking the
    degree sequence, the community-size sequence, and the mixing parameter.
    """


class KernelUnavailableError(ReproError):
    """Raised when an explicitly requested kernel backend cannot run here.

    The ``"jit"`` backend needs a compile provider (a system C compiler
    for the bundled C source); when none works, an *explicit*
    ``kernel="jit"`` request raises this error with setup guidance, while
    ``kernel="auto"`` silently resolves to the NumPy ``vectorized``
    backend. The CLI renders the message without a traceback.
    """


class DeviceError(ReproError):
    """Raised on invalid use of the simulated GPU device.

    Examples: allocating more shared memory than the device provides,
    launching a kernel with an illegal block size, or accessing a buffer
    that lives on a different simulated device.
    """


class HashTableFullError(DeviceError):
    """Raised when a simulated hashtable cannot place a key in any bucket."""


class SanitizerError(ReproError):
    """Base class for errors raised by the :mod:`repro.analysis` sanitizers.

    Raised only when a sanitizer runs with ``on_finding="raise"`` (or a
    loader-level audit fails fast); the default behaviour is to *record*
    findings so a sanitized run completes and reports. Instances carry the
    structured :class:`~repro.analysis.findings.Finding` records that
    triggered them on ``findings``.
    """

    def __init__(self, message: str, findings: list | None = None):
        super().__init__(message)
        #: the structured finding records behind this error (may be empty)
        self.findings = list(findings or [])


class RaceHazardError(SanitizerError):
    """Racecheck: two lanes touched one address in one epoch unsynchronised."""


class MemcheckError(SanitizerError):
    """Memcheck: out-of-bounds access, uninitialised read, or overflow."""


class SynccheckError(SanitizerError):
    """Synccheck: barrier divergence or warp-primitive mask mismatch."""


class InvariantViolationError(SanitizerError):
    """Invariant auditor: an algorithm-level invariant does not hold.

    Examples: community-weight arrays diverging from a from-scratch
    recomputation after a delta update, or an MG-pruned vertex that the
    oracle proves had a positive-gain move (a Lemma 5 violation).
    """


class StaticCheckError(SanitizerError):
    """Static checker: a source-level repo contract does not hold.

    Raised by :mod:`repro.analysis.staticcheck` when ``repro lint`` (or a
    programmatic run with ``on_finding="raise"`` semantics) finds an
    unwaived violation — an unclassified config field, an unseeded RNG in
    a hot-path module, a metric name missing from the registry, a serve
    op without a handler/client/docs, a bare float accumulation in a
    bit-exact module, or a span opened outside a ``with`` block.
    """


class PartitionError(ReproError):
    """Raised when a multi-GPU vertex partition is malformed."""


class ExperimentError(ReproError):
    """Raised by the benchmark harness when an experiment is misconfigured."""

"""Rule ``determinism``: no nondeterminism sources in hot-path modules.

The repo's reproducibility contract: every detection path is bit-exact
given ``(graph, config, seed)`` — across kernels, backends, runtimes,
and rank counts. That only holds if the hot-path packages never consult
an unseeded RNG, never seed from wall-clock time, and never let the
iteration order of an unordered container (``set``, ``dict.keys()``)
leak into array contents.

Flagged inside :data:`SCOPES` (``core``/``gpusim``/``multiprocess``/
``multigpu``):

* ``np.random.default_rng()`` / ``random.Random()`` with no arguments,
  calls on the *global* RNGs (``np.random.shuffle``,
  ``random.random``, ...), and ``np.random.seed`` (global-state
  seeding orders runs, not calls);
* seeding from time (``default_rng(time.time_ns())`` and friends);
* iterating a ``set`` display / ``set(...)``-``frozenset(...)`` call in
  a ``for`` statement or comprehension;
* feeding a set or ``.keys()``/``.values()`` view directly to an array
  constructor (``np.array``, ``np.asarray``, ``np.fromiter``,
  ``list``, ``tuple``).

The fix is always the same: thread a seeded ``Generator`` through, or
wrap the unordered source in ``sorted(...)`` before it touches data.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.findings import Finding
from repro.analysis.staticcheck.project import (
    ModuleInfo,
    Project,
    call_func_name,
    dotted_name,
)
from repro.analysis.staticcheck.rules import lint_finding, rule

RULE = "determinism"

#: module-name prefixes under the reproducibility contract
SCOPES = (
    "repro.core",
    "repro.gpusim",
    "repro.multiprocess",
    "repro.multigpu",
)

#: methods of the *global* numpy RNG — calling them at all is a
#: violation (module-level state is seeded by run order, not by config)
_NP_GLOBAL_SAMPLERS = {
    "rand",
    "randn",
    "random",
    "randint",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "binomial",
    "poisson",
    "seed",
}

#: module-level functions of stdlib :mod:`random` (the hidden global
#: ``Random`` instance)
_STDLIB_SAMPLERS = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "seed",
    "betavariate",
    "expovariate",
}

_TIME_SOURCES = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.datetime.now",
    "datetime.utcnow",
}

_ARRAY_CONSTRUCTORS = {
    "np.array",
    "np.asarray",
    "np.fromiter",
    "numpy.array",
    "numpy.asarray",
    "numpy.fromiter",
    "list",
    "tuple",
}


def in_scope(module: ModuleInfo) -> bool:
    return any(
        module.name == scope or module.name.startswith(scope + ".")
        for scope in SCOPES
    )


@rule(RULE, "no unseeded/time-seeded RNGs or unordered-container data flow")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for module in project:
        if not in_scope(module):
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(_check_rng_call(module, node))
                findings.extend(_check_array_call(module, node))
            elif isinstance(node, ast.For):
                findings.extend(
                    _check_unordered_iter(module, node.iter, node.lineno)
                )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    findings.extend(
                        _check_unordered_iter(module, gen.iter, node.lineno)
                    )
    return findings


# --------------------------------------------------------------------- #
def _check_rng_call(module: ModuleInfo, call: ast.Call) -> List[Finding]:
    name = call_func_name(call)
    if name is None:
        return []
    out: List[Finding] = []

    def flag(message: str) -> None:
        out.append(
            lint_finding(RULE, "unseeded-rng", message, module, call.lineno)
        )

    if name in ("np.random.default_rng", "numpy.random.default_rng"):
        if not call.args and not call.keywords:
            flag(
                "np.random.default_rng() without a seed draws OS entropy — "
                "thread the config seed through instead"
            )
        else:
            out.extend(_check_time_seed(module, call))
    elif name in ("random.Random", "np.random.RandomState",
                  "numpy.random.RandomState"):
        if not call.args and not call.keywords:
            flag(f"{name}() without a seed is nondeterministic")
        else:
            out.extend(_check_time_seed(module, call))
    elif name.startswith(("np.random.", "numpy.random.")):
        attr = name.rsplit(".", 1)[1]
        if attr in _NP_GLOBAL_SAMPLERS:
            flag(
                f"{name}() uses numpy's module-global RNG — results depend "
                "on call order across the whole process; use a seeded "
                "Generator"
            )
    elif name.startswith("random.") and name.count(".") == 1:
        attr = name.split(".", 1)[1]
        if attr in _STDLIB_SAMPLERS and _imports_stdlib_random(module):
            flag(
                f"{name}() uses the stdlib module-global RNG — use a "
                "seeded random.Random or numpy Generator"
            )
    return out


def _check_time_seed(module: ModuleInfo, call: ast.Call) -> List[Finding]:
    """``default_rng(time.time_ns())``-style seeding is still nondeterministic."""
    out: List[Finding] = []
    args: List[ast.expr] = list(call.args)
    args.extend(kw.value for kw in call.keywords)
    for arg in args:
        for sub in ast.walk(arg):
            if not isinstance(sub, ast.Call):
                continue
            sub_name = call_func_name(sub)
            if sub_name in _TIME_SOURCES:
                out.append(
                    lint_finding(
                        RULE,
                        "time-seeded-rng",
                        f"RNG seeded from {sub_name}() — wall-clock seeding "
                        "is unreproducible; derive the seed from config",
                        module,
                        call.lineno,
                    )
                )
    return out


def _imports_stdlib_random(module: ModuleInfo) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" and alias.asname is None:
                    return True
    return False


# --------------------------------------------------------------------- #
def _unordered_source(node: ast.expr) -> Optional[str]:
    """A description of why ``node`` iterates in unordered fashion."""
    if isinstance(node, ast.Set):
        return "a set display"
    if isinstance(node, ast.Call):
        fn = call_func_name(node)
        if fn in ("set", "frozenset"):
            return f"{fn}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "keys",
            "values",
        ):
            base = dotted_name(node.func.value) or "<expr>"
            return f"{base}.{node.func.attr}()"
    return None


def _check_unordered_iter(
    module: ModuleInfo, iter_node: ast.expr, lineno: int
) -> List[Finding]:
    source = _unordered_source(iter_node)
    # .keys()/.values() views iterate in insertion order (dicts are
    # ordered); only set iteration is hash-order here.
    if source is None or ".keys()" in source or ".values()" in source:
        return []
    return [
        lint_finding(
            RULE,
            "unordered-iteration",
            f"iterating {source} — set iteration order is hash-seeded; "
            "wrap in sorted(...) before the order can reach data",
            module,
            lineno,
        )
    ]


def _check_array_call(module: ModuleInfo, call: ast.Call) -> List[Finding]:
    fn = call_func_name(call)
    if fn not in _ARRAY_CONSTRUCTORS or not call.args:
        return []
    source = _unordered_source(call.args[0])
    if source is None:
        return []
    # dict views feeding array constructors ARE flagged: even though
    # dict order is deterministic per-process, it encodes insertion
    # history, which differs across runtimes/rank counts — hot-path
    # arrays must come from explicitly ordered sources.
    return [
        lint_finding(
            RULE,
            "unordered-to-array",
            f"{fn}({source}) builds an array from an unordered/"
            "insertion-ordered view — sort first so array contents are "
            "a pure function of the inputs",
            module,
            call.lineno,
        )
    ]
